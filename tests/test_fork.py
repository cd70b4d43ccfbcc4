import os
import time
import warnings

import numpy as np
import pytest

from wetplan._fork import fork_map

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# What Python 3.12 and later emit when a process with threads forks.
THREADED_FORK = "This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child."


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forked = []
    real_fork = os.fork

    def counted_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _warning_fork(monkeypatch, message):
    real_fork = os.fork

    def fork():
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def _tagged(share):
    """A row per item of ``share``: the item, the share's first item and the pid."""
    return np.array([(k, share[0], os.getpid()) for k in share])


# 7 items over 3 CPUs: shares 0, 3, 6 (this process), 1, 4 and 2, 5.
@needs_fork
@pytest.mark.parametrize("cpus", [1, 3, 7, 9])
def test_items_are_dealt_round_robin_and_come_back_in_item_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    forked = _count_forks(monkeypatch)
    shares = min(cpus, 7)
    results = fork_map(_tagged, 7, lambda share: f"share {share[0]}")
    assert results[:, 0].tolist() == list(range(7))
    assert results[:, 1].tolist() == [k % shares for k in range(7)]
    assert len(forked) == shares - 1
    pids = {int(first): int(pid) for _, first, pid in results}
    assert pids[0] == os.getpid()
    assert len(set(pids.values())) == shares
    _assert_no_child_left()


@needs_fork
def test_array_results_come_back_as_one_array_with_a_row_per_item(monkeypatch):
    _cpus(monkeypatch, 3)
    results = fork_map(lambda share: np.array([[k, -k] for k in share], dtype=float), 5, str)
    assert results.tobytes() == np.array([[k, -k] for k in range(5)], dtype=float).tobytes()
    _assert_no_child_left()


@needs_fork
def test_a_failing_child_is_described_by_its_share(monkeypatch):
    _cpus(monkeypatch, 3)

    def work(share):
        if share[0] == 1:
            raise MemoryError("worker out of memory")
        return np.array(share)

    with pytest.raises(RuntimeError, match=r"^share 1, 4 failed in a worker process: MemoryError: worker out of"):
        fork_map(work, 6, lambda share: "share " + ", ".join(map(str, share)))
    _assert_no_child_left()


@needs_fork
def test_a_child_that_dies_gives_its_exit_status(monkeypatch):
    _cpus(monkeypatch, 2)

    def work(share):
        if share[0] == 1:
            os._exit(3)
        return np.array(share)

    with pytest.raises(RuntimeError, match=r"^share 1 failed in a worker process: exit status 3$"):
        fork_map(work, 2, lambda share: f"share {share[0]}")
    _assert_no_child_left()


@needs_fork
def test_a_failing_own_share_kills_and_reaps_the_children(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()

    def work(share):
        if os.getpid() == parent:
            raise ValueError("share 0 failed")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(ValueError, match="share 0 failed"):
        fork_map(work, 3, str)
    assert time.monotonic() - started < 30
    _assert_no_child_left()


@needs_fork
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_the_threaded_fork_warning_is_silenced_around_the_fork(monkeypatch):
    _cpus(monkeypatch, 3)
    _warning_fork(monkeypatch, THREADED_FORK)
    values = np.array([[0.0, 1.5], [np.nan, -2.0], [np.inf, 3.0]])
    assert fork_map(lambda share: values[share], 3, str).tobytes() == values.tobytes()
    _assert_no_child_left()


@needs_fork
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_other_deprecation_warnings_still_raise(monkeypatch):
    _cpus(monkeypatch, 2)
    _warning_fork(monkeypatch, "some other deprecation")
    with pytest.raises(DeprecationWarning, match="some other deprecation"):
        fork_map(np.array, 2, str)
    _assert_no_child_left()


def test_one_cpu_runs_every_item_in_this_process(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", None)
    assert fork_map(_tagged, 4, str).tolist() == [[k, 0, os.getpid()] for k in range(4)]
