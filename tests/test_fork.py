import os
import warnings

import numpy as np
import pytest

from wetplan._fork import fork_join

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# What Python 3.12 and later emit when a process with threads forks.
THREADED_FORK = "This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child."


def _warning_fork(monkeypatch, message):
    real_fork = os.fork

    def fork():
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


@needs_fork
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_the_threaded_fork_warning_is_silenced_around_the_fork(monkeypatch):
    _warning_fork(monkeypatch, THREADED_FORK)
    tasks = [lambda: 0, lambda: np.arange(3.0), lambda: (None, 1.5, True)]
    first, second, third = fork_join(tasks, lambda k: f"task {k}")
    assert first == 0
    assert second.tobytes() == np.arange(3.0).tobytes()
    assert third == (None, 1.5, True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_other_deprecation_warnings_still_raise(monkeypatch):
    _warning_fork(monkeypatch, "some other deprecation")
    with pytest.raises(DeprecationWarning, match="some other deprecation"):
        fork_join([lambda: 0, lambda: 1], lambda k: f"task {k}")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
