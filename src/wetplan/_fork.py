"""Fork-join over the CPUs the process may run on: ``fork_map`` deals items
round-robin to one share per CPU, and every share after the first runs in a
forked child that pickles its result into a pipe. The callers make an item's
result independent of its share, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import os
import pickle
import warnings

import numpy as np

__all__ = ["usable_cpus", "fork_map"]


def usable_cpus() -> int:
    """CPUs work is split across: those the process may run on, or 1 where
    the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(work, share):
    """Fork a child that runs ``work(share)`` and writes the outcome to a
    pipe; returns the child's pid and the pipe's read end.

    The child writes its pickled result and exits 0, or writes its error
    message and exits 1. It always leaves through ``os._exit``, so it never
    returns into the caller's code or runs its exit handlers.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on forking a process with threads, and every
            # process that loads numpy has an OpenBLAS thread. The child runs
            # only numpy code, which takes no lock another thread may hold,
            # and leaves through os._exit.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    data = pickle.dumps(work(share), pickle.HIGHEST_PROTOCOL)
                    code = 0
                except BaseException as err:
                    data = f"{type(err).__name__}: {err}".encode()
                pipe.write(data)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def fork_map(work, n: int, describe):
    """One result per item ``0 … n-1`` (``n >= 1``), in item order: a list, or
    an array with a row per item where ``work`` returns arrays.

    Share ``s`` of ``min(usable_cpus(), n)`` is ``range(s, n, shares)``, and
    ``work(share)`` gives its items' results in order. Share 0 runs in this
    process, after the others are forked. A child's failure raises a
    ``RuntimeError`` that starts with ``describe(share)``; on any failure the
    children still running are killed, and every child is reaped.
    """
    count = min(usable_cpus(), n)
    shares = [range(s, n, count) for s in range(count)]
    children = []  # (share, pid, pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            children.append((share, *_fork(work, share)))
        parts = [work(shares[0])]
        while children:
            share, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                detail = data.decode(errors="replace") or f"exit status {code}"
                raise RuntimeError(f"{describe(share)} failed in a worker process: {detail}")
            parts.append(pickle.loads(data))
    finally:
        if children:
            import signal

            for _, pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = np.empty((n, *parts[0].shape[1:]), parts[0].dtype) if isinstance(parts[0], np.ndarray) else [None] * n
    for s, part in enumerate(parts):
        results[s::count] = part
    return results
