"""Fork-join over the CPUs the process may run on.

``fork_join`` runs a list of tasks at once: the first in this process, every
other one in a forked child that pickles its result into a pipe. The callers
make each task's result independent of which process computes it, so the
bytes do not depend on the CPU count.
"""

from __future__ import annotations

import os
import pickle
import warnings

__all__ = ["usable_cpus", "fork_join"]


def usable_cpus() -> int:
    """CPUs work is split across: those the process may run on, or 1 where
    the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(task):
    """Fork a child that runs ``task()`` and writes the outcome to a pipe;
    returns the child's pid and the pipe's read end.

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
                    data = pickle.dumps(task(), pickle.HIGHEST_PROTOCOL)
                    code = 0
                except BaseException as err:
                    data = f"{type(err).__name__}: {err}".encode()
                pipe.write(data)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def fork_join(tasks, describe) -> list:
    """``[task() for task in tasks]``, with every task after the first run in
    a forked child.

    Task 0 runs in this process, after every other task has been forked; the
    results are joined in task order. A child's failure raises a
    ``RuntimeError`` that starts with ``describe(k)`` for its task ``k``. On
    any failure the children still running are killed, and every child is
    reaped.
    """
    children = []  # (task index, pid, pipe) of each child not yet reaped
    try:
        for k, task in enumerate(tasks[1:], 1):
            children.append((k, *_fork(task)))
        results = [tasks[0]()]
        while children:
            k, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                detail = data.decode(errors="replace") or f"exit status {code}"
                raise RuntimeError(f"{describe(k)} failed in a worker process: {detail}")
            results.append(pickle.loads(data))
    finally:
        if children:
            import signal

            for _, pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results
