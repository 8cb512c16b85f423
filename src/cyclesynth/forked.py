"""A forked worker process at the other end of a pipe, and the rule that starts one.

A job that splits in two (the backward cycle of an unpaired training step, half of a
volume's generator calls in `infer`) runs its second part in a Worker when processes()
is 2, on a CPU that would otherwise sit idle. The two processes share arrays through
shared_zeros and order every access to them with the pipe's messages.
"""

import os
import signal

import numpy as np

from . import thread_cap


def processes():
    """Processes a job that splits in two runs in: 2 when a BLAS thread cap is set
    (CYCLESYNTH_THREADS), this platform forks and this process may run on at least twice
    as many CPUs as the cap; else 1."""
    cap = thread_cap()
    if cap is None or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 2 if len(os.sched_getaffinity(0)) >= 2 * cap else 1


def shared_zeros(shape, dtype):
    """A zeroed array in an anonymous shared mapping, which a child forked after it is
    made writes and reads as this process does. It is never a /dev/shm entry, and it
    is freed with its last view."""
    import mmap

    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class Worker:
    """target(conn, *args) run in a forked child, with conn the child's end of a pipe.

    Fork gives the child this process's state as it is at the fork, with nothing sent or
    imported, in milliseconds, and any wrapper patched onto module functions. The program
    runs no threads of its own, and OpenBLAS stops its thread pool around a fork. The
    child ignores SIGINT, which is the main process's to handle, and prints nothing: an
    exception in target goes back as an ("error", "Type: message") message. Each failure
    of the child raises ChildProcessError here, named by its role and pid.
    """

    def __init__(self, role, target, *args):
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context("fork")
        self._role, self._wait = role, wait
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_child_main, name=f"cyclesynth-{role}",
                                 args=(child_end, self._conn, target, args), daemon=True)
        self._proc.start()
        child_end.close()

    def _error(self, what):
        return ChildProcessError(f"{self._role} worker (pid {self._proc.pid}) {what}")

    def _died(self):
        self._proc.join(1.0)
        return self._error(f"exited with code {self._proc.exitcode}")

    def send(self, msg):
        try:
            self._conn.send(msg)
        except OSError:
            raise self._died() from None

    def recv(self):
        """The fields after the tag of the child's next message."""
        ready = self._wait([self._conn, self._proc.sentinel])
        if self._conn in ready:
            try:
                msg = self._conn.recv()
            except EOFError:
                raise self._died() from None
            if msg[0] == "error":
                raise self._error(f"failed: {msg[1]}")
            return msg[1:]
        raise self._died()

    def close(self):
        """Close the pipe, which ends a child waiting on it, and join the child; one still
        running after 5 s is killed."""
        self._conn.close()
        self._proc.join(5.0)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()
        self._proc.close()


def _child_main(conn, parent_end, target, args):
    parent_end.close()  # so that the main process's exit closes the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        target(conn, *args)
    except EOFError:  # the main process closed the pipe
        pass
    except Exception as e:  # any failure goes back as one line
        try:
            conn.send(("error", f"{type(e).__name__}: {e}"))
            while True:  # until the main process, which reads it, closes the pipe
                conn.recv()
        except (OSError, EOFError):
            pass
