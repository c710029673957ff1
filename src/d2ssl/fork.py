"""Forked children: Child, the one home of a child's lifecycle, and
side_by_side, the one map that runs independent jobs in them.

At most len(os.sched_getaffinity(0)) processes run at a time: this
process and its live children. A child never forks, so a job that maps
inside a child runs its jobs in turn. multiprocessing is imported only
where a process forks, so a process that never forks never imports it.
"""

from __future__ import annotations

import os
from functools import partial

from .errors import WorkerError

_live = 0          # the children of this process that are not stopped
_in_child = False  # whether this process is itself a Child


def spare_cpus() -> int:
    """How many more processes may run now: the CPUs of this process's
    affinity mask that neither it nor a live child holds; 0 in a child
    and where fork is unavailable. The one check made before a fork:
    where it is 0, a forked process adds its messages to the same work
    and makes the run slower. The rule reads the affinity mask only, so
    a CPU quota of one CPU with a wider mask still forks."""
    if _in_child or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return max(0, len(os.sched_getaffinity(0)) - 1 - _live)


class Child:
    """A forked process that runs target(conn, *args), where conn is its
    end of a pipe to this process. It counts against spare_cpus until
    stop. The child ignores SIGINT, as this process stops it, never
    forks, and ends normally once this process has gone. Once the child
    has died, send and recv raise WorkerError: "the {name} worker exited
    with code N"."""

    def __init__(self, name: str, target, *args):
        global _live
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context("fork")
        self.name, self._wait = name, wait
        self.conn, end = ctx.Pipe()
        self.process = ctx.Process(target=self._main, args=(target, end, *args), daemon=True)
        self.process.start()
        end.close()
        _live += 1

    def _main(self, target, conn, *args) -> None:
        global _in_child
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _in_child = True
        self.conn.close()  # the parent's end, which would keep the pipe open
        try:
            target(conn, *args)
        except (EOFError, OSError):  # the parent is gone
            pass

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            self._lost()

    def recv(self, timeout: float | None = None):
        """The next message that comes within timeout, or with None the
        next one; None if none came."""
        ready = self._wait([self.conn, self.process.sentinel], timeout)
        if not ready:
            return None
        if self.conn not in ready:
            self._lost()
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self._lost()

    def _lost(self):
        self.process.join(1.0)
        raise WorkerError(f"the {self.name} worker exited with code {self.process.exitcode}")

    def stop(self) -> None:
        """Kill and join the child, whatever it is doing, and close the pipe."""
        global _live
        self.process.kill()
        self.process.join()
        self.conn.close()
        _live -= 1


def side_by_side(name: str, jobs: list, take) -> None:
    """take(part) for each part of each job, in job order, where a job is
    a call that returns an iterable of parts. The first job runs in this
    process, and each of its parts is taken as it is made. Each later job
    runs in a Child, "the {name} worker", while spare_cpus allows one;
    the others run here after the children's, in turn. A child makes all
    of its parts, then sends them one message each: its pipe never fills
    while this process makes its own parts, and this process holds one
    part of a child's at a time. The first failure in job order is
    raised once the parts made before it are taken, as if every job ran
    here in turn. Every child is stopped on every exit path."""
    forked = jobs[1:1 + spare_cpus()]
    children = []
    try:
        for job in forked:
            children.append(Child(name, _serve, job))
        for part in jobs[0]():
            take(part)
        for child in children:
            for _ in range(child.recv()):
                take(child.recv())
            failure = child.recv()
            if failure is not None:
                raise failure
        for job in jobs[1 + len(forked):]:
            for part in job():
                take(part)
    finally:
        for child in children:
            child.stop()


def _serve(conn, job) -> None:
    """A child of side_by_side: make job's parts up to its failure, if
    any, then send their count, each part, and the failure or None."""
    parts, failure = [], None
    try:
        for part in job():
            parts.append(part)
    except Exception as exc:
        failure = exc
    conn.send(len(parts))
    for part in parts:
        conn.send(part)
    conn.send(failure)


def in_ranges(name: str, items, job, take) -> None:
    """side_by_side over job(items[a:b]) for contiguous ranges of the
    sequence items, one range for each process that may run now, and
    never an empty range unless items is empty."""
    n = max(1, min(len(items), 1 + spare_cpus()))
    cuts = [len(items) * k // n for k in range(n + 1)]
    side_by_side(name, [partial(job, items[a:b]) for a, b in zip(cuts, cuts[1:])], take)
