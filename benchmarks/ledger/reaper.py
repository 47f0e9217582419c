"""Nothing the benchmark starts outlives it.

The program under test starts processes the benchmark never sees a
handle for: ``multiprocessing``'s resource tracker (one per process
that touches shared memory — this one under ``mqc_sharded``, the
daemon under ``serve_*``, and each forked worker that attaches before
its parent has a tracker) ends only once the process it serves has
gone, so it is still running when that process's exit is observed.

``adopt()`` makes this process the reaper of every descendant, so an
orphaned grandchild comes back here instead of to init; ``reap()``
stops this process's own tracker, then waits until every child has
ended, killing what is still there after a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36


def adopt() -> None:
    """Become the parent of orphaned descendants (Linux; elsewhere the
    call is missing or refused and orphans go to init as usual)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """The tracker serves this process until told to stop."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def reap(grace: float = 20.0) -> List[int]:
    """Wait for every child to end; returns the pids that had to be
    killed because they were still running after ``grace`` seconds."""
    stop_resource_tracker()
    killed: List[int] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            # Killing a child hands its own children to this process,
            # which the next turn of the loop deals with.
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                if child not in killed:
                    killed.append(child)
        time.sleep(0.01)
