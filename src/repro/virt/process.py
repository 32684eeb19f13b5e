"""Simulated processes and threads.

zsim runs multiple real processes as one logical simulation by mapping a
shared heap; here processes are simulation objects owning threads.  Each
thread wraps an instrumented functional stream.  Process trees created by
fork()/exec() are captured via the Spawn syscall.
"""

from __future__ import annotations

import itertools


class ThreadState:
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


_thread_ids = itertools.count()
_process_ids = itertools.count(100)


class SimThread:
    """One simulated software thread."""

    def __init__(self, stream, name=None, process=None, affinity=None):
        self.tid = next(_thread_ids)
        self.name = name or "t%d" % self.tid
        self.stream = stream
        self.process = process
        #: Optional set of core ids this thread may run on.
        self.affinity = set(affinity) if affinity is not None else None
        self.state = ThreadState.RUNNABLE
        self.wake_cycle = 0
        self.core = None            # core id while RUNNING
        self.home_core = None       # sticky placement, set by scheduler
        self.run_start_cycle = 0    # for the round-robin quantum
        self.blocked_count = 0
        self.syscall_count = 0
        self.cpu_cycles = 0         # simulated cycles spent on a core
        if process is not None:
            process.threads.append(self)

    def can_run_on(self, core_id):
        return self.affinity is None or core_id in self.affinity

    def __repr__(self):
        return "SimThread(%s, %s)" % (self.name, self.state)


class SimProcess:
    """A simulated process: a thread group with a parent link."""

    def __init__(self, name, parent=None):
        self.pid = next(_process_ids)
        self.name = name
        self.parent = parent
        self.children = []
        self.threads = []
        if parent is not None:
            parent.children.append(self)

    def tree(self):
        """Flatten the process subtree rooted here (fork/exec capture)."""
        out = [self]
        for child in self.children:
            out.extend(child.tree())
        return out

    def __repr__(self):
        return "SimProcess(pid=%d, %r, %d threads)" % (
            self.pid, self.name, len(self.threads))
