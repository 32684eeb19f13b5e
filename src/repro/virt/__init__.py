"""Lightweight user-level virtualization: scheduler, syscalls, clocks."""

from repro.virt.process import SimProcess, SimThread, ThreadState
from repro.virt.scheduler import Scheduler, SyscallResult
from repro.virt.sysview import SystemView

__all__ = [
    "Scheduler",
    "SimProcess",
    "SimThread",
    "SyscallResult",
    "SystemView",
    "ThreadState",
]
