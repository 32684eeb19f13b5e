"""Client-server workload builder (Section 3.3).

The paper's virtualization layer exists for workload classes like these
— "we have used zsim to simulate JVM workloads like SPECJBB; h-store, a
multiprocess, client-server workload...; and memcached with user-level
TCP/IP".  :func:`client_server_threads` builds an h-store/memcached-shaped
workload: a server process serving futex-signalled requests from client
processes, with request latencies observable through the virtualized
clock (timeouts evaluate against simulated time).
"""

from __future__ import annotations

from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.translation_cache import TranslationCache
from repro.isa.opcodes import Opcode
from repro.isa.program import BBLExec, Instruction, Program
from repro.isa.registers import gp
from repro.virt.process import SimProcess, SimThread
from repro.virt.syscalls import FutexWait, FutexWake


def _service_blocks():
    program = Program("client-server")
    work = program.add_block(
        [Instruction(Opcode.LOAD, gp(14), dst1=gp(2)),
         Instruction(Opcode.ALU, gp(2), gp(3), gp(2)),
         Instruction(Opcode.STORE, gp(14), gp(2))]
        + [Instruction(Opcode.ALU, gp(4 + i % 3), gp(5), gp(4 + i % 3))
           for i in range(5)])
    syscall = program.add_block([Instruction(Opcode.SYSCALL)])
    return program, work, syscall


class RequestLog:
    """Issue/reply cycles per request, collected via a scheduler hook."""

    def __init__(self):
        self.requests = []     # (client_id, request_idx, issue, reply)
        self._pending = {}

    def issue(self, client_id, request_idx, cycle):
        self._pending[(client_id, request_idx)] = cycle

    def reply(self, client_id, request_idx, cycle):
        issue = self._pending.pop((client_id, request_idx), cycle)
        self.requests.append((client_id, request_idx, issue, cycle))

    def latencies(self):
        return [reply - issue for _c, _r, issue, reply in self.requests]

    def timeouts(self, clock, timeout_ns):
        return sum(1 for _c, _r, issue, reply in self.requests
                   if clock.timeout_expired(issue, reply, timeout_ns))


def client_server_threads(num_clients=2, requests_per_client=8,
                          service_iters=20, think_iters=10,
                          request_log=None, sim=None):
    """Build server + client threads.

    With ``request_log`` and ``sim`` given, the log's issue/reply stamps
    are captured by wrapping the simulator's syscall handler (the
    functional stream, like a real binary, can only observe simulated
    time through the virtualized interface).
    """
    program, work, sys_block = _service_blocks()
    tcache = TranslationCache()
    server_proc = SimProcess("server")

    def server_stream():
        total = num_clients * requests_per_client
        for _ in range(total):
            yield BBLExec(sys_block, (), syscall=FutexWait("requests"))
            for i in range(service_iters):
                addr = 0x8000_0000 + (i * 64) % 8192
                yield BBLExec(work, (addr, addr))
            yield BBLExec(sys_block, (), syscall=FutexWake("replies"))

    def client_stream(client_id):
        base = 0x1000_0000 + client_id * 0x100_0000
        for req in range(requests_per_client):
            for i in range(think_iters):
                yield BBLExec(work, (base + i * 64, base + i * 64))
            yield BBLExec(sys_block, (), syscall=FutexWake("requests"))
            yield BBLExec(sys_block, (),
                          syscall=_TaggedWait("replies", client_id, req))

    threads = [SimThread(InstrumentedStream(server_stream(), tcache),
                         name="server", process=server_proc)]
    for client_id in range(num_clients):
        proc = SimProcess("client-%d" % client_id)
        threads.append(SimThread(
            InstrumentedStream(client_stream(client_id), tcache),
            name="client-%d" % client_id, process=proc))
    if request_log is not None and sim is not None:
        _install_log_hook(sim, request_log)
    return threads


class _TaggedWait(FutexWait):
    """A futex wait tagged with (client, request) for latency logging."""

    def __init__(self, key, client_id, request_idx):
        super().__init__(key)
        self.client_id = client_id
        self.request_idx = request_idx


def _install_log_hook(sim, request_log):
    """Stamp issue cycles at the tagged wait and reply cycles at the
    scheduler wake that releases it."""
    scheduler = sim.scheduler
    original_handle = scheduler.handle_syscall
    original_wake = scheduler._wake
    pending = {}   # thread -> (client_id, request_idx)

    def handle(thread, syscall, cycle):
        if isinstance(syscall, _TaggedWait):
            request_log.issue(syscall.client_id, syscall.request_idx,
                              cycle)
            result = original_handle(thread, syscall, cycle)
            if result == "continue":
                # A stored wake token satisfied the wait instantly.
                request_log.reply(syscall.client_id,
                                  syscall.request_idx, cycle)
            else:
                pending[thread] = (syscall.client_id,
                                   syscall.request_idx)
            return result
        return original_handle(thread, syscall, cycle)

    def wake(thread, cycle):
        original_wake(thread, cycle)
        tag = pending.pop(thread, None)
        if tag is not None:
            request_log.reply(tag[0], tag[1], thread.wake_cycle)

    scheduler.handle_syscall = handle
    scheduler._wake = wake

