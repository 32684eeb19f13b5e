"""The direct-call pass: one layer at a time, no simulation loop.

Each figure is the cost of one operation over a seeded op list this
file builds, best of 3, timed around a plain ``for`` loop (so every
per-op figure carries the loop's ~0.05 us).  The figures are the same
for every workload; they say *which operation* got cheaper when a
workload's layer seconds move.

``measure`` returns ``{metric: value}`` for every ``direct`` metric of
``spec.PER_LAYER`` and, with ``offline=True``, the ``offline`` ones
(whole-run ratios that take tens of seconds).
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

BEST_OF = 3
PRIVATE = 0x1000_0000
SHARED = 0x8000_0000
LINE = 64


def best(run, reps=BEST_OF):
    """Smallest of ``reps`` calls of ``run()`` (seconds)."""
    return min(run() for _ in range(reps))


def loop_seconds(call, ops):
    """Seconds to apply ``call`` to every argument tuple of ``ops``."""
    start = perf_counter()
    for args in ops:
        call(*args)
    return perf_counter() - start


def per_op(call, ops, unit=1e9, warm=True):
    """Best-of-3 cost of one ``call`` over ``ops``, in ``unit``ths of a
    second (1e9 = ns).  ``warm`` applies the list once untimed first, so
    hit paths are measured on resident lines."""
    if warm:
        loop_seconds(call, ops)
    return best(lambda: loop_seconds(call, ops)) / len(ops) * unit


# ---------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------


def memory_layer(rng, n):
    from repro.config import tiled_chip, westmere
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.timeline import Timeline

    out = {}
    access = MemoryHierarchy(westmere(4)).access
    # 8 KB hot set, 70/30 read/write, one core: the L1 fast path.
    ops = [(0, PRIVATE + rng.randrange(128) * LINE, rng.random() < 0.3)
           for _ in range(4 * n)]
    out["memory.l1_hit_ns"] = per_op(access, ops)
    # 128 KB read set cycled in a fixed order: 32 lines per 8-way L1
    # set, so LRU misses the 32 KB L1 every time and the 256 KB L2
    # holds it all.
    lines = list(range(2048))
    rng.shuffle(lines)
    base = PRIVATE + 0x100_0000
    ops = [(0, base + lines[i % 2048] * LINE, False) for i in range(2 * n)]
    out["memory.l2_hit_ns"] = per_op(access, ops)
    # Random lines over 256 MB: every read walks to memory.
    base = PRIVATE + 0x1000_0000
    ops = [(0, base + rng.randrange(1 << 22) * LINE, False)
           for _ in range(n)]
    out["memory.walk_miss_ns"] = per_op(access, ops, warm=False)
    # Four cores on the same 64 lines: all writes, then all reads.
    ops = [(i % 4, SHARED + rng.randrange(64) * LINE, True)
           for i in range(2 * n)]
    out["memory.pingpong_ns"] = per_op(access, ops)
    ops = [(i % 4, SHARED + 0x10_0000 + rng.randrange(64) * LINE, False)
           for i in range(4 * n)]
    out["memory.read_share_ns"] = per_op(access, ops)

    # 256 cores, 80/20 read/write over 512 shared lines: sharer masks
    # wider than 64 bits.  Construction is its own figure.
    built = []

    def build():
        start = perf_counter()
        built.append(MemoryHierarchy(tiled_chip(16, cores_per_tile=16)))
        return perf_counter() - start

    out["memory.build_s_256c"] = best(build)
    ops = [(rng.randrange(256), SHARED + rng.randrange(512) * LINE,
            rng.random() < 0.2) for _ in range(n)]
    out["memory.share_256c_ns"] = per_op(built[-1].access, ops)
    del built

    # Timeline.reserve: in time order (the append path), and landing in
    # gaps of a window that slides forward (the insert path).
    ops = [(i * 10, 4) for i in range(8 * n)]
    out["memory.timeline_append_ns"] = best(
        lambda: loop_seconds(Timeline().reserve, ops)) / len(ops) * 1e9
    ops = [((i // 8) * 100 + rng.randrange(200), 4) for i in range(8 * n)]
    out["memory.timeline_gap_ns"] = best(
        lambda: loop_seconds(Timeline().reserve, ops)) / len(ops) * 1e9
    return out


# ---------------------------------------------------------------------
# cpu, workloads, dbt, isa
# ---------------------------------------------------------------------


class StubMemory:
    """Constant-latency memory owned by the benchmark: every access is
    an L1 hit that leaves nothing for the weave phase."""

    class _Hit:
        latency = 4
        missed_levels = ()
        steps = ()
        wbacks = ()

    def __init__(self):
        self._hit = self._Hit()

    def access(self, core_id, addr, write, cycle=0, ifetch=False):
        return self._hit


def stream_layers(seed, n):
    from repro.config import westmere
    from repro.cpu import make_core
    from repro.dbt.instrumentation import InstrumentedStream
    from repro.dbt.translation_cache import TranslationCache
    from repro.isa.decoder import decode_bbl
    from repro.workloads import kernel_stream, spec_workload

    out = {}
    instrs = 10 * n
    kprog = spec_workload("namd", 1 / 32).kernel_program()
    pid = kprog.program.program_id
    records = list(kernel_stream(kprog, 0, 1, instrs, seed))
    tcache = TranslationCache()
    for record in records:
        tcache.translate(record.block, pid)

    # Core loops over the pre-materialised namd stream and the stub.
    for model, metric, per in (("ooo", "cpu.ooo_ns_per_uop", "uops"),
                               ("simple", "cpu.simple_ns_per_instr",
                                "instrs")):
        config = westmere(1, model).core

        def run_core():
            core = make_core(0, StubMemory(), config)
            core.attach(InstrumentedStream(iter(records), tcache, pid))
            start = perf_counter()
            core.run_until(10 ** 12)
            elapsed = perf_counter() - start
            return elapsed / getattr(core, per)

        out[metric] = best(run_core) * 1e9

    # The functional stream alone (libquantum: the streaming kernel).
    lq = spec_workload("libquantum", 1 / 32).kernel_program()

    def fast_forward():
        stream = InstrumentedStream(kernel_stream(lq, 0, 1, instrs, seed))
        start = perf_counter()
        skipped = stream.fast_forward(10 ** 12)
        return (perf_counter() - start) / skipped

    out["workloads.stream_ns_per_instr"] = best(fast_forward) * 1e9

    # The instrumentation layer alone: next() over a list source.
    def stream_next():
        stream = InstrumentedStream(iter(records), tcache, pid)
        start = perf_counter()
        for _pair in stream:
            pass
        return (perf_counter() - start) / len(records)

    out["dbt.stream_next_ns_per_bbl"] = best(stream_next) * 1e9
    blocks = [(record.block, pid) for record in records]
    out["dbt.translate_hit_ns"] = per_op(tcache.translate, blocks)
    static = [(block,) for block in kprog.program.blocks] * 20
    out["isa.decode_us_per_bbl"] = per_op(decode_bbl, static, unit=1e6)
    return out


# ---------------------------------------------------------------------
# virt
# ---------------------------------------------------------------------


def virt_layer(n):
    from repro.virt.process import SimThread
    from repro.virt.scheduler import Scheduler
    from repro.virt.syscalls import Barrier, Lock, Unlock

    out = {}
    rounds = max(1, n // 4)

    # Two threads share one core: pick one, let its quantum run out,
    # preempt it (deschedule + requeue) for the other.
    def sched_cycle():
        sched = Scheduler(1)
        for _ in range(2):
            sched.add_thread(SimThread(None))
        cycle = 0
        start = perf_counter()
        for _ in range(rounds):
            sched.pick_thread(0, cycle)
            cycle += sched.quantum
            sched.preempt_if_due(0, cycle)
        return (perf_counter() - start) / rounds

    out["virt.sched_cycle_us"] = best(sched_cycle) * 1e6

    # The bound phase's syscall sequence: deschedule, handle_syscall,
    # then reattach (continue) or a later pick_thread (blocked).
    def lock_handoff():
        sched = Scheduler(2)
        threads = [sched.add_thread(SimThread(None)) for _ in range(2)]
        for core in range(2):
            sched.pick_thread(core, 0)
        key = ("lock", 0)
        holder, waiter = 0, 1
        sched.handle_syscall(threads[holder], Lock(key), 0)
        cycle = 0
        start = perf_counter()
        for _ in range(rounds):
            cycle += 100
            sched.deschedule(waiter, cycle)
            sched.handle_syscall(threads[waiter], Lock(key), cycle)
            sched.deschedule(holder, cycle)
            sched.handle_syscall(threads[holder], Unlock(key), cycle)
            sched.reattach(holder, threads[holder])
            sched.pick_thread(waiter, cycle)
            holder, waiter = waiter, holder
        return (perf_counter() - start) / rounds

    out["virt.lock_handoff_us"] = best(lock_handoff) * 1e6

    def barrier():
        parties = 16
        sched = Scheduler(parties)
        threads = [sched.add_thread(SimThread(None))
                   for _ in range(parties)]
        for core in range(parties):
            sched.pick_thread(core, 0)
        phases = max(1, rounds // parties)
        cycle = 0
        start = perf_counter()
        for phase in range(phases):
            cycle += 100
            syscall = Barrier(("phase", phase), parties)
            for core in range(parties):
                sched.deschedule(core, cycle)
                sched.handle_syscall(threads[core], syscall, cycle)
            sched.reattach(parties - 1, threads[parties - 1])
            for core in range(parties - 1):
                sched.pick_thread(core, cycle)
        return (perf_counter() - start) / (phases * parties)

    out["virt.barrier_us_per_thread"] = best(barrier) * 1e6
    return out


# ---------------------------------------------------------------------
# resilience, stats (on simulator states), obs
# ---------------------------------------------------------------------


def blackscholes_sim(tiles, instrs, seed, **zsim_kwargs):
    from repro.config import tiled_chip
    from repro.core.simulator import ZSim
    from repro.workloads import mt_workload

    cores = tiles * 16
    kernel = mt_workload("blackscholes", 1 / 32, cores)
    threads = kernel.make_threads(target_instrs=instrs, num_threads=cores,
                                  seed_offset=seed)
    return ZSim(tiled_chip(tiles, cores_per_tile=16), threads=threads,
                flight=False, **zsim_kwargs)


def state_layers(seed, n):
    from repro.resilience.checkpoint import (discard, read_checkpoint,
                                             snapshot, write_checkpoint)
    from repro.resilience.integrity import (audit_invariants,
                                            fingerprint_components)

    out = {}

    def timed(call, *args):
        start = perf_counter()
        call(*args)
        return perf_counter() - start

    # End state of a 16-core run.
    sim = blackscholes_sim(1, 6 * n, seed)
    sim.run()
    out["resilience.fingerprint_us_16c"] = best(
        lambda: timed(fingerprint_components, sim)) * 1e6
    out["resilience.audit_ms_16c"] = best(
        lambda: timed(audit_invariants, sim)) * 1e3

    def snap():
        seconds = timed(snapshot, sim)
        discard(sim)
        return seconds

    out["resilience.snapshot_ms_16c"] = best(snap) * 1e3
    ckpt_dir = os.path.join(OUT_DIR, "layers-%d" % os.getpid())
    os.makedirs(ckpt_dir, exist_ok=True)
    try:
        path = os.path.join(ckpt_dir, "ckpt.pkl")
        out["resilience.checkpoint_write_ms_16c"] = best(
            lambda: timed(write_checkpoint, path, sim, 1, 1000)) * 1e3
        out["resilience.checkpoint_read_ms_16c"] = best(
            lambda: timed(read_checkpoint, path)) * 1e3
        out["resilience.checkpoint_kb_16c"] = os.path.getsize(path) / 1024
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    # Barrier state of a 256-core run, eight intervals in.
    sim = blackscholes_sim(16, 256_000, seed)
    result = sim.run(max_intervals=8)
    out["resilience.fingerprint_us_256c"] = best(
        lambda: timed(fingerprint_components, sim)) * 1e6
    out["stats.tree_ms_256c"] = best(
        lambda: timed(lambda: result.stats().to_dict())) * 1e3
    return out


def obs_layer(n):
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import TID_MAIN, Tracer

    count = 4 * n
    flight = FlightRecorder()
    tracer = Tracer(max_events=10 * count)
    metrics = MetricsRegistry()
    out = {}

    def flight_record():
        start = perf_counter()
        for i in range(count):
            flight.record("interval", interval=i, limit=1000 * i,
                          cycle=1000 * i, instrs=4000 * i)
        return (perf_counter() - start) / count

    def tracer_span():
        start = perf_counter()
        for i in range(count):
            tracer.complete_raw("bound", "phase", 1.0, 1.001, TID_MAIN,
                                {"interval": i})
        return (perf_counter() - start) / count

    def metrics_sample():
        start = perf_counter()
        for i in range(count):
            metrics.sample_interval(
                i, cycle=1000 * i, instrs=4000 * i, bound_seconds=0.01,
                weave_seconds=0.005, weave_events=1500,
                runnable_threads=16)
        return (perf_counter() - start) / count

    out["obs.flight_record_ns"] = best(flight_record) * 1e9
    out["obs.tracer_span_ns"] = best(tracer_span) * 1e9
    out["obs.metrics_sample_us"] = best(metrics_sample) * 1e6
    return out


def import_seconds():
    """``import repro`` in a fresh interpreter (this worker's own import
    is already paid, so it cannot be re-timed here)."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    src = os.path.join(HERE, os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")

    def once():
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        return float(done.stdout)

    return best(once)


# ---------------------------------------------------------------------
# offline: whole-run ratios
# ---------------------------------------------------------------------


def offline_ratios(seed, n):
    """Backend wall / serial wall and telemetry-on / telemetry-off wall
    on a 16-core blackscholes run (3 reps each, medians)."""
    import statistics

    from repro.obs import Telemetry

    instrs = 60 * n

    def wall(**kwargs):
        walls = []
        for _ in range(BEST_OF):
            sim = blackscholes_sim(1, instrs, seed, **kwargs)
            walls.append(sim.run().wall_seconds)
        return statistics.median(walls)

    serial = wall(backend="serial")
    out = {"exec.%s_ratio" % name: wall(backend=name) / serial
           for name in ("parallel", "pipelined", "process")}
    walls = []
    for _ in range(BEST_OF):
        sim = blackscholes_sim(1, instrs, seed, telemetry=Telemetry())
        walls.append(sim.run().wall_seconds)
    out["obs.telemetry_ratio"] = statistics.median(walls) / serial
    return out


def measure(seed, scale, offline):
    """Every direct-call figure.  ``scale`` shrinks the op counts (the
    contract test runs at 1/20)."""
    n = max(200, int(5_000 * scale))
    rng = random.Random(seed)
    out = {}
    out.update(memory_layer(rng, n))
    out.update(stream_layers(seed, n))
    out.update(virt_layer(n))
    out.update(state_layers(seed, n))
    out.update(obs_layer(n))
    out["config.import_s"] = import_seconds()
    if offline:
        out.update(offline_ratios(seed, n))
    return out
