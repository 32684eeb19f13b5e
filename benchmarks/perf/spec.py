"""What the benchmark measures: the seven pinned workloads, the
end-to-end metrics with their regression bounds, and the per-layer
metrics with the end-to-end metric and workloads each is expected to
move.  ``BENCHMARK.json`` at the repo root is generated from these
tables (``run.py --write-manifest``); README.md explains them.

Importing this module touches nothing but the standard library; the
``repro`` imports happen inside :func:`build`, in the worker.
"""

from __future__ import annotations

import dataclasses

#: Host seconds of simulation one driver invocation measures per
#: workload (``--seconds`` default, ``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10

#: Instruction count of the accuracy companion runs.
COMPANION_INSTRS = 100_000

#: ``--smoke`` shrinks every size by this factor (contract test only).
SMOKE_SCALE = 1 / 20


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pinned scenario.  ``chip`` is ``(preset, *args)`` resolved by
    :func:`build`; ``kernel`` is the synthetic application name."""

    name: str
    why: str            # one line, goes into BENCHMARK.json
    chip: tuple
    kernel: str
    threads: int
    instrs: int
    contention: str = "weave"
    #: The operator defaults: flight recorder, integrity sentinel with
    #: audits, periodic on-disk checkpoints.
    guarded: bool = False
    #: Chip of the accuracy companion when the workload's own chip is
    #: too slow to run twice more per invocation (``None`` = same chip).
    companion_chip: tuple = None


# Sizes are the issue's probed sizes halved (tiled_256c sits on
# make_threads' 1,000 instrs/thread floor, so it is the issue's 1,500
# cut to 1,000): one rep is ~2 s on the 2-core sandbox, so ten measured
# seconds hold five fresh-process reps and the driver's 158 invocations
# fit its 3420 s cap.
WORKLOADS = (
    Workload(
        "namd_1c",
        "L1-resident compute: OOO core loop and L1 fast path dominate, "
        "weave <1% - a walk or weave optimisation must show no change "
        "here",
        ("westmere", 1, "ooo"), "namd", 1, 1_000_000),
    Workload(
        "mcf_1c",
        "read-miss pointer chase: coherence walk, weave build+drain and "
        "timelines dominate - where a walk/weave/timeline gain must show",
        ("westmere", 1, "ooo"), "mcf", 1, 300_000),
    Workload(
        "canneal_4c",
        "writes to shared lines on 4 cores: upgrades, invalidations, "
        "downgrades, lock syscalls - catches a read-path gain paid for "
        "by the invalidate path",
        ("westmere", 4, "ooo"), "canneal", 4, 240_000),
    Workload(
        "blackscholes_16c",
        "balanced 16-core single-tile run (core, hierarchy, weave, "
        "driver all visible): the pinned multicore point and baseline "
        "of the guarded row",
        ("tiled", 1), "blackscholes", 16, 480_000),
    Workload(
        "blackscholes_16c_guarded",
        "same run with the operator defaults on (flight recorder, "
        "integrity audits every 8, checkpoints every 16): the only "
        "workload where the always-on taxes do real work",
        ("tiled", 1), "blackscholes", 16, 480_000, guarded=True),
    Workload(
        "tiled_256c",
        "16 tiles x 16 cores, the only multi-domain run: weave drain "
        "and crossings, >64-bit sharer masks, per-core driver loops, "
        "heavy set-up and memory",
        ("tiled", 16), "blackscholes", 256, 256_000,
        companion_chip=("tiled", 4)),
    Workload(
        "libquantum_ipc1_nc",
        "the paper's fastest model set (IPC1 core, no contention): no "
        "weave at all, so stream, dbt, hierarchy.access and the driver "
        "loop set the speed",
        ("westmere", 1, "simple"), "libquantum", 1, 1_500_000,
        contention="none"),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def build(workload, instrs, companion=False):
    """``(config, kernel_workload, threads, asked_instrs)`` for one run.
    The seed is the caller's business: it reaches the simulator only
    through ``make_threads(seed_offset=seed)``."""
    from repro.config import tiled_chip, westmere
    from repro.workloads import mt_workload, spec_workload

    chip = workload.chip
    threads = workload.threads
    if companion and workload.companion_chip is not None:
        chip = workload.companion_chip
        threads = chip[1] * 16
    if chip[0] == "westmere":
        config = westmere(chip[1], chip[2])
    else:
        config = tiled_chip(chip[1], cores_per_tile=16)
    if threads == 1:
        kernel = spec_workload(workload.kernel, 1 / 32)
    else:
        kernel = mt_workload(workload.kernel, 1 / 32, threads)
    # make_threads gives every thread at least 1,000 instructions.
    asked = max(instrs, 1000 * threads)
    return config, kernel, threads, asked


# ---------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------
# ``bound`` is the share of the parent's median by which the metric may
# worsen before a change counts as a regression.  Host time unless the
# definition says simulated time.  The host-time bounds are the widest
# the contract allows: on the shared 2-core sandbox, ten invocations of
# one commit spread 3-18% between their quartiles and their median
# drifts up to 20% within two hours (README, "Noise").

END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "host seconds around sim.run() in a fresh worker; median "
             "of the reps"},
    {"name": "mips", "unit": "Minstr/s", "better": "higher",
     "bound": 0.25,
     "what": "simulated instructions / wall_s / 1e6, the paper's "
             "headline number; median of the reps"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "host seconds from worker entry (before `import repro`) "
             "to just before sim.run(): imports, config, workload "
             "build, ZSim(...); median of the reps"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
     "bound": 0.10,
     "what": "worker ru_maxrss at exit; median of the reps"},
    {"name": "ipc_agreement_pct", "unit": "%", "better": "higher",
     "bound": 0.15,
     "what": "100 - ipc_err_pct, where ipc_err_pct = |zsim - ref| / ref "
             "in simulated IPC on the 100,000-instr accuracy companion "
             "against the in-repo golden reference model (not hardware; "
             "the model is otherwise unvalidated). Deterministic for a "
             "seed"},
)

# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------
# source: "traced" = the traced run of the workload; "direct" = the
# direct-call pass (one figure per commit, the same for every
# workload); "offline" = direct-call figures too slow for the driver's
# per-workload runs, measured only by the full report and not listed in
# BENCHMARK.json.
# moves: which end-to-end metric the figure should move, on which
# workloads - written down before measuring (README has the table).

_ALL = "all"


def _m(name, unit, better, source, moves):
    return {"name": name, "unit": unit, "better": better,
            "source": source, "moves": moves}


PER_LAYER = (
    # --- traced pass --------------------------------------------------
    _m("core.bound_s", "s", "lower", "traced", ("wall_s", _ALL)),
    _m("core.weave_s", "s", "lower", "traced",
       ("wall_s", "mcf_1c canneal_4c tiled_256c")),
    _m("core.driver_s", "s", "lower", "traced",
       ("wall_s", "tiled_256c libquantum_ipc1_nc "
                  "blackscholes_16c_guarded")),
    _m("core.weave_us_per_event", "us", "lower", "traced",
       ("wall_s", "tiled_256c")),
    _m("core.weave_events", "count", "lower", "traced",
       ("wall_s", "tiled_256c")),
    _m("core.crossings", "count", "lower", "traced",
       ("wall_s", "tiled_256c")),
    _m("core.crossing_requeue_ratio", "ratio", "lower", "traced",
       ("wall_s", "tiled_256c")),
    _m("core.driver_us_per_interval", "us", "lower", "traced",
       ("wall_s", "tiled_256c vs blackscholes_16c")),
    _m("core.us_per_core_interval", "us", "lower", "traced",
       ("wall_s", "tiled_256c vs blackscholes_16c")),
    _m("core.intervals", "count", "lower", "traced",
       ("wall_s", "tiled_256c vs blackscholes_16c")),
    _m("memory.access_s", "s", "lower", "traced",
       ("wall_s", "mcf_1c canneal_4c libquantum_ipc1_nc")),
    _m("memory.accesses", "count", "lower", "traced",
       ("wall_s", "mcf_1c canneal_4c libquantum_ipc1_nc")),
    _m("memory.fastpath_hit_rate", "ratio", "higher", "traced",
       ("wall_s", "mcf_1c canneal_4c libquantum_ipc1_nc")),
    _m("memory.l2_fastpath_share", "ratio", "higher", "traced",
       ("wall_s", "mcf_1c canneal_4c libquantum_ipc1_nc")),
    _m("memory.dir_ops_per_slow_access", "ratio", "lower", "traced",
       ("wall_s", "mcf_1c canneal_4c")),
    _m("workloads.stream_s", "s", "lower", "traced",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("dbt.translation_hit_rate", "ratio", "higher", "traced",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("dbt.translations", "count", "lower", "traced",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("cpu.self_s", "s", "lower", "traced",
       ("wall_s", "namd_1c blackscholes_16c")),
    _m("virt.syscalls", "count", "lower", "traced",
       ("wall_s", "canneal_4c tiled_256c")),
    _m("trace.overhead_ratio", "ratio", "lower", "traced",
       ("none", "the price of the trace")),
    # --- direct-call pass ---------------------------------------------
    _m("memory.l1_hit_ns", "ns", "lower", "direct",
       ("wall_s", "namd_1c")),
    _m("memory.l2_hit_ns", "ns", "lower", "direct",
       ("wall_s", "mcf_1c libquantum_ipc1_nc")),
    _m("memory.walk_miss_ns", "ns", "lower", "direct",
       ("wall_s", "mcf_1c")),
    _m("memory.pingpong_ns", "ns", "lower", "direct",
       ("wall_s", "canneal_4c")),
    _m("memory.read_share_ns", "ns", "lower", "direct",
       ("none", "control")),
    _m("memory.share_256c_ns", "ns", "lower", "direct",
       ("wall_s", "tiled_256c")),
    _m("memory.timeline_append_ns", "ns", "lower", "direct",
       ("core.weave_us_per_event", "mcf_1c tiled_256c")),
    _m("memory.timeline_gap_ns", "ns", "lower", "direct",
       ("core.weave_us_per_event", "mcf_1c tiled_256c")),
    _m("memory.build_s_256c", "s", "lower", "direct",
       ("setup_s", "tiled_256c")),
    _m("cpu.ooo_ns_per_uop", "ns", "lower", "direct",
       ("wall_s", "namd_1c")),
    _m("cpu.simple_ns_per_instr", "ns", "lower", "direct",
       ("wall_s", "libquantum_ipc1_nc")),
    _m("workloads.stream_ns_per_instr", "ns", "lower", "direct",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("dbt.stream_next_ns_per_bbl", "ns", "lower", "direct",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("dbt.translate_hit_ns", "ns", "lower", "direct",
       ("wall_s", "libquantum_ipc1_nc namd_1c")),
    _m("isa.decode_us_per_bbl", "us", "lower", "direct",
       ("setup_s", "control: expected flat")),
    _m("virt.sched_cycle_us", "us", "lower", "direct",
       ("wall_s", "canneal_4c tiled_256c")),
    _m("virt.lock_handoff_us", "us", "lower", "direct",
       ("wall_s", "canneal_4c tiled_256c")),
    _m("virt.barrier_us_per_thread", "us", "lower", "direct",
       ("wall_s", "canneal_4c tiled_256c")),
    _m("resilience.fingerprint_us_16c", "us", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.fingerprint_us_256c", "us", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.audit_ms_16c", "ms", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.snapshot_ms_16c", "ms", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.checkpoint_write_ms_16c", "ms", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.checkpoint_read_ms_16c", "ms", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("resilience.checkpoint_kb_16c", "KB", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("obs.flight_record_ns", "ns", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("obs.tracer_span_ns", "ns", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("obs.metrics_sample_us", "us", "lower", "direct",
       ("wall_s", "blackscholes_16c_guarded")),
    _m("stats.tree_ms_256c", "ms", "lower", "direct",
       ("none", "stats is outside wall_s")),
    _m("config.import_s", "s", "lower", "direct", ("setup_s", _ALL)),
    # --- offline (full report only) -----------------------------------
    _m("obs.telemetry_ratio", "ratio", "lower", "offline",
       ("none", "opt-in path")),
    _m("exec.parallel_ratio", "ratio", "lower", "offline",
       ("none", "serial is the default")),
    _m("exec.pipelined_ratio", "ratio", "lower", "offline",
       ("none", "serial is the default")),
    _m("exec.process_ratio", "ratio", "lower", "offline",
       ("none", "serial is the default")),
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
MOVES = {m["name"]: m["moves"] for m in PER_LAYER}


def layer_names(*sources):
    return [m["name"] for m in PER_LAYER if m["source"] in sources]


def manifest():
    """The contents of BENCHMARK.json (exactly the contract's keys)."""
    keys = ("name", "unit", "better")
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in keys + ("bound",)}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in keys} for m in PER_LAYER
                      if m["source"] != "offline"],
    }
