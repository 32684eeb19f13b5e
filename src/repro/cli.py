"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``run`` — simulate a workload on a config (preset or JSON file) and
  print/dump stats.
* ``validate`` — compare zsim vs the reference machine on a workload.
* ``list-workloads`` — enumerate the synthetic suites.
* ``table1`` — print the simulator comparison matrix.
* ``diff`` — structurally compare two stats-JSON trees (the
  equivalence oracle; exit 0 identical/within tolerance, 1 divergent).
* ``verify`` — certify a checkpoint directory's integrity fingerprint
  chain: re-derive every capsule's deep state digests, then serially
  re-execute sampled checkpoint-to-checkpoint spans and compare chains
  (exit 0 certified, 1 tampered/corrupt).
* ``report`` — render flight-recorder post-mortem capsules as
  human-readable timelines (paths or directories; corrupt capsules are
  skipped with a warning).
* ``top`` — watch a running simulation through its status file.

``run`` carries the resilience layer's flags (see docs/resilience.md):
``--watchdog-budget``, ``--checkpoint-dir`` /
``--checkpoint-every`` / ``--resume``, ``--max-wall-seconds``, and the
fault-injection harness ``--inject-faults`` — plus the observability
flags (docs/observability.md): ``--status-file`` (live monitor),
``--flight-dir``/``--no-flight`` (flight recorder).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.config import small_test_system, tiled_chip, westmere
from repro.config.loader import load_config
from repro.core.simulator import CONTENTION_MODELS, ZSim
from repro.errors import (CheckpointError, ConfigError, ExecutionFault,
                          IntegrityError, WallClockExceeded)
from repro.exec import BACKEND_NAMES

#: Exit status for a run that stopped on ``--max-wall-seconds`` (the
#: conventional "temporary failure; retry later" code).
EXIT_WALL_BUDGET = 75

PRESETS = {
    "westmere": lambda cores: westmere(num_cores=cores or 6),
    "tiled": lambda cores: tiled_chip(
        num_tiles=max(1, (cores or 64) // 16)),
    "test": lambda cores: small_test_system(num_cores=cores or 4),
}


def _resolve_config(args):
    """The run's config; a rejected one exits 2 with a one-line error."""
    try:
        if args.config in PRESETS:
            config = PRESETS[args.config](args.cores)
        else:
            config = load_config(args.config)
        if args.core_model:
            import dataclasses
            config = dataclasses.replace(
                config, core=dataclasses.replace(config.core,
                                                 model=args.core_model))
        return config.validate()
    except ConfigError as exc:
        print("repro: error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)


def _resolve_workload(name, scale, num_threads):
    from repro.workloads import (MULTITHREADED, SPEC_CPU2006, mt_workload,
                                 spec_workload)
    if name in SPEC_CPU2006:
        return spec_workload(name, scale=scale)
    if name in MULTITHREADED:
        return mt_workload(name, scale=scale, num_threads=num_threads)
    raise SystemExit("Unknown workload %r; see `repro list-workloads`"
                     % name)


def _make_telemetry(args):
    """Build the observability context (or None) from run flags."""
    want_trace = bool(args.trace_out or args.trace_timeline)
    want_metrics = bool(args.metrics_out)
    if not want_trace and not want_metrics:
        return None
    from repro.obs import Telemetry
    return Telemetry(trace=want_trace, metrics=want_metrics)


def _write_telemetry(args, telemetry):
    if telemetry is None:
        return
    if args.trace_out:
        telemetry.write_trace(args.trace_out)
        print("trace written to %s (load in chrome://tracing)"
              % args.trace_out)
    if args.trace_timeline:
        print(telemetry.tracer.text_timeline())
    if args.metrics_out:
        telemetry.write_metrics(args.metrics_out)
        print("metrics written to %s" % args.metrics_out)


def _run_meta(args, workload, threads):
    """Identity of a run, recorded in checkpoints and verified on
    resume: the stream fast-forward is only sound when the resuming
    process rebuilds the *same* workload."""
    return {"workload": workload.name, "scale": args.scale,
            "instrs": args.instrs, "threads": len(threads),
            "contention": args.contention, "seed": args.seed_offset}


def _resume_sim(args, meta, threads, telemetry, flight=None):
    """The simulator restored from ``--resume``, and the run id of the
    capsule it came from (None for a legacy unqualified name)."""
    from repro.resilience import read_checkpoint, read_latest_checkpoint
    from repro.resilience.checkpoint import parse_name
    path = args.resume
    try:
        if os.path.isdir(path):
            # Falls back past corrupt/truncated capsules to the newest
            # valid one; only an empty/all-corrupt directory raises.
            path, capsule = read_latest_checkpoint(
                path, flight=flight or None)
        else:
            capsule = read_checkpoint(path)
    except CheckpointError as exc:
        raise SystemExit(str(exc))
    # The integrity record is capsule-internal (deep digests checked by
    # ZSim.resume), not part of the run identity the flags must match.
    saved_meta = dict(capsule.get("meta") or {})
    saved_meta.pop("integrity", None)
    if saved_meta and saved_meta != meta:
        diffs = ["%s: checkpoint=%r, flags=%r" % (k, saved_meta.get(k),
                                                  meta.get(k))
                 for k in sorted(set(saved_meta) | set(meta))
                 if saved_meta.get(k) != meta.get(k)]
        raise SystemExit(
            "checkpoint %s was written by a different run (%s); resume "
            "needs the original workload flags" % (path, "; ".join(diffs)))
    print("resuming from %s (interval %d)" % (path, capsule["interval"]))
    try:
        sim = ZSim.resume(capsule, threads, backend=args.backend,
                          telemetry=telemetry, flight=flight)
    except IntegrityError as exc:
        raise SystemExit(
            "refusing to resume from %s: %s (certify the directory "
            "with `repro verify`)" % (path, exc))
    parsed = parse_name(os.path.basename(path))
    return sim, parsed[0] if parsed else None


def _setup_resilience(args, sim, meta, run_id):
    """Wire the resilience layer onto a built simulator from run
    flags.  ``run_id`` is the resumed capsule's (None for a fresh run),
    so the checkpointer prunes the killed run's temps and capsules as
    its own."""
    from repro.resilience import Checkpointer
    from repro.resilience.faults import FaultPlan
    if args.watchdog_budget:
        sim.backend.watchdog_budget = args.watchdog_budget
    if getattr(args, "pool_size", None):
        sim.backend.pool_size = args.pool_size
    if getattr(args, "heartbeat_budget", None):
        sim.backend.heartbeat_budget_s = args.heartbeat_budget
    if args.inject_faults:
        sim.backend.fault_plan = FaultPlan.parse(args.inject_faults)
    if args.checkpoint_dir:
        sim.checkpointer = Checkpointer(args.checkpoint_dir,
                                        every=args.checkpoint_every,
                                        meta=meta, run_id=run_id)
    if args.max_wall_seconds:
        sim.max_wall_seconds = args.max_wall_seconds


class _GracefulStop:
    """SIGTERM/SIGINT handler for ``repro run``: the first signal asks
    the simulator to stop at the next interval barrier (final
    checkpoint + EXIT_WALL_BUDGET, same path as an exhausted wall-clock
    budget); a second signal takes the previous disposition, so it
    force-quits."""

    def __init__(self, sim):
        self.sim = sim
        self._previous = {}

    def __enter__(self):
        import signal
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            except (ValueError, OSError):
                pass  # not the main thread / unsupported platform
        return self

    def __exit__(self, *exc_info):
        import signal
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()
        return False

    def _handle(self, signum, frame):
        import signal
        self.sim.request_stop("signal %s"
                              % getattr(signal.Signals(signum), "name",
                                        signum))
        # One graceful chance: the next signal acts normally (Ctrl-C
        # twice kills a wedged run).
        previous = self._previous.pop(signum, signal.SIG_DFL)
        try:
            signal.signal(signum, previous)
        except (ValueError, OSError):
            pass


def _make_flight(args):
    """The run's flight recorder (or False to disable): capsules land
    in --flight-dir, else next to the checkpoints, else the cwd."""
    if args.no_flight:
        return False
    from repro.obs.flight import FlightRecorder
    capsule_dir = args.flight_dir or args.checkpoint_dir or "."
    return FlightRecorder(capsule_dir=capsule_dir)


def _setup_monitor(args, sim):
    """Install a live RunMonitor when --status-file asked for one."""
    if not args.status_file:
        return
    from repro.obs.monitor import RunMonitor
    run_id = sim.flight.run_id if sim.flight is not None else None
    sim.monitor = RunMonitor(path=args.status_file,
                             target_instrs=args.instrs, run_id=run_id)


def cmd_run(args):
    if args.log_level:
        from repro.obs import configure_logging
        configure_logging(args.log_level)
    config = _resolve_config(args)
    if args.audit_every is not None:
        config.boundweave.audit_every = args.audit_every
        config.validate()
    workload = _resolve_workload(args.workload, args.scale, args.threads)
    threads = workload.make_threads(
        target_instrs=args.instrs,
        num_threads=args.threads or workload.num_threads,
        seed_offset=args.seed_offset)
    telemetry = _make_telemetry(args)
    meta = _run_meta(args, workload, threads)
    flight = _make_flight(args)
    run_id = None
    if args.resume:
        sim, run_id = _resume_sim(args, meta, threads, telemetry, flight)
    else:
        sim = ZSim(config, threads=threads,
                   contention_model=args.contention,
                   telemetry=telemetry, backend=args.backend,
                   flight=flight)
    if args.audit_every is not None:
        # 0 still chains, and a capsule written without a sentinel gets
        # one on resume: the flag sets the stride either way.
        if sim.integrity is None:
            from repro.resilience import IntegritySentinel
            sim.integrity = IntegritySentinel()
        sim.integrity.audit_every = args.audit_every
    _setup_resilience(args, sim, meta, run_id)
    _setup_monitor(args, sim)
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
    try:
        with _GracefulStop(sim):
            if profiler is not None:
                profiler.enable()
            try:
                result = sim.run()
            finally:
                # Dump on *every* exit — normal completion, wall-budget
                # stop, signals, faults — so a wedged run still leaves
                # its profile behind.
                if profiler is not None:
                    profiler.disable()
                    profiler.dump_stats(args.profile)
                    print("profile written to %s (inspect with: "
                          "python -m pstats %s)"
                          % (args.profile, args.profile))
                plan = sim.backend.fault_plan
                unfired = plan and "; ".join(
                    fault.describe() for fault in plan.unfired())
                if unfired:
                    print("repro: warning: fault never fired: "
                          + unfired, file=sys.stderr)
    except (WallClockExceeded, IntegrityError, ExecutionFault) as exc:
        # No traceback.  A budget or signal stop (RunInterrupted too) is
        # resumable by design; an integrity or execution fault ends the
        # run, so it exits 1 and points at the audited capsules.
        stopped = isinstance(exc, WallClockExceeded)
        if stopped:
            print("stopped: %s" % exc)
        elif isinstance(exc, IntegrityError):
            print("integrity fault at interval %s in %s: %s"
                  % (exc.interval, exc.component, exc.excerpt))
        else:
            print("%s at interval %s: %s"
                  % (type(exc).__name__, exc.interval, exc))
        if sim.flight is not None and sim.flight.capsules:
            print("post-mortem capsule: %s (render with: repro report)"
                  % sim.flight.capsules[-1])
        resume = exc.checkpoint_path if stopped else args.checkpoint_dir
        if resume:
            print("resume with: repro run --resume %s <original flags>"
                  % resume)
        return EXIT_WALL_BUDGET if stopped else 1
    config = sim.config  # the capsule's config when resuming
    print("workload %s on %s (%d cores, %s, %s contention, %s backend)"
          % (workload.name, config.name, config.num_cores,
             config.core.model, sim.contention_model, sim.backend.name))
    if sim.integrity is not None:
        s = sim.integrity.summary()
        print("  integrity: chain %08x over %d barrier(s), %d audit(s)"
              % (s["chain"], s["fingerprints"], s["audits"]))
    if unfired:
        print("  unfired : " + unfired)
    print("  instrs  : %d" % result.instrs)
    print("  cycles  : %d" % result.cycles)
    print("  IPC     : %.3f" % result.ipc)
    print("  MIPS    : %.3f" % result.mips)
    for level in ("l1i", "l1d", "l2", "l3"):
        print("  %s MPKI: %.2f" % (level.upper().ljust(4),
                                   result.core_mpki(level)))
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            handle.write(result.stats().to_json(indent=2))
        print("stats written to %s" % args.stats_out)
    _write_telemetry(args, telemetry)
    return 0


def cmd_validate(args):
    from repro.harness.validation import validate_workload
    config = _resolve_config(args)
    workload = _resolve_workload(args.workload, args.scale, args.threads)
    row = validate_workload(config, workload, target_instrs=args.instrs,
                            num_threads=args.threads)
    for key in ("ipc_real", "ipc_zsim", "perf_error", "tlb_mpki",
                "l1d_mpki_err", "l3_mpki_err", "branch_mpki_err"):
        value = row[key]
        print("  %-16s %s" % (key,
                              "%.4f" % value
                              if isinstance(value, float) else value))
    return 0


def cmd_list_workloads(_args):
    from repro.workloads import PARSEC, SPEC_CPU2006, SPEC_OMP, SPLASH2
    for suite, names in (("SPEC CPU2006-like (single-threaded)",
                          SPEC_CPU2006), ("PARSEC-like", PARSEC),
                         ("SPLASH-2-like", SPLASH2),
                         ("SPEC OMP-like", SPEC_OMP)):
        print("%s:\n  %s" % (suite, " ".join(names)))
    print("Other: stream")
    return 0


def cmd_table1(_args):
    from repro.harness import table1
    print(table1.render())
    return 0


def cmd_diff(args):
    from repro.stats.diff import diff_trees, load_tree
    try:
        tree_a = load_tree(args.a)
        tree_b = load_tree(args.b)
    except (OSError, ValueError) as exc:
        raise SystemExit("could not read stats tree: %s" % exc)
    result = diff_trees(tree_a, tree_b, tolerance=args.tolerance,
                        ignore=args.ignore)
    print(result.render(max_report=args.max_report))
    return 0 if result.equivalent else 1


def _replay_span(capsule, interval_a, interval_b):
    """Serially re-execute intervals (a, b] from capsule_a and return
    the sentinel's chain at b, or None when the capsule lacks the run
    meta needed to rebuild its workload."""
    meta = capsule.get("meta") or {}
    if any(meta.get(key) is None
           for key in ("workload", "scale", "instrs", "threads")):
        print("note: capsule at interval %d lacks run meta; span "
              "replay skipped" % interval_a)
        return None
    workload = _resolve_workload(meta["workload"], meta["scale"],
                                 meta["threads"])
    threads = workload.make_threads(target_instrs=meta["instrs"],
                                    num_threads=meta["threads"],
                                    seed_offset=meta.get("seed", 0))
    sim = ZSim.resume(capsule, threads, backend="serial", flight=False)
    sim.run(max_intervals=interval_b)
    sentinel = sim.integrity
    return sentinel.chain if sentinel is not None else None


def cmd_verify(args):
    from repro.resilience import read_checkpoint
    from repro.resilience.checkpoint import checkpoints
    from repro.resilience.integrity import verify_state

    if os.path.isdir(args.path):
        paths = [path for _interval, path in sorted(checkpoints(args.path))]
        if not paths:
            raise SystemExit("no checkpoints under %s" % args.path)
    else:
        paths = [args.path]
    failures = 0
    verified = []
    for path in paths:
        try:
            capsule = read_checkpoint(path)
        except (CheckpointError, OSError) as exc:
            print("FAIL %s: unreadable capsule: %s" % (path, exc))
            failures += 1
            continue
        record = (capsule.get("meta") or {}).get("integrity")
        if not record:
            print("FAIL %s: no integrity record (checkpoint written "
                  "without the sentinel; rerun with --audit-every)"
                  % path)
            failures += 1
            continue
        try:
            verify_state(capsule["sim"], record, context="verify")
        except IntegrityError as exc:
            print("FAIL %s: %s" % (path, exc))
            failures += 1
            continue
        print("ok   %s (interval %d, chain %08x)"
              % (path, capsule["interval"], record["chain"]))
        verified.append((capsule["interval"], capsule, record))
    replayed = 0
    if args.replay and len(verified) >= 2:
        spans = list(zip(verified, verified[1:]))[-args.replay:]
        for (a, capsule_a, _rec_a), (b, _capsule_b, rec_b) in spans:
            try:
                chain = _replay_span(capsule_a, a, b)
            except Exception as exc:  # tampered pickles crash replay
                print("FAIL replay %d..%d: %s" % (a, b, exc))
                failures += 1
                continue
            if chain is None:
                continue
            replayed += 1
            if chain != rec_b["chain"]:
                print("FAIL replay %d..%d: recomputed chain %08x does "
                      "not match recorded %08x"
                      % (a, b, chain, rec_b["chain"]))
                failures += 1
            else:
                print("ok   replay %d..%d: chain matches (%08x)"
                      % (a, b, chain))
    print("verified %d/%d capsule(s), replayed %d span(s), %d "
          "failure(s)" % (len(verified), len(paths), replayed, failures))
    return 1 if failures or not verified else 0


def _expand_capsule_paths(paths):
    """Expand directories into their ``postmortem-*.json`` capsules
    (sorted), keeping explicit file paths as given."""
    expanded = []
    for path in paths:
        if os.path.isdir(path):
            try:
                names = sorted(os.listdir(path))
            except OSError as exc:
                print("warning: could not list %s: %s" % (path, exc),
                      file=sys.stderr)
                continue
            expanded.extend(os.path.join(path, n) for n in names
                            if n.startswith("postmortem-")
                            and n.endswith(".json"))
        else:
            expanded.append(path)
    return expanded


def cmd_report(args):
    from repro.obs.flight import load_capsule, render_report
    paths = _expand_capsule_paths(args.capsule)
    if not paths:
        raise SystemExit("no post-mortem capsules found under: %s"
                         % " ".join(args.capsule))
    rendered = 0
    for index, path in enumerate(paths):
        try:
            capsule = load_capsule(path)
        except (OSError, ValueError) as exc:
            # A truncated or schema-skewed capsule (host died while the
            # recorder flushed, or an old build wrote it) must not hide
            # the readable ones next to it.
            print("warning: skipping unreadable capsule %s: %s"
                  % (path, exc), file=sys.stderr)
            continue
        if rendered:
            print()
        if len(paths) > 1:
            print("=== %s" % path)
        print(render_report(capsule, last_seconds=args.last_seconds,
                            max_events=args.max_events))
        rendered += 1
    if not rendered:
        raise SystemExit("no readable capsule among %d path(s)"
                         % len(paths))
    return 0


def cmd_top(args):
    import json
    import time as _time

    from repro.obs.monitor import render_top
    period = max(0.1, args.interval)
    while True:
        try:
            with open(args.status_file) as fh:
                status = json.load(fh)
        except FileNotFoundError:
            raise SystemExit("no status file at %s (is the run using "
                             "--status-file?)" % args.status_file)
        except ValueError:
            # Mid-replace torn read cannot happen (os.replace is
            # atomic), but an unrelated non-JSON file can.
            raise SystemExit("%s is not a status file"
                             % args.status_file)
        print(render_top(status))
        state = status.get("state", "running")
        if args.once or state != "running":
            return 0 if state in ("running", "done") else 1
        print()
        _time.sleep(period)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZSim reproduction: bound-weave multicore simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", "--preset", dest="config",
                       default="westmere",
                       help="preset (%s) or JSON config path"
                       % "/".join(PRESETS))
        p.add_argument("--cores", type=int, default=None)
        p.add_argument("--core-model", choices=("simple", "ooo"),
                       default=None)
        p.add_argument("--workload", default="blackscholes")
        p.add_argument("--scale", type=float, default=1 / 32,
                       help="footprint scale factor")
        p.add_argument("--instrs", type=int, default=100_000)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed-offset", type=int, default=0,
                       metavar="N",
                       help="offset the workload's RNG seeds (the "
                            "statistical axis for sweeps; default 0)")

    run = sub.add_parser("run", help="simulate a workload")
    add_common(run)
    run.add_argument("--contention", choices=CONTENTION_MODELS,
                     default="weave")
    run.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                     help="execution backend (how the engine runs on "
                          "the host; simulated results are identical "
                          "across backends; default: config's "
                          "boundweave.backend)")
    run.add_argument("--pool-size", type=int, default=None, metavar="N",
                     help="process backend: worker processes forked "
                          "per interval (overrides "
                          "boundweave.process_workers; default: host "
                          "CPUs minus one)")
    run.add_argument("--heartbeat-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="process backend: seconds without a worker "
                          "heartbeat before the driver kills "
                          "stragglers and runs their cores inline "
                          "(overrides boundweave.heartbeat_budget_s)")
    run.add_argument("--stats-json", "--stats-out", dest="stats_out",
                     default=None,
                     help="write the stats tree (incl. host speedup "
                          "curves, weave stats, latency histograms) "
                          "as JSON")
    run.add_argument("--trace-out", default=None,
                     help="write a Chrome trace-event JSON "
                          "(chrome://tracing / Perfetto)")
    run.add_argument("--trace-timeline", action="store_true",
                     help="print a compact text timeline after the run")
    run.add_argument("--metrics-out", default=None,
                     help="write the metrics registry (counters, "
                          "histograms, per-interval samples) as JSON")
    run.add_argument("--profile", default=None, metavar="OUT.pstats",
                     help="profile the simulation loop with cProfile "
                          "and dump pstats data to this path on exit "
                          "(written even when the run stops early)")
    run.add_argument("--log-level", default=None,
                     choices=("debug", "info", "warning", "error"),
                     help="enable structured logging at this level")
    run.add_argument("--watchdog-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="seconds of no worker progress before a pass "
                          "raises WatchdogTimeout (overrides "
                          "boundweave.watchdog_budget_s)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write interval checkpoints to DIR")
    run.add_argument("--checkpoint-every", type=int, default=1,
                     metavar="N",
                     help="checkpoint stride in intervals (default 1)")
    run.add_argument("--resume", default=None, metavar="PATH",
                     help="resume from a checkpoint file, or from the "
                          "latest checkpoint in a directory; requires "
                          "the original workload flags")
    run.add_argument("--max-wall-seconds", type=float, default=None,
                     metavar="SECONDS",
                     help="stop (exit %d) after this much wall time, "
                          "checkpointing first when --checkpoint-dir "
                          "is set" % EXIT_WALL_BUDGET)
    run.add_argument("--inject-faults", default=None, metavar="PLAN",
                     help="deterministic fault plan, e.g. "
                          "'kill@3:w0;corrupt@5:d1' (see "
                          "docs/resilience.md); a fault ends the run "
                          "typed, resumable from its checkpoints")
    run.add_argument("--audit-every", type=int, default=None,
                     metavar="N",
                     help="integrity sentinel: fingerprint-chain every "
                          "barrier, audit invariants every N barriers "
                          "and before each checkpoint; a violation "
                          "exits 1 (0 chains without auditing; default: "
                          "boundweave.audit_every, normally off)")
    run.add_argument("--status-file", default=None, metavar="PATH",
                     help="atomically rewrite a JSON status file at "
                          "every interval barrier (watch it with "
                          "`repro top PATH`)")
    run.add_argument("--flight-dir", default=None, metavar="DIR",
                     help="directory for flight-recorder post-mortem "
                          "capsules (default: --checkpoint-dir, else "
                          "the cwd)")
    run.add_argument("--no-flight", action="store_true",
                     help="disable the flight recorder (on by default; "
                          "capsules are only written when a run "
                          "crashes or is stopped)")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate",
                         help="compare zsim vs the reference machine")
    add_common(val)
    val.set_defaults(func=cmd_validate)

    lw = sub.add_parser("list-workloads", help="list synthetic suites")
    lw.set_defaults(func=cmd_list_workloads)

    t1 = sub.add_parser("table1", help="print the simulator matrix")
    t1.set_defaults(func=cmd_table1)

    diff = sub.add_parser(
        "diff", help="structurally compare two stats-JSON trees "
                     "(exit 0: equivalent, 1: divergent)")
    diff.add_argument("a", help="baseline stats JSON (side A)")
    diff.add_argument("b", help="candidate stats JSON (side B)")
    diff.add_argument("--tolerance", type=float, default=0.0,
                      metavar="REL",
                      help="relative tolerance for numeric leaves "
                           "(default 0: exact)")
    diff.add_argument("--ignore", action="append", default=[],
                      metavar="KEY",
                      help="prune this subtree key wherever it appears "
                           "(repeatable; e.g. --ignore host drops "
                           "host-side wall-clock stats)")
    diff.add_argument("--max-report", type=int, default=25,
                      metavar="N",
                      help="cap the number of mismatches printed")
    diff.set_defaults(func=cmd_diff)

    ver = sub.add_parser(
        "verify", help="certify a checkpoint chain: re-derive each "
                       "capsule's deep state digests and serially "
                       "replay sampled spans (exit 0 certified, 1 "
                       "tampered/corrupt)")
    ver.add_argument("path", help="checkpoint file, or directory of "
                                  "checkpoints (verified in interval "
                                  "order)")
    ver.add_argument("--replay", type=int, default=1, metavar="N",
                     help="serially re-execute the last N checkpoint-"
                          "to-checkpoint spans and compare fingerprint "
                          "chains (0 disables; default 1)")
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser(
        "report", help="render flight-recorder post-mortem capsules")
    rep.add_argument("capsule", nargs="+",
                     help="postmortem-*.json path(s), or directories "
                          "to scan for capsules; unreadable capsules "
                          "are skipped with a warning")
    rep.add_argument("--last-seconds", type=float, default=None,
                     metavar="S",
                     help="only show events from the final S seconds")
    rep.add_argument("--max-events", type=int, default=None, metavar="N",
                     help="only show the last N events")
    rep.set_defaults(func=cmd_report)

    top = sub.add_parser(
        "top", help="watch a running simulation via its --status-file")
    top.add_argument("status_file", help="path passed to --status-file")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh period (default 1s)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit")
    top.set_defaults(func=cmd_top)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro report ... | head` closing the pipe early is normal
        # use, not an error.  Detach stdout so the interpreter's
        # shutdown flush cannot raise again, and exit like a killed-
        # by-SIGPIPE process would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
