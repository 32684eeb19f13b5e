#!/usr/bin/env python3
"""The repo's performance benchmark: seven pinned workloads, end-to-end
metrics with regression bounds, per-layer attribution from outside.

    python3 benchmarks/perf/run.py                    # full report
    python3 benchmarks/perf/run.py --workload mcf_1c --reps 3
    python3 benchmarks/perf/run.py --workload mcf_1c --seed 4 \\
        --seconds 10 --trace 0                        # how the driver runs it

Closed loop, one client: this process launches one fresh worker
process per run (``worker.py``, ``PYTHONHASHSEED=0``) and never two at
once.  Workloads are interleaved round-robin so host drift spreads
evenly.  ``--trace 0`` measures the end-to-end metrics on untraced
runs; ``--trace 1`` makes one traced run per workload plus the
direct-call pass and gives the per-layer metrics; with neither, both
happen, plus the slow whole-run ratios (``offline`` in spec.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with one ``--workload`` the
metrics are flat, with several they are grouped by workload.
README.md explains every workload and metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: A worker that has not finished by then is killed and counted failed.
WORKER_TIMEOUT_S = 170
#: A workload stops taking reps after this many failed runs.
MAX_FAILURES = 2
#: Cores of the offline ``--scale-curve`` points.
SCALE_CURVE_CORES = (16, 64, 256, 1024)


class Launcher:
    """Runs workers one at a time and refuses to start a second while
    one is alive: the sandbox has two cores, and a concurrent worker
    would be measured as a slowdown."""

    def __init__(self):
        self._alive = None
        self.launched = 0

    def run(self, job, timeout=WORKER_TIMEOUT_S):
        """Run one worker to completion; returns its facts dict, or
        ``{"error": text}`` when it raised, timed out or printed no
        result."""
        if self._alive is not None:
            raise RuntimeError("a worker (pid %d) is still alive; the "
                               "benchmark runs one at a time"
                               % self._alive.pid)
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(ROOT))
        self._alive = proc
        self.launched += 1
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": "timed out after %d s" % timeout}
        finally:
            # Whatever happened, no worker outlives this call.
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            self._alive = None
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            return {"error": "worker exited %d: %s"
                             % (proc.returncode, tail[0])}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": "worker printed no result"}


def judge(facts):
    """Why a run counts as failed (empty list = it passed).  A run
    fails if it raised, left a thread unfinished, retired fewer
    instructions than asked, broke an end-state invariant, or has an
    IPC outside (0, issue width x cores]."""
    if "error" in facts:
        return [facts["error"]]
    if facts["mode"] == "accuracy":
        return ([] if min(facts["ipc_zsim"], facts["ipc_ref"]) > 0
                else ["companion run has IPC 0"])
    reasons = []
    if facts["unfinished"]:
        reasons.append("%d thread(s) unfinished" % len(facts["unfinished"]))
    if facts["instrs"] < facts["asked"]:
        reasons.append("retired %d of %d instrs"
                       % (facts["instrs"], facts["asked"]))
    if facts["violations"]:
        reasons.append("invariant: %s" % facts["violations"][0])
    if not 0 < facts["ipc"] <= facts["max_ipc"]:
        reasons.append("ipc %.3f outside (0, %d]"
                       % (facts["ipc"], facts["max_ipc"]))
    return reasons


def judge_digests(runs):
    """Add a failure to every passing run whose stats digest differs
    from the first passing run's: reps of one workload and seed must
    simulate the same thing, traced or not."""
    reference = None
    for run in runs:
        if run["reasons"] or "digest" not in run["facts"]:
            continue
        if reference is None:
            reference = run["facts"]["digest"]
        elif run["facts"]["digest"] != reference:
            run["reasons"].append("stats digest differs from the first "
                                  "rep's")


def summarise(values):
    """Median, min, max and n of a sample (no tail percentile: there
    are not ten samples beyond any)."""
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values),
            "samples": list(values)}


class WorkloadRuns:
    """Every run made for one workload, and what they add up to."""

    def __init__(self, workload):
        self.workload = workload
        self.runs = []       # {"mode", "facts", "reasons"}

    def add(self, mode, facts):
        run = {"mode": mode, "facts": facts, "reasons": judge(facts)}
        self.runs.append(run)
        judge_digests([r for r in self.runs if r["mode"] != "accuracy"])
        return run

    def passed(self, mode):
        return [r["facts"] for r in self.runs
                if r["mode"] == mode and not r["reasons"]]

    @property
    def attempted(self):
        return len(self.runs)

    @property
    def failed(self):
        return sum(1 for r in self.runs if r["reasons"])

    def measured_seconds(self):
        return sum(f["wall_s"] for f in self.passed("timed"))

    def end_to_end(self):
        """``{metric: summary}`` over the passing untraced reps, plus
        the accuracy companion's single figure."""
        out = {}
        timed = self.passed("timed")
        if timed:
            for name in ("wall_s", "mips", "setup_s", "peak_rss_mb"):
                out[name] = summarise([f[name] for f in timed])
        for facts in self.passed("accuracy"):
            out["ipc_agreement_pct"] = summarise(
                [100.0 - facts["ipc_err_pct"]])
            out["ipc_err_pct"] = summarise([facts["ipc_err_pct"]])
        return out

    def traced_layers(self):
        """Per-layer figures of the traced run (empty if it failed)."""
        traced = self.passed("traced")
        timed = self.passed("timed")
        if not traced or not timed:
            return {}
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_ratio"] = (
            traced[0]["wall_s"]
            / statistics.median(f["wall_s"] for f in timed))
        return layers

    def digest(self):
        for facts in self.passed("timed") + self.passed("traced"):
            return facts["digest"]
        return None


# ---------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------


def job_for(workload, mode, args):
    return {"mode": mode, "workload": dataclasses.asdict(workload),
            "seed": args.seed, "scale": args.scale}


def run_one(launcher, suite, mode, args):
    """Launch one run of ``suite``'s workload and record it."""
    run = suite.add(mode, launcher.run(job_for(suite.workload, mode, args)))
    note("  %-26s %s" % (suite.workload.name, describe(run)))


def timed_pass(launcher, suites, args, reps_wanted):
    """Untraced reps, round-robin over the workloads.  With
    ``reps_wanted`` None a workload takes reps until it has measured
    ``--seconds`` of simulation (at least two, so digests can be
    compared)."""
    pending = list(suites)
    while pending:
        for suite in list(pending):
            run_one(launcher, suite, "timed", args)
            reps = sum(1 for r in suite.runs if r["mode"] == "timed")
            if reps_wanted is not None:
                done = reps >= reps_wanted
            else:
                done = (reps >= 2
                        and suite.measured_seconds() >= args.seconds)
            if done or suite.failed >= MAX_FAILURES:
                pending.remove(suite)


def one_run_each(launcher, suites, args, mode):
    """One ``mode`` run (accuracy companion or traced run) per workload."""
    for suite in suites:
        run_one(launcher, suite, mode, args)


def layers_pass(launcher, args, offline):
    """The direct-call pass; returns ``(figures, failure reasons)``."""
    facts = launcher.run({"mode": "layers", "seed": args.seed,
                          "scale": args.scale, "offline": offline},
                         timeout=WORKER_TIMEOUT_S * (3 if offline else 1))
    if "error" in facts:
        return {}, [facts["error"]]
    sources = ("direct", "offline") if offline else ("direct",)
    missing = [name for name in spec.layer_names(*sources)
               if name not in facts["layers"]]
    return facts["layers"], ["no figure for %s" % n for n in missing]


def describe(run):
    facts = run["facts"]
    if run["reasons"]:
        return "FAILED: " + "; ".join(run["reasons"])
    if run["mode"] == "accuracy":
        return "accuracy  ipc_err_pct %.3f" % facts["ipc_err_pct"]
    return ("%-7s wall %.3f s  set-up %.3f s  %.4f Minstr/s"
            % (run["mode"], facts["wall_s"], facts["setup_s"],
               facts["mips"]))


def note(text):
    """Progress goes to stderr; stdout is the report."""
    print(text, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------


def metric_line(name, value, extra=""):
    return "  %-36s %14.6g %-9s %s" % (name, value, spec.UNITS[name], extra)


def layer_line(name, value):
    """A per-layer figure with what it was expected to move, written
    down in spec.py before measuring."""
    return metric_line(name, value, "-> %s: %s" % spec.MOVES[name])


def spread_text(summary):
    return ("[min %.6g .. max %.6g] n=%d"
            % (summary["min"], summary["max"], summary["n"]))


def layer_table(layers, traced_wall):
    """Self seconds and share of the traced wall, per layer."""
    rows = [("core (driver: barrier, limits, taxes)", "core.driver_s"),
            ("core (weave phase)", "core.weave_s"),
            ("cpu (+ dbt, isa, virt inside the bound pass)", "cpu.self_s"),
            ("memory (hierarchy.access)", "memory.access_s"),
            ("workloads (functional stream)", "workloads.stream_s")]
    lines = []
    total = 0.0
    for label, metric in rows:
        seconds = layers[metric]
        total += seconds
        lines.append("    %-46s %8.3f s  %5.1f%%"
                     % (label, seconds, 100.0 * seconds / traced_wall))
    lines.append("    %-46s %8.3f s  %5.1f%% of the traced wall (%.3f s)"
                 % ("attributed", total, 100.0 * total / traced_wall,
                    traced_wall))
    return lines


def print_report(suites, direct, args, trace):
    print("perf benchmark: seed %d, scale %g, closed loop (one worker "
          "process at a time, fresh process per run)"
          % (args.seed, args.scale))
    print("modelled caches start empty in every run; times are host "
          "time unless marked (sim)")
    if trace in (None, 0):
        print("\n== end to end: median [min .. max] n - a handful of "
              "samples carries no tail percentile ==")
        for metric in spec.END_TO_END:
            print("  %s (%s, %s is better, bound %.0f%%): %s"
                  % (metric["name"], metric["unit"], metric["better"],
                     100 * metric["bound"], metric["what"]))
        for suite in suites:
            print(suite.workload.name)
            e2e = suite.end_to_end()
            for metric in spec.END_TO_END:
                summary = e2e.get(metric["name"])
                if summary is None:
                    print("  %-36s %14s" % (metric["name"], "missing"))
                    continue
                extra = spread_text(summary)
                if metric["name"] == "ipc_agreement_pct":
                    extra = ("(sim) ipc_err_pct %.4f %% against the "
                             "in-repo reference model, not hardware"
                             % e2e["ipc_err_pct"]["median"])
                print(metric_line(metric["name"], summary["median"],
                                  extra))
            print("  %-36s %14s" % ("run_fail_share", "%d/%d"
                                    % (suite.failed, suite.attempted)))
            print("  %-36s %s" % ("digest (sim, information only)",
                                  suite.digest()))
    if trace in (None, 1):
        print("\n== per layer, traced run (one per workload; spans "
              "under benchmarks/perf/out/) ==")
        for suite in suites:
            print(suite.workload.name)
            layers = suite.traced_layers()
            for name in spec.layer_names("traced"):
                if name in layers:
                    print(layer_line(name, layers[name]))
                else:
                    print("  %-36s %14s" % (name, "missing"))
            if layers:
                traced = suite.passed("traced")[0]
                print("  which layer ate the time (self seconds):")
                for line in layer_table(layers, traced["wall_s"]):
                    print(line)
                print("  trace file: benchmarks/perf/%s (%d spans)"
                      % (traced["trace_file"], traced["spans"]))
        print("\n== per layer, direct calls (per operation, best of 3; "
              "the same for every workload) ==")
        for name in spec.layer_names("direct", "offline"):
            if name in direct:
                print(layer_line(name, direct[name]))


def result_metrics(suite, direct, trace):
    """The contract's ``metrics`` object for one workload."""
    metrics = {}
    if trace in (None, 0):
        e2e = suite.end_to_end()
        for metric in spec.END_TO_END:
            if metric["name"] in e2e:
                metrics[metric["name"]] = {
                    "value": e2e[metric["name"]]["median"],
                    "unit": metric["unit"]}
    if trace in (None, 1):
        layers = dict(direct)
        layers.update(suite.traced_layers())
        for name in spec.layer_names("traced", "direct"):
            if name in layers:
                metrics[name] = {"value": layers[name],
                                 "unit": spec.UNITS[name]}
    return metrics


def results_document(suites, direct, args, elapsed):
    """What ``--json`` writes and ``compare.py`` reads."""
    workloads = {}
    for suite in suites:
        untraced = (suite.passed("timed") or [{}])[0]
        traced = (suite.passed("traced") or [{}])[0]
        workloads[suite.workload.name] = {
            "end_to_end": suite.end_to_end(),
            "attempted": suite.attempted,
            "failed": suite.failed,
            "failures": [r["reasons"] for r in suite.runs if r["reasons"]],
            "digest": suite.digest(),
            "cycles": {"untraced": untraced.get("cycles"),
                       "traced": traced.get("cycles")},
            "counters": untraced.get("counters", traced.get("counters")),
            "per_layer": suite.traced_layers(),
            "traced_wall_s": traced.get("wall_s"),
        }
    return {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "elapsed_s": elapsed,
        "workloads": workloads,
        "direct": direct,
        # This benchmark measures; it claims no gain.
        "claim": None,
    }


# ---------------------------------------------------------------------
# Offline modes
# ---------------------------------------------------------------------


def scale_curve(launcher, args):
    """16 -> 1024 tiled cores at 1,000 instrs/thread, one run each."""
    points = []
    for cores in SCALE_CURVE_CORES:
        workload = spec.Workload(
            "tiled_%dc" % cores, "scale-curve point",
            ("tiled", cores // 16), "blackscholes", cores, 1000 * cores)
        facts = launcher.run(job_for(workload, "timed", args), timeout=600)
        reasons = judge(facts)
        if reasons:
            note("  %d cores FAILED: %s" % (cores, "; ".join(reasons)))
            return 1
        point = {
            "cores": cores, "instrs": facts["instrs"],
            "intervals": facts["intervals"], "wall_s": facts["wall_s"],
            "mips": facts["mips"],
            "core.us_per_core_interval":
                facts["wall_s"] * 1e6 / (cores * facts["intervals"]),
            "setup_s": facts["setup_s"],
            "peak_rss_mb": facts["peak_rss_mb"],
            "digest": facts["digest"],
        }
        points.append(point)
        print("%5d cores  %8.4f Minstr/s  %8.2f us/core-interval  "
              "set-up %6.2f s  %7.1f MB"
              % (cores, point["mips"], point["core.us_per_core_interval"],
                 point["setup_s"], point["peak_rss_mb"]))
    path = HERE / "results" / "scale_curve.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"seed": args.seed, "instrs_per_thread": 1000,
         "host": {"python": platform.python_version(),
                  "cpus": os.cpu_count()},
         "points": points}, indent=2) + "\n")
    print("wrote %s" % path.relative_to(ROOT))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=sorted(spec.BY_NAME),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=spec.RUN_SECONDS,
                        help="simulation seconds to measure per workload "
                             "(default %(default)s)")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced reps per workload, instead of "
                             "--seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="also write every sample to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, 1 rep: checks the plumbing, "
                             "measures nothing")
    parser.add_argument("--scale-curve", action="store_true",
                        help="offline: 16..1024 tiled cores, one run "
                             "each, into results/scale_curve.json")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    args.scale = spec.SMOKE_SCALE if args.smoke else 1.0
    if args.smoke and args.reps is None:
        args.reps = 1
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        # No simulator to measure: say so instead of reporting failed
        # runs as a result.
        print("run.py: %s has no src/repro" % ROOT, file=sys.stderr)
        return 2
    started = time.perf_counter()
    launcher = Launcher()
    if args.scale_curve:
        return scale_curve(launcher, args)

    trace = args.trace
    names = args.workload or [w.name for w in spec.WORKLOADS]
    suites = [WorkloadRuns(spec.BY_NAME[name]) for name in names]
    direct, direct_failures = {}, []
    if trace in (None, 0):
        note("untraced reps:")
        timed_pass(launcher, suites, args, args.reps)
        one_run_each(launcher, suites, args, "accuracy")
    else:
        # The traced run is compared with one untraced rep.
        note("untraced rep:")
        timed_pass(launcher, suites, args, 1)
    if trace in (None, 1):
        note("traced runs:")
        one_run_each(launcher, suites, args, "traced")
        note("direct-call pass:")
        direct, direct_failures = layers_pass(launcher, args,
                                              offline=trace is None)
    elapsed = time.perf_counter() - started

    print_report(suites, direct, args, trace)
    attempted = sum(s.attempted for s in suites)
    failed = sum(s.failed for s in suites)
    if trace in (None, 1):
        attempted += 1
        failed += bool(direct_failures)
    for suite in suites:
        for run in suite.runs:
            if run["reasons"]:
                print("FAILED %s %s: %s" % (suite.workload.name,
                                            run["mode"],
                                            "; ".join(run["reasons"])))
    for reason in direct_failures:
        print("FAILED direct-call pass: %s" % reason)
    print("\nrun_fail_share %d/%d; %d worker processes, one at a time; "
          "total elapsed %.1f s"
          % (failed, attempted, launcher.launched, elapsed))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results_document(suites, direct, args, elapsed),
                      handle, indent=1)
            handle.write("\n")
    if len(suites) == 1:
        metrics = result_metrics(suites[0], direct, trace)
    else:
        metrics = {s.workload.name: result_metrics(s, direct, trace)
                   for s in suites}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
