"""Execution backends: measured vs modeled speedup.

Runs the same multithreaded workload under each execution backend and
prints, side by side, the wall time the backend actually achieved
(measured makespan) and the speedup the host-parallelism model predicts
for the configured thread count.  On stock CPython the GIL keeps
measured speedups near 1x while the model predicts the algorithm's
parallelism — the gap IS the result; on free-threaded builds the two
columns converge.  Simulated results are asserted identical across
backends (the determinism contract of repro.exec).

Each backend is also run with the flight recorder disabled: the
``flight off`` / ``overhead`` columns pin the cost of the default-on
black box (one clock read + deque append per interval-grained event),
which must stay in the noise (<2%).
"""

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.core import ZSim
from repro.exec import BACKEND_NAMES
from repro.stats.diff import assert_equivalent
from repro.stats.reporting import format_table
from repro.workloads import mt_workload


def _run_backend(config, workload, target, backend, flight=None):
    sim = ZSim(config,
               threads=workload.make_threads(
                   target_instrs=target, num_threads=config.num_cores),
               contention_model="weave", backend=backend, flight=flight)
    result = sim.run()
    tree = result.stats().to_dict()
    tree.pop("host", None)
    return result, sim.host_model, tree, sim.backend.host_stats()


def test_backend_scaling(benchmark):
    config = tiled_chip(num_tiles=tiles(4), core_model="simple",
                        cores_per_tile=4)
    workload = mt_workload("ocean", scale=1 / 64,
                           num_threads=config.num_cores)
    target = instrs(120_000)
    host = config.boundweave.host_threads

    def run():
        rows = []
        baseline = None
        for backend in BACKEND_NAMES:
            result, model, tree, exec_stats = _run_backend(
                config, workload, target, backend)
            if baseline is None:
                baseline = tree
            assert_equivalent(
                tree, baseline,
                context="%s backend vs serial" % backend)
            # Same backend, recorder off: the delta is the flight
            # recorder's whole cost (ring appends + guard checks).
            # Best-of-two interleaved runs per mode, so host noise
            # (which dwarfs the real cost) largely cancels.
            result_off, _, tree_off, _ = _run_backend(
                config, workload, target, backend, flight=False)
            assert_equivalent(
                tree_off, baseline,
                context="%s backend without flight" % backend)
            result2, _, _, _ = _run_backend(
                config, workload, target, backend)
            result_off2, _, _, _ = _run_backend(
                config, workload, target, backend, flight=False)
            wall_on = min(result.wall_seconds, result2.wall_seconds)
            wall_off = min(result_off.wall_seconds,
                           result_off2.wall_seconds)
            overhead = (wall_on - wall_off) / wall_off
            modeled = (model.pipelined_speedup(host)
                       if backend == "pipelined" else model.speedup(host))
            if backend == "process":
                # Speculation efficiency: committed worker runs vs
                # driver-side fallbacks.  On a multi-core host the
                # measured column exceeds 1x (workers dodge the GIL);
                # on a single-CPU host it honestly reports the
                # validation overhead instead.
                note = "%d commits / %d rejects / %d inline (pool %s)" % (
                    exec_stats.get("spec_commits", 0),
                    exec_stats.get("spec_rejects", 0),
                    exec_stats.get("inline_runs", 0),
                    exec_stats.get("pool_size", "?"))
            else:
                note = "-"
            rows.append([backend,
                         "%.3f" % wall_on,
                         "%.3f" % wall_off,
                         "%+.1f%%" % (100 * overhead),
                         "%.2fx" % model.measured_speedup(),
                         "%.2fx" % modeled,
                         "%d" % result.instrs,
                         note])
        return rows

    rows = once(benchmark, run)
    emit("backend_scaling", format_table(
        ["backend", "wall s", "flight off", "overhead",
         "measured", "modeled x%d" % host, "instrs", "speculation"],
        rows,
        title="Execution backends (%d cores, measured vs modeled, "
              "flight-recorder overhead)" % config.num_cores))
