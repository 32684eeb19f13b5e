"""Ablation: domain-crossing dependency optimizations (Section 3.2.2).

The weave phase inserts dependencies on crossing events (response
crossings depend on the event generating the request; same-domain
crossings from one core are serialized) "to avoid premature
synchronization between domains".  Disabling the optimization makes
crossings poll eagerly: every requeue is a synchronization the optimized
engine avoids.
"""

import dataclasses

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.core import ZSim
from repro.stats.reporting import format_table
from repro.workloads import mt_workload


def run_once(crossing_deps, num_tiles):
    cfg = tiled_chip(num_tiles=num_tiles, core_model="simple",
                     cores_per_tile=4)
    cfg = dataclasses.replace(cfg, boundweave=dataclasses.replace(
        cfg.boundweave, crossing_dependencies=crossing_deps))
    workload = mt_workload("ocean", scale=1 / 64,
                           num_threads=cfg.num_cores)
    sim = ZSim(cfg, workload.make_threads(
        target_instrs=instrs(40_000), num_threads=cfg.num_cores))
    result = sim.run()
    return result


def test_ablation_crossing_dependencies(benchmark):
    num_tiles = tiles(4)

    def run():
        return run_once(True, num_tiles), run_once(False, num_tiles)

    optimized, eager = once(benchmark, run)
    rows = [
        ["optimized", optimized.weave_stats.crossings,
         optimized.weave_stats.crossing_requeues, optimized.cycles],
        ["eager (ablated)", eager.weave_stats.crossings,
         eager.weave_stats.crossing_requeues, eager.cycles],
    ]
    emit("ablation_crossings", format_table(
        ["crossing deps", "crossings", "premature requeues",
         "simulated cycles"], rows,
        title="Ablation: domain-crossing dependency optimization "
              "(%d domains)" % num_tiles))

    # The optimization is about engine overhead, not timing: simulated
    # results are identical, but the eager variant pays premature
    # synchronizations (requeues) the optimized engine avoids entirely.
    assert eager.cycles == optimized.cycles
    assert optimized.weave_stats.crossing_requeues == 0
    assert eager.weave_stats.crossing_requeues > 0
    assert optimized.weave_stats.crossings > 0
