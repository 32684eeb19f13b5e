"""Ablation: weave-phase domain count.

Domains are the weave phase's unit of parallelism: more domains spread
events over more queues (better modeled host scaling) at the cost of
more domain crossings.  This sweep quantifies that trade-off on a fixed
8-tile chip.
"""

import dataclasses

from conftest import emit, instrs, once

from repro.config import tiled_chip
from repro.core import ZSim
from repro.stats.reporting import format_table
from repro.workloads import mt_workload

DOMAIN_COUNTS = (1, 2, 4, 8)


def run_once(num_domains):
    cfg = tiled_chip(num_tiles=8, core_model="simple", cores_per_tile=2)
    cfg = dataclasses.replace(cfg, boundweave=dataclasses.replace(
        cfg.boundweave, num_domains=num_domains))
    workload = mt_workload("swim_m", scale=1 / 64,
                           num_threads=cfg.num_cores)
    sim = ZSim(cfg, workload.make_threads(
        target_instrs=instrs(40_000), num_threads=cfg.num_cores))
    result = sim.run()
    return sim, result


def test_ablation_domain_count(benchmark):
    def run():
        out = {}
        for n in DOMAIN_COUNTS:
            sim, result = run_once(n)
            out[n] = {
                "domains": len(sim.weave.domains),
                "crossings": result.weave_stats.crossings,
                "cycles": result.cycles,
                "weave_speedup16": sim.host_model.speedup(16),
            }
        return out

    out = once(benchmark, run)
    rows = [[n, out[n]["domains"], out[n]["crossings"],
             out[n]["cycles"], "%.1fx" % out[n]["weave_speedup16"]]
            for n in DOMAIN_COUNTS]
    emit("ablation_domains", format_table(
        ["requested", "domains", "crossings", "simulated cycles",
         "modeled speedup @16"], rows,
        title="Ablation: weave domain count (8-tile chip, swim_m)"))

    # Timing is (nearly) domain-partition independent: partitions only
    # reorder same-cycle event ties, so results agree within a fraction
    # of a percent; crossings grow with domains.
    cycles = [out[n]["cycles"] for n in DOMAIN_COUNTS]
    assert max(cycles) - min(cycles) < 0.02 * min(cycles)
    assert out[1]["crossings"] == 0
    assert out[8]["crossings"] > out[2]["crossings"] > 0
    # More domains -> at least as much modeled parallelism.
    assert out[8]["weave_speedup16"] >= out[1]["weave_speedup16"] - 0.2
