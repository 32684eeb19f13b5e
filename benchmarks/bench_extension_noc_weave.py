"""Extension: weave-phase NoC model (the paper's stated future work).

Section 3.2.2 leaves weave NoC models to future work, arguing zero-load
latencies capture most NoC impact for real workloads on well-provisioned
networks.  This benchmark implements-and-checks that claim: with the
link-contention model enabled, link stalls exist but shift end-to-end
results only modestly on a provisioned mesh — and the model is there for
under-provisioned ones.
"""

import dataclasses

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.core import ZSim
from repro.stats.reporting import format_table
from repro.workloads import mt_workload


def run_one(noc_weave, num_tiles, link_occupancy=2):
    cfg = tiled_chip(num_tiles=num_tiles, core_model="simple",
                     cores_per_tile=4)
    cfg = dataclasses.replace(cfg, network=dataclasses.replace(
        cfg.network, weave_model=noc_weave,
        link_occupancy=link_occupancy))
    workload = mt_workload("canneal", scale=1 / 64,
                           num_threads=cfg.num_cores)
    sim = ZSim(cfg, workload.make_threads(
        target_instrs=instrs(40_000), num_threads=cfg.num_cores))
    result = sim.run()
    return result, sim


def test_extension_weave_noc_model(benchmark):
    num_tiles = tiles(4)

    def run():
        base, _ = run_one(False, num_tiles)
        provisioned, sim_p = run_one(True, num_tiles)
        congested, sim_c = run_one(True, num_tiles, link_occupancy=16)
        return {
            "off": (base.cycles, 0, 0),
            "on (2-cyc links)": (
                provisioned.cycles,
                sim_p.hierarchy.noc_fabric.link_stall_cycles,
                sum(c.events_executed
                    for c in sim_p.hierarchy.weave_components
                    if c.name.startswith("noc"))),
            "on (16-cyc links)": (
                congested.cycles,
                sim_c.hierarchy.noc_fabric.link_stall_cycles,
                sum(c.events_executed
                    for c in sim_c.hierarchy.weave_components
                    if c.name.startswith("noc"))),
        }

    out = once(benchmark, run)
    rows = [[name, cycles, stalls, events]
            for name, (cycles, stalls, events) in out.items()]
    emit("extension_noc_weave", format_table(
        ["NoC weave model", "simulated cycles", "link stall cycles",
         "NoC events"], rows,
        title="Extension: weave-phase NoC link contention "
              "(canneal, %d tiles)" % num_tiles))

    base_cycles = out["off"][0]
    prov_cycles, prov_stalls, prov_events = out["on (2-cyc links)"]
    cong_cycles, cong_stalls, _ = out["on (16-cyc links)"]
    assert prov_events > 0
    # The paper's claim: on a provisioned NoC, contention barely moves
    # end-to-end results (zero-load latencies suffice)...
    assert abs(prov_cycles - base_cycles) < 0.10 * base_cycles
    # ...but an under-provisioned network shows real degradation.
    assert cong_stalls > 5 * max(prov_stalls, 1)
    assert cong_cycles > prov_cycles
