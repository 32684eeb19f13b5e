"""Ablation: L2 stride prefetcher (extension; see DESIGN.md).

STREAM-class traffic on real Westmeres rides on hardware prefetchers;
the reproduction substitutes line-stride accesses by default.  This
ablation shows the modeled prefetcher closing the same gap on streaming
SPEC-like workloads: L2 MPKIs collapse and IPC rises, while
pointer-chasing workloads are unaffected (no stable stride to train on).
"""

import dataclasses

from conftest import emit, instrs, once

from repro.config import westmere
from repro.core import ZSim
from repro.stats.reporting import format_table
from repro.workloads import spec_workload

STREAMING = ("libquantum", "lbm", "leslie3d")
CHASING = ("mcf", "omnetpp")


def run_one(name, degree):
    cfg = westmere(num_cores=1, core_model="ooo")
    cfg = dataclasses.replace(cfg, l2=dataclasses.replace(
        cfg.l2, prefetch_degree=degree))
    workload = spec_workload(name, scale=1 / 32)
    sim = ZSim(cfg, workload.make_threads(
        target_instrs=instrs(20_000)))
    res = sim.run()
    return res, sim


def test_ablation_stride_prefetcher(benchmark):
    def run():
        out = {}
        for name in STREAMING + CHASING:
            off, _ = run_one(name, 0)
            on, sim = run_one(name, 2)
            out[name] = {
                "ipc_off": off.ipc, "ipc_on": on.ipc,
                "l2_off": off.core_mpki("l2"),
                "l2_on": on.core_mpki("l2"),
                "fills": sum(l2.prefetch_fills
                             for l2 in sim.hierarchy.l2s),
            }
        return out

    out = once(benchmark, run)
    rows = [[name, "%.3f" % d["ipc_off"], "%.3f" % d["ipc_on"],
             "%.2f" % d["l2_off"], "%.2f" % d["l2_on"], d["fills"]]
            for name, d in out.items()]
    emit("ablation_prefetcher", format_table(
        ["app", "IPC off", "IPC on", "L2 MPKI off", "L2 MPKI on",
         "prefetch fills"], rows,
        title="Ablation: L2 stride prefetcher (degree 2)"))

    for name in STREAMING:
        assert out[name]["ipc_on"] > 1.2 * out[name]["ipc_off"]
        assert out[name]["l2_on"] < 0.5 * out[name]["l2_off"]
    for name in CHASING:
        # Pointer chasing has no trainable stride: little change.
        assert abs(out[name]["ipc_on"] - out[name]["ipc_off"]) \
            < 0.15 * out[name]["ipc_off"]
