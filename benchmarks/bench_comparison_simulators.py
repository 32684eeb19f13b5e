"""Section 4.2 "comparison with other simulators", reproduced in-repo.

The paper's claim is that bound-weave is orders of magnitude faster than
pessimistic PDES at comparable accuracy, and that skew-limited
simulators (Graphite) trade accuracy for speed.  All three engines here
share the same core/memory models, so the comparison isolates the
*parallelization technique*:

* zsim (bound-weave, 1000-cycle intervals, weave contention),
* conservative PDES (10-cycle global quanta, inline contention),
* Graphite-like (5000-cycle skew, M/D/1 contention, no weave).
"""

from conftest import emit, instrs, once

from repro.baselines import PDESSimulator, graphite_simulator
from repro.config import small_test_system
from repro.core import ZSim
from repro.stats.reporting import format_table
from repro.workloads import mt_workload


def make_threads(n):
    workload = mt_workload("fluidanimate", scale=1 / 64, num_threads=n)
    return workload.make_threads(target_instrs=instrs(40_000),
                                 num_threads=n)


def test_comparison_with_other_simulators(benchmark):
    cfg = small_test_system(num_cores=4, core_model="simple")

    def run():
        out = {}
        zsim = ZSim(cfg, make_threads(4))
        out["zsim (bound-weave)"] = zsim.run()
        pdes = PDESSimulator(cfg, make_threads(4), lookahead=10)
        out["PDES (10-cyc quanta)"] = pdes.run()
        graphite = graphite_simulator(cfg, make_threads(4))
        out["Graphite-like (skew+M/D/1)"] = graphite.run()
        return out

    out = once(benchmark, run)
    zsim_res = out["zsim (bound-weave)"]
    rows = []
    for name, res in out.items():
        syncs = getattr(res, "synchronizations", res.intervals)
        rows.append([name, "%.4f" % res.mips,
                     "%.1fx" % (res.mips / zsim_res.mips),
                     syncs, res.cycles,
                     "%+.1f%%" % (100 * (zsim_res.cycles - res.cycles)
                                  / res.cycles)])
    emit("comparison_simulators", format_table(
        ["engine", "MIPS", "speed vs zsim", "global syncs",
         "simulated cycles", "zsim timing diff"], rows,
        title="Parallelization-technique comparison (same models, "
              "same workload)"))

    pdes_res = out["PDES (10-cyc quanta)"]
    graphite_res = out["Graphite-like (skew+M/D/1)"]
    # The structural result behind the paper's orders-of-magnitude
    # claim: bound-weave needs far fewer global synchronizations than
    # conservative PDES.  (In C++ each sync costs a cross-core barrier,
    # so the sync ratio translates directly into wall-clock; in Python
    # interpretation dominates and the wall-clock gap compresses — see
    # EXPERIMENTS.md.)
    assert pdes_res.synchronizations > 10 * zsim_res.intervals
    # Wall-clock MIPS is noisy on a shared host; sanity floor only.
    assert zsim_res.mips > 0.8 * pdes_res.mips
    # zsim's timing stays close to the fully ordered PDES result...
    assert abs(zsim_res.cycles - pdes_res.cycles) < 0.25 * pdes_res.cycles
    # ...while the skew+queueing simulator is fast but disagrees more.
    assert graphite_res.mips > pdes_res.mips
