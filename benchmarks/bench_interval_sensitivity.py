"""Section 4.2: sensitivity to the interval length.

The paper reruns the Table 4 workloads with 1K/10K/100K-cycle intervals:
10K shows ~0.45% average error vs 1K and is ~42% faster; 100K shows
~1.1% error for little extra speed.  We sweep the same lengths on a
scaled chip and report error in simulated performance plus speedup.
"""

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.harness.performance import interval_sensitivity
from repro.stats.reporting import format_table
from repro.workloads import mt_workload

INTERVALS = (1_000, 10_000, 100_000)
WORKLOADS = ("blackscholes", "fluidanimate", "ocean", "fft")


def test_interval_length_sensitivity(benchmark):
    num_tiles = tiles(2)
    config = tiled_chip(num_tiles=num_tiles, core_model="simple",
                        cores_per_tile=4)
    workloads = [mt_workload(name, scale=1 / 64,
                             num_threads=config.num_cores)
                 for name in WORKLOADS]

    def run():
        return interval_sensitivity(config, workloads,
                                    target_instrs=instrs(40_000),
                                    intervals=INTERVALS,
                                    num_threads=config.num_cores)

    out = once(benchmark, run)
    rows = [[interval,
             "%.2f%%" % (100 * out[interval]["avg_abs_error"]),
             "%.2f%%" % (100 * out[interval]["max_abs_error"]),
             "%.2fx" % out[interval]["speedup"]]
            for interval in INTERVALS]
    emit("interval_sensitivity", format_table(
        ["interval (cycles)", "avg |perf err| vs 1K",
         "max |perf err|", "wall-clock speedup vs 1K"], rows,
        title="Interval length sensitivity (Section 4.2)"))

    # Paper shapes: 10K-cycle intervals cost little accuracy; going to
    # 100K "may introduce excessive error" (our runs span well under
    # 100K cycles, so the effect is amplified — see EXPERIMENTS.md).
    assert out[10_000]["avg_abs_error"] < 0.10
    assert out[100_000]["avg_abs_error"] > out[10_000]["avg_abs_error"]
    # Deviation from the paper: longer intervals do NOT speed Python up
    # (per-instruction interpretation dominates the per-interval engine
    # overheads the paper's 42% speedup comes from; larger weave batches
    # even cost a little).  Keep a loose sanity floor only — wall-clock
    # ratios are noisy under load.
    assert out[10_000]["speedup"] > 0.1
    assert out[100_000]["speedup"] > 0.1
