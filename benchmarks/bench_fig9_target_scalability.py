"""Figure 9: simulation speed vs simulated chip size.

The paper sweeps 64/256/1024-core tiled chips; the Python default maps
that to 8/16/32 cores (2/4/8 tiles).  Reported: hmean MIPS per model
set.  Expected shapes: performance does not collapse with size (unlike
conventional simulators), and contention models gain weave-phase
parallelism with more domains.
"""

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.harness.performance import MODEL_SETS, target_scalability
from repro.stats.reporting import format_table
from repro.workloads import mt_workload

SIZES = (2, 4, 8)  # tiles; x4 cores each
WORKLOADS = ("blackscholes", "ocean", "canneal")


def test_fig9_target_scalability(benchmark):
    def config_factory(num_tiles):
        return tiled_chip(num_tiles=tiles(num_tiles),
                          core_model="ooo", cores_per_tile=4)

    def workloads_factory(num_tiles):
        cores = tiles(num_tiles) * 4
        return [mt_workload(name, scale=1 / 64, num_threads=cores)
                for name in WORKLOADS]

    def run():
        return target_scalability(config_factory, SIZES,
                                  workloads_factory,
                                  target_instrs=instrs(25_000))

    curves = once(benchmark, run)
    labels = [label for label, _c, _m in MODEL_SETS]
    rows = [[tiles(size) * 4]
            + ["%.3f" % dict(curves[label])[size] for label in labels]
            for size in SIZES]
    emit("fig9_target_scalability", format_table(
        ["cores"] + labels, rows,
        title="Figure 9: hmean simulation MIPS vs simulated cores"))

    for label in labels:
        mips = [dict(curves[label])[s] for s in SIZES]
        # Aggregate speed stays within an order of magnitude across a
        # 4x size sweep (no per-core collapse).
        assert max(mips) < 12 * min(mips)
