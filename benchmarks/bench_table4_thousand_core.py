"""Table 4: simulation speed on the large tiled chip.

The paper simulates 1024 cores (64 tiles) on a 16-core host; the
pure-Python default here is a 16-core chip (4 tiles x 4 cores, grow via
REPRO_BENCH_TILES) running the same 13 workloads with one thread per
core.  Reported per model set (IPC1/OOO x contention on/off):
simulated MIPS and slowdown vs "native" (functional-only) execution.
"""

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.harness.performance import MODEL_SETS, table4
from repro.stats.reporting import format_table
from repro.workloads import TABLE4_WORKLOADS, mt_workload


def test_table4_simulation_speed(benchmark):
    num_tiles = tiles(4)
    config = tiled_chip(num_tiles=num_tiles, core_model="ooo",
                        cores_per_tile=4)
    workloads = [mt_workload(name, scale=1 / 64,
                             num_threads=config.num_cores)
                 for name in TABLE4_WORKLOADS]

    def run():
        return table4(config, workloads,
                      target_instrs=instrs(30_000),
                      num_threads=config.num_cores)

    table, summary = once(benchmark, run)
    labels = [label for label, _c, _m in MODEL_SETS]
    rows = []
    for name in TABLE4_WORKLOADS:
        cells = [name]
        for label in labels:
            entry = table[name][label]
            cells.append("%.3f/%.0fx" % (entry["mips"],
                                         entry["slowdown"]))
        rows.append(cells)
    rows.append(["hmean"] + ["%.3f/%.0fx"
                             % (summary[label]["hmean_mips"],
                                summary[label]["hmean_slowdown"])
                             for label in labels])
    emit("table4_thousand_core", format_table(
        ["workload"] + ["%s MIPS/slowdown" % l for l in labels], rows,
        title="Table 4: %d-core chip simulation speed "
              "(paper: 1024 cores)" % config.num_cores))

    # Model-set ordering (the paper's headline shape): the simplest
    # models simulate fastest, detail and contention cost speed.
    h = {label: summary[label]["hmean_mips"] for label in labels}
    assert h["IPC1-NC"] > h["IPC1-C"]
    assert h["IPC1-NC"] > h["OOO-C"]
    assert h["OOO-NC"] > h["OOO-C"]
    # Memory-intensive workloads simulate slower than compute-bound
    # ones under contention models (swim/stream vs blackscholes).
    assert table["blackscholes"]["IPC1-C"]["mips"] > \
        table["swim_m"]["IPC1-C"]["mips"]
