"""Extension: multiprogrammed interference study (zsim's multiprocess
support put to work).

Four different SPEC-like apps run together, one process per core,
sharing a deliberately small L3 and one memory controller.  The classic
consolidation result: cache- and bandwidth-hungry apps slow each other
down, compute-bound apps barely notice.
"""

import dataclasses

from conftest import emit, instrs, once

from repro.config import westmere
from repro.stats.reporting import format_table
from repro.workloads import spec_workload
from repro.workloads.multiprogrammed import interference_study

MIX = ("lbm", "libquantum", "namd", "povray")


def test_extension_multiprogrammed_interference(benchmark):
    config = westmere(num_cores=4, core_model="ooo")
    # Shrink the L3 so the mix actually contends for it.
    config = dataclasses.replace(config, l3=dataclasses.replace(
        config.l3, size_kb=512, banks=4))

    def run():
        workloads = [spec_workload(name, scale=1 / 32) for name in MIX]
        return interference_study(config, workloads,
                                  target_instrs=instrs(25_000))

    results = once(benchmark, run)
    rows = [[name, results[name]["solo_cycles"],
             results[name]["mix_cycles"],
             "%.2fx" % results[name]["slowdown"]] for name in MIX]
    emit("extension_multiprogrammed", format_table(
        ["app", "solo cycles", "mix cycles", "slowdown"], rows,
        title="Extension: multiprogrammed mix vs solo "
              "(512KB shared L3)"))

    # Nobody speeds up from sharing; the streaming/bandwidth-bound apps
    # suffer more than the compute-bound ones.
    for name in MIX:
        assert results[name]["slowdown"] >= 0.98
    memory_bound = max(results["lbm"]["slowdown"],
                       results["libquantum"]["slowdown"])
    compute_bound = min(results["namd"]["slowdown"],
                        results["povray"]["slowdown"])
    assert memory_bound > compute_bound
