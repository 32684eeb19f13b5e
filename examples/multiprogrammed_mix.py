#!/usr/bin/env python3
"""Multiprogrammed interference study (zsim's multiprocess support).

Runs four different SPEC-like benchmarks together on one chip — each as
its own process pinned to its own core, sharing the L3 and the memory
controllers — and reports each app's slowdown versus running alone:
the classic consolidation/interference experiment zsim's multiprocess
support enables (Section 3.3).

Run:  python examples/multiprogrammed_mix.py
"""

from repro.config import westmere
from repro.stats.reporting import format_table
from repro.workloads import spec_workload
from repro.workloads.multiprogrammed import (
    MultiprogrammedMix,
    interference_study,
)

MIX = ("mcf", "libquantum", "namd", "povray")


def main():
    config = westmere(num_cores=4, core_model="ooo")
    workloads = [spec_workload(name, scale=1 / 32) for name in MIX]
    mix = MultiprogrammedMix(workloads)
    assert mix.footprint_span(), "address slices must not overlap"
    print("running mix %s on a %d-core chip..."
          % (mix.name, config.num_cores))

    results = interference_study(config, workloads,
                                 target_instrs=40_000)
    rows = [[name,
             results[name]["solo_cycles"],
             results[name]["mix_cycles"],
             "%.2fx" % results[name]["slowdown"]]
            for name in MIX]
    print()
    print(format_table(
        ["app", "solo cycles", "mix cycles", "slowdown"], rows,
        title="Per-app interference: mix vs solo (shared L3 + DRAM)"))
    print()
    worst = max(MIX, key=lambda n: results[n]["slowdown"])
    best = min(MIX, key=lambda n: results[n]["slowdown"])
    print("memory-bound apps suffer most from consolidation: "
          "%s (%.2fx) vs %s (%.2fx)"
          % (worst, results[worst]["slowdown"],
             best, results[best]["slowdown"]))


if __name__ == "__main__":
    main()
