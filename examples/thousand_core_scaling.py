#!/usr/bin/env python3
"""Scaling demo: simulate tiled chips of growing size (Table 3 systems).

Builds the paper's tiled architecture at several sizes, runs a
memory-intensive workload with one thread per core, and reports
simulation speed, weave-phase parallelism (domains), and modeled host
scalability — the machinery behind Figures 8 and 9.

The paper simulates 64/256/1024 cores on a 16-core Xeon; pure Python is
~3 orders of magnitude slower, so the default sizes here are 16/32/64
cores (pass a list of tile counts to go bigger).

Run:  python examples/thousand_core_scaling.py [tiles ...]
"""

import sys

from repro import ZSim, tiled_chip, mt_workload
from repro.stats.reporting import format_table


def run_size(num_tiles, cores_per_tile=8, target_instrs=60_000):
    config = tiled_chip(num_tiles=num_tiles, core_model="simple",
                        cores_per_tile=cores_per_tile)
    workload = mt_workload("ocean", scale=1 / 64,
                           num_threads=config.num_cores)
    threads = workload.make_threads(target_instrs=target_instrs,
                                    num_threads=config.num_cores)
    sim = ZSim(config, threads=threads)
    result = sim.run()
    return config, sim, result


def main():
    tile_counts = [int(a) for a in sys.argv[1:]] or [2, 4, 8]
    rows = []
    for tiles in tile_counts:
        config, sim, result = run_size(tiles)
        speedup16 = sim.host_model.speedup(16)
        rows.append([
            config.num_cores,
            len(sim.weave.domains),
            "%.3f" % result.mips,
            result.weave_stats.events,
            result.weave_stats.crossings,
            "%.1fx" % speedup16,
        ])
        print("simulated %d cores: %.3f MIPS, %d weave domains"
              % (config.num_cores, result.mips, len(sim.weave.domains)))
    print()
    print(format_table(
        ["cores", "domains", "sim MIPS", "weave events",
         "domain crossings", "modeled speedup @16 host threads"],
        rows, title="Tiled-chip scaling (Table 3 systems)"))


if __name__ == "__main__":
    main()
