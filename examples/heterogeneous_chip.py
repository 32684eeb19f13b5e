#!/usr/bin/env python3
"""Heterogeneous chip demo (Section 3.4).

"We support multiple core types running at the same time... For
instance, we can model a multi-core chip with a few large OOO cores with
private L1s and L2 plus a larger set of simple, Atom-like cores with
small L1 caches, all connected to a shared L3 cache."

This example builds exactly that: 2 big OOO cores + 6 simple cores on
one chip, runs the same per-thread work on each, and shows the big
cores retiring it faster.

Run:  python examples/heterogeneous_chip.py
"""

import dataclasses

from repro import ZSim, mt_workload, westmere
from repro.config import CoreConfig
from repro.stats.reporting import format_table

NUM_BIG = 2
NUM_LITTLE = 6


def main():
    total = NUM_BIG + NUM_LITTLE
    config = westmere(num_cores=total, core_model="simple")
    big = CoreConfig(model="ooo", freq_mhz=config.core.freq_mhz)
    config = dataclasses.replace(
        config, hetero_cores={i: big for i in range(NUM_BIG)})

    workload = mt_workload("water", scale=1 / 32, num_threads=total)
    # Strip synchronization: barriers would lockstep the big cores to
    # the little ones and hide the per-core speed difference.
    workload.spec = dataclasses.replace(workload.spec, barrier_iters=0,
                                        lock_iters=0)
    threads = workload.make_threads(target_instrs=40_000 * total,
                                    num_threads=total)
    # Pin one thread per core so the comparison is direct.
    for core_id, thread in enumerate(threads):
        thread.affinity = {core_id}

    sim = ZSim(config, threads=threads)
    result = sim.run()

    rows = []
    for core in sim.cores:
        kind = "OOO (big)" if core.core_id < NUM_BIG else "simple"
        rows.append([core.core_id, kind, core.instrs,
                     "%.3f" % core.ipc])
    print(format_table(["core", "type", "instrs", "IPC"], rows,
                       title="Heterogeneous chip: %d OOO + %d simple "
                             "cores, shared L3" % (NUM_BIG, NUM_LITTLE)))
    big_ipc = sum(c.ipc for c in sim.cores[:NUM_BIG]) / NUM_BIG
    little_ipc = sum(c.ipc for c in sim.cores[NUM_BIG:]) / NUM_LITTLE
    print()
    print("big-core IPC %.3f vs little-core IPC %.3f (%.2fx)"
          % (big_ipc, little_ipc, big_ipc / little_ipc))
    print("chip finished %d instructions in %d cycles"
          % (result.instrs, result.cycles))


if __name__ == "__main__":
    main()
