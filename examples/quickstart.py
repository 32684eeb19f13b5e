#!/usr/bin/env python3
"""Quickstart: simulate a PARSEC-like workload on the validated
Westmere configuration (Table 2 of the paper).

Run:  python examples/quickstart.py
"""

from repro import ZSim, mt_workload, westmere
from repro.stats.reporting import format_table


def main():
    # The 6-core Westmere system the paper validates against.
    config = westmere(num_cores=6, core_model="ooo")

    # A blackscholes-like multithreaded workload, scaled down so the
    # example runs in seconds (scale only shrinks data footprints).
    workload = mt_workload("blackscholes", scale=1 / 16)
    threads = workload.make_threads(target_instrs=120_000)

    sim = ZSim(config, threads=threads, contention_model="weave")
    result = sim.run()

    print("Simulated %s on %s" % (workload.name, config.name))
    print("  instructions : %d" % result.instrs)
    print("  cycles       : %d" % result.cycles)
    print("  IPC          : %.3f" % result.ipc)
    print("  sim speed    : %.3f MIPS (host wall clock)" % result.mips)
    print("  intervals    : %d (bound-weave, %d cycles each)"
          % (result.intervals, config.boundweave.interval_cycles))
    print()

    rows = []
    for level in ("l1i", "l1d", "l2", "l3"):
        rows.append([level.upper(), "%.2f" % result.core_mpki(level)])
    rows.append(["branch", "%.2f" % result.branch_mpki()])
    print(format_table(["cache", "MPKI"], rows,
                       title="Miss rates (misses per 1000 instructions)"))
    print()

    ws = result.weave_stats
    print("Weave phase: %d events, %d domain crossings, "
          "%d total delay cycles fed back"
          % (ws.events, ws.crossings, ws.total_delay))


if __name__ == "__main__":
    main()
