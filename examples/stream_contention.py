#!/usr/bin/env python3
"""STREAM under four contention models (Figure 6, right panel).

STREAM saturates memory bandwidth, so its parallel scaling depends
entirely on how contention is modeled:

* ``none``    — zero-load latencies only: scales almost linearly (wrong).
* ``md1``     — Graphite-style M/D/1 queueing in the bound phase:
                tolerates reordering but underestimates saturation.
* ``weave``   — the paper's event-driven DDR3 weave model.
* ``dramsim`` — the DRAMSim2-like cycle-driven model behind the same
                glue interface.

The reference machine ("real") uses the detailed weave model plus TLBs.

Run:  python examples/stream_contention.py
"""

from repro.config import westmere
from repro.harness.validation import stream_scalability
from repro.stats.reporting import format_table

THREADS = (1, 2, 4, 6)


def main():
    # OOO cores: STREAM needs memory-level parallelism to saturate the
    # DDR3 channels (a blocking IPC1 core has one outstanding miss).
    def factory(num_cores):
        return westmere(num_cores=num_cores, core_model="ooo")

    curves = stream_scalability(factory, THREADS, scale=1 / 32,
                                target_instrs=60_000)
    order = ["none", "md1", "weave", "dramsim", "real"]
    rows = []
    for n_idx, n in enumerate(THREADS):
        rows.append([n] + ["%.2f" % curves[m][n_idx][1] for m in order])
    print(format_table(
        ["threads", "no contention", "M/D/1", "event-driven",
         "DRAMSim-like", "real"],
        rows, title="STREAM speedup under contention models (Fig 6 right)"))
    print()
    top = {m: curves[m][-1][1] for m in order}
    print("At %d threads: no-contention speedup %.2f vs real %.2f; the "
          "event-driven weave model lands at %.2f and the DRAMSim-like "
          "model at %.2f — both track the real machine, while M/D/1 "
          "(%.2f) does not." % (THREADS[-1], top["none"], top["real"],
                                top["weave"], top["dramsim"], top["md1"]))


if __name__ == "__main__":
    main()
