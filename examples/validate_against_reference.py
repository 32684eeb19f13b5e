#!/usr/bin/env python3
"""Validation demo (Figure 5 methodology, small scale).

Runs a handful of SPEC-CPU2006-like workloads on both zsim's detailed
OOO model and the golden reference machine (same models + TLBs and page
walks, the effects zsim deliberately omits), then reports the paper's
validation metrics: IPC error and per-level MPKI errors.

Run:  python examples/validate_against_reference.py
"""

from repro.config import westmere
from repro.harness.validation import validate_workload
from repro.stats.aggregate import mean_abs
from repro.stats.reporting import format_table
from repro.workloads import spec_workload

WORKLOADS = ("namd", "povray", "libquantum", "mcf", "omnetpp", "hmmer")


def main():
    config = westmere(num_cores=1, core_model="ooo")
    rows = []
    for name in WORKLOADS:
        workload = spec_workload(name, scale=1 / 32)
        row = validate_workload(config, workload, target_instrs=40_000)
        rows.append(row)
        print("validated %-12s perf_error %+6.1f%%"
              % (name, 100 * row["perf_error"]))
    rows.sort(key=lambda r: abs(r["perf_error"]))

    print()
    table = [[r["name"],
              "%.3f" % r["ipc_real"],
              "%.3f" % r["ipc_zsim"],
              "%+.1f%%" % (100 * r["perf_error"]),
              "%.2f" % r["tlb_mpki"],
              "%+.2f" % r["l1d_mpki_err"],
              "%+.2f" % r["l3_mpki_err"]] for r in rows]
    print(format_table(
        ["workload", "IPC real", "IPC zsim", "perf err", "TLB MPKI",
         "L1D err", "L3 err"],
        table, title="zsim vs reference machine (Figure 5 methodology)"))

    print()
    print("avg |perf error| : %.1f%%"
          % (100 * mean_abs(r["perf_error"] for r in rows)))
    print("avg |L1D MPKI err|: %.2f"
          % mean_abs(r["l1d_mpki_err"] for r in rows))
    print("avg |L3 MPKI err| : %.2f"
          % mean_abs(r["l3_mpki_err"] for r in rows))
    print()
    print("Note the paper's error structure: zsim tends to overestimate "
          "performance, and the largest errors belong to TLB-heavy "
          "workloads (compare the TLB MPKI column).")


if __name__ == "__main__":
    main()
