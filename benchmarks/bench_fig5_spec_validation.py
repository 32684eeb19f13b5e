"""Figure 5: OOO core validation on SPEC CPU2006 vs the real machine.

All 29 workloads run on zsim's OOO-C model and on the reference machine
(same models + TLBs/page walks + a larger branch predictor).  Reported:
per-app IPCs sorted by |perf error|, and the MPKI error summaries the
figure's scatter plots aggregate.  Table 2's configuration is used.
"""

from conftest import emit, instrs, once

from repro.config import westmere
from repro.harness.validation import spec_validation
from repro.stats.aggregate import mean_abs
from repro.stats.reporting import format_table
from repro.workloads.spec_cpu import SPEC_CPU2006


def test_fig5_spec_cpu2006_validation(benchmark):
    config = westmere(num_cores=1, core_model="ooo")

    def run():
        return spec_validation(config, names=SPEC_CPU2006, scale=1 / 32,
                               target_instrs=instrs(25_000))

    rows = once(benchmark, run)
    table = [[r["name"], "%.3f" % r["ipc_real"], "%.3f" % r["ipc_zsim"],
              "%+.1f%%" % (100 * r["perf_error"]),
              "%.1f" % r["tlb_mpki"],
              "%+.2f" % r["l1i_mpki_err"], "%+.2f" % r["l1d_mpki_err"],
              "%+.2f" % r["l2_mpki_err"], "%+.2f" % r["l3_mpki_err"],
              "%+.2f" % r["branch_mpki_err"]] for r in rows]
    summary = [
        "avg |perf error|   : %5.1f%%" % (
            100 * mean_abs(r["perf_error"] for r in rows)),
        "within 10%%         : %d / %d apps" % (
            sum(1 for r in rows if abs(r["perf_error"]) <= 0.10),
            len(rows)),
        "avg |L1I MPKI err| : %6.2f" % mean_abs(
            r["l1i_mpki_err"] for r in rows),
        "avg |L1D MPKI err| : %6.2f" % mean_abs(
            r["l1d_mpki_err"] for r in rows),
        "avg |L2 MPKI err|  : %6.2f" % mean_abs(
            r["l2_mpki_err"] for r in rows),
        "avg |L3 MPKI err|  : %6.2f" % mean_abs(
            r["l3_mpki_err"] for r in rows),
        "avg |branch err|   : %6.2f" % mean_abs(
            r["branch_mpki_err"] for r in rows),
    ]
    emit("fig5_spec_validation",
         format_table(["app", "IPC real", "IPC zsim", "perf err",
                       "TLB MPKI", "L1I err", "L1D err", "L2 err",
                       "L3 err", "Br err"], table,
                      title="Figure 5: SPEC CPU2006 validation "
                            "(sorted by |perf error|)")
         + "\n\n" + "\n".join(summary))

    # Paper shapes: small average error with an overestimation bias,
    # most apps within 10%, and cache MPKI errors that shrink toward
    # the L3.
    avg_abs = mean_abs(r["perf_error"] for r in rows)
    assert avg_abs < 0.15
    overestimates = sum(1 for r in rows if r["perf_error"] > 0)
    assert overestimates >= len(rows) * 0.6
    assert mean_abs(r["l3_mpki_err"] for r in rows) <= \
        mean_abs(r["l1d_mpki_err"] for r in rows) + 0.2
