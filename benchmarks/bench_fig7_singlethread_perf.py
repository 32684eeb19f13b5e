"""Figure 7: single-thread simulator performance distribution.

All 29 SPEC-like workloads on the Table 2 system under the four model
sets; the figure plots the per-app MIPS distribution.  The paper's
shapes: IPC1-NC fastest, OOO-C slowest, and memory intensity is the
main factor separating apps within a model set.
"""

from conftest import emit, instrs, once

from repro.config import westmere
from repro.harness.performance import MODEL_SETS, simulate_mips
from repro.stats.aggregate import hmean
from repro.stats.reporting import format_table
from repro.workloads.spec_cpu import SPEC_CPU2006, spec_workload


def test_fig7_singlethread_mips_distribution(benchmark):
    config = westmere(num_cores=1)
    labels = [label for label, _c, _m in MODEL_SETS]

    def run():
        out = {}
        for name in SPEC_CPU2006:
            workload = spec_workload(name, scale=1 / 32)
            out[name] = {}
            for label, core_model, contention in MODEL_SETS:
                res = simulate_mips(config, workload,
                                    instrs(12_000), core_model,
                                    contention)
                out[name][label] = res.mips
        return out

    mips = once(benchmark, run)
    rows = [[name] + ["%.3f" % mips[name][label] for label in labels]
            for name in sorted(mips,
                               key=lambda n: -mips[n]["IPC1-NC"])]
    summary = ["hmean %-8s: %.3f MIPS"
               % (label, hmean(mips[n][label] for n in mips))
               for label in labels]
    emit("fig7_singlethread_perf",
         format_table(["app"] + labels, rows,
                      title="Figure 7: single-thread simulation speed "
                            "(MIPS) per model set")
         + "\n\n" + "\n".join(summary))

    h = {label: hmean(mips[n][label] for n in mips)
         for label in labels}
    assert h["IPC1-NC"] >= h["IPC1-C"]
    assert h["IPC1-NC"] >= h["OOO-NC"] >= h["OOO-C"]
    # Memory-bound apps are the slowest to simulate within a model set.
    assert mips["namd"]["IPC1-NC"] > mips["mcf"]["IPC1-NC"]
