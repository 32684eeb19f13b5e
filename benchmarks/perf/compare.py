#!/usr/bin/env python3
"""Compare two result files written by ``run.py --json``.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  For every (workload, end-to-end metric)
pair this prints both medians, the ratio B/A with its base, and a
verdict taken from the metric's direction and bound in BENCHMARK.json:

* ``regressed``    - B's median is worse than A's by more than the bound
* ``unresolved``   - the run-to-run spread (distance between the
  quartiles over the median, the wider of the two sets) exceeds the
  bound, so the pair cannot say either way
* ``improved``     - B's median is better by more than that spread
* ``within-bound`` - anything else

Exit code 1 on any regression or any rise in ``run_fail_share``.
Whether the simulated results (stats digest, counters) are identical
is printed as information: a speed-only change must keep them, a model
fix may not.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def spread(summary):
    """Distance between the quartiles as a share of the median."""
    samples = summary["samples"]
    if len(samples) < 2 or not summary["median"]:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(summary["median"])


def verdict(metric, a, b):
    """``(verdict, worsening, spread)`` for one metric's two summaries;
    ``worsening`` is the share of A's median by which B is worse."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worsening = change if metric["better"] == "lower" else -change
    wide = max(spread(a), spread(b))
    if wide > metric["bound"]:
        return "unresolved", worsening, wide
    if worsening > metric["bound"]:
        return "regressed", worsening, wide
    if worsening < -wide and worsening < 0:
        return "improved", worsening, wide
    return "within-bound", worsening, wide


def compare(doc_a, doc_b, metrics):
    """Print the table; returns the number of gate failures."""
    bad = 0
    print("%-26s %-18s %12s %12s  %-22s %-12s %s"
          % ("workload", "metric", "A median", "B median",
             "B/A (base A)", "verdict", "spread / bound"))
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            print("%-26s only in A" % name)
            continue
        for metric in metrics:
            key = metric["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                print("%-26s %-18s missing" % (name, key))
                bad += 1
                continue
            sa, sb = a["end_to_end"][key], b["end_to_end"][key]
            word, _worse, wide = verdict(metric, sa, sb)
            bad += word == "regressed"
            print("%-26s %-18s %12.6g %12.6g  %-22s %-12s %.1f%% / %.0f%%"
                  % (name, key, sa["median"], sb["median"],
                     "%.4f (%.6g %s)" % (sb["median"] / sa["median"],
                                         sa["median"], metric["unit"]),
                     word, 100 * wide, 100 * metric["bound"]))
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        rose = share_b > share_a
        bad += rose
        print("%-26s %-18s %12s %12s  %-22s %s"
              % (name, "run_fail_share",
                 "%d/%d" % (a["failed"], a["attempted"]),
                 "%d/%d" % (b["failed"], b["attempted"]), "",
                 "ROSE" if rose else "no rise"))
        same = (a["digest"] == b["digest"]
                and a["counters"] == b["counters"])
        print("%-26s %-18s %s"
              % (name, "simulated results",
                 "identical (digest, cycles, counters)" if same
                 else "DIFFER (digest %s vs %s)"
                 % (str(a["digest"])[:12], str(b["digest"])[:12])))
    return bad


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        doc_a = json.load(handle)
    with open(argv[2]) as handle:
        doc_b = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    bad = compare(doc_a, doc_b, metrics)
    print("%d regression(s) or fail-share rise(s)" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
