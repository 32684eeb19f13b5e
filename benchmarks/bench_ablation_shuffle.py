"""Ablation: interval-barrier wake-order shuffling (Section 3.2.1).

The barrier reshuffles the wake-up order every interval to "avoid
consistently prioritizing a few threads, which in pathological cases can
cause small errors that add up", and to inject the non-determinism that
makes results robust.  This ablation measures both effects: with
shuffling, repeated runs with different seeds give a spread of results
(robustness can be quantified); without it, one fixed order is silently
trusted.
"""

import dataclasses

from conftest import emit, instrs, once

from repro.config import small_test_system
from repro.core import ZSim
from repro.stats.aggregate import mean, stdev
from repro.stats.reporting import format_table
from repro.workloads import mt_workload

SEEDS = (1, 2, 3, 4, 5)


def run_once(shuffle, seed):
    cfg = small_test_system(num_cores=4, core_model="simple")
    cfg = dataclasses.replace(cfg, boundweave=dataclasses.replace(
        cfg.boundweave, shuffle_wake_order=shuffle, seed=seed))
    workload = mt_workload("canneal", scale=1 / 64, num_threads=4)
    sim = ZSim(cfg, workload.make_threads(target_instrs=instrs(30_000),
                                          num_threads=4))
    return sim.run().cycles


def test_ablation_wake_order_shuffle(benchmark):
    def run():
        shuffled = [run_once(True, seed) for seed in SEEDS]
        fixed = [run_once(False, seed) for seed in SEEDS]
        return shuffled, fixed

    shuffled, fixed = once(benchmark, run)
    rows = [
        ["shuffled", "%.0f" % mean(shuffled), "%.0f" % stdev(shuffled),
         "%.2f%%" % (100 * stdev(shuffled) / mean(shuffled))],
        ["fixed order", "%.0f" % mean(fixed), "%.0f" % stdev(fixed),
         "%.2f%%" % (100 * stdev(fixed) / mean(fixed))],
    ]
    emit("ablation_shuffle", format_table(
        ["wake order", "mean cycles", "stdev", "cv"], rows,
        title="Ablation: barrier wake-order shuffling (5 seeds, "
              "canneal-4t)"))

    # Shuffling turns the seed into real non-determinism (non-zero
    # spread); the fixed order collapses every seed to one result.
    assert stdev(fixed) == 0.0
    assert stdev(shuffled) > 0.0
    # And the systematic-bias check: the fixed order's single result
    # lies within a few stdevs of the shuffled ensemble's mean.
    spread = max(stdev(shuffled), 1.0)
    assert abs(mean(fixed) - mean(shuffled)) < 20 * spread
