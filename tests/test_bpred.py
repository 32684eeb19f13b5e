"""Tests for the two-level branch predictor."""

import random

from repro.config.system import BranchPredictorConfig
from repro.cpu.bpred import BranchPredictor


def predictor(**kwargs):
    return BranchPredictor(BranchPredictorConfig(**kwargs))


class TestLearning:
    def test_learns_always_taken(self):
        bp = predictor()
        for _ in range(50):
            bp.predict_and_update(0x400, True)
        before = bp.mispredictions
        for _ in range(100):
            bp.predict_and_update(0x400, True)
        assert bp.mispredictions == before

    def test_learns_always_not_taken(self):
        bp = predictor()
        for _ in range(50):
            bp.predict_and_update(0x400, False)
        before = bp.mispredictions
        for _ in range(100):
            bp.predict_and_update(0x400, False)
        assert bp.mispredictions == before

    def test_learns_alternating_via_history(self):
        """A strict T/N/T/N pattern is perfectly predictable with global
        history — the point of a 2-level predictor."""
        bp = predictor()
        outcome = True
        for _ in range(200):
            bp.predict_and_update(0x400, outcome)
            outcome = not outcome
        before = bp.mispredictions
        for _ in range(200):
            bp.predict_and_update(0x400, outcome)
            outcome = not outcome
        assert bp.mispredictions - before <= 2

    def test_random_branches_mispredict_often(self):
        bp = predictor()
        rng = random.Random(5)
        for _ in range(2000):
            bp.predict_and_update(0x400, rng.random() < 0.5)
        rate = bp.mispredictions / bp.predictions
        assert 0.3 < rate < 0.7

    def test_biased_branches_mostly_predicted(self):
        bp = predictor()
        rng = random.Random(5)
        for _ in range(2000):
            bp.predict_and_update(0x400, rng.random() < 0.95)
        rate = bp.mispredictions / bp.predictions
        assert rate < 0.25


class TestMechanics:
    def test_counts(self):
        bp = predictor()
        bp.predict_and_update(0x10, True)
        assert bp.predictions == 1

    def test_table_size_must_be_power_of_two(self):
        import pytest
        with pytest.raises(ValueError):
            predictor(table_size=1000)

    def test_larger_predictor_not_worse_on_many_branches(self):
        """A bigger table suffers less aliasing across many branch PCs
        (what the reference machine exploits)."""
        small = predictor(history_bits=6, table_size=64)
        big = predictor(history_bits=14, table_size=16384)
        rng = random.Random(9)
        pcs = [0x400 + i * 8 for i in range(64)]
        biases = {pc: rng.random() for pc in pcs}
        for _ in range(150):
            for pc in pcs:
                taken = rng.random() < (0.9 if biases[pc] > 0.5 else 0.1)
                small.predict_and_update(pc, taken)
                big.predict_and_update(pc, taken)
        assert big.mispredictions <= small.mispredictions

    def test_penalty_from_config(self):
        bp = predictor(mispredict_penalty=17)
        assert bp.mispredict_penalty == 17
