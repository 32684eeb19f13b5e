"""Tests for stats counters and metric aggregation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.aggregate import (
    confidence_interval_95,
    hmean,
    ipc,
    mean_abs,
    mpki,
    perf_error,
    run_until_tight,
    stdev,
)
from repro.stats.counters import StatsNode
from repro.stats.reporting import format_table


class TestStatsNode:
    def test_inc_and_get(self):
        node = StatsNode("n")
        node.inc("hits")
        node.inc("hits", 4)
        assert node.get("hits") == 5
        assert node.get("absent") == 0

    def test_children_created_once(self):
        node = StatsNode("root")
        assert node.child("c") is node.child("c")

    def test_to_dict_nested(self):
        root = StatsNode("root")
        root.set("x", 1)
        root.child("sub").set("y", 2)
        assert root.to_dict() == {"x": 1, "sub": {"y": 2}}

    def test_json_round_trip(self):
        root = StatsNode("root")
        root.set("a", 10)
        assert json.loads(root.to_json()) == {"a": 10}

    def test_histogram_get_or_create(self):
        node = StatsNode("n")
        hist = node.histogram("lat")
        assert node.histogram("lat") is hist
        assert node.histograms == {"lat": hist}

    def test_histogram_in_to_dict_and_json(self):
        node = StatsNode("n")
        node.set("hits", 2)
        node.child("sub").histogram("lat").record(5)
        doc = node.to_dict()
        assert doc["hits"] == 2
        assert doc["sub"]["lat"]["count"] == 1
        assert doc["sub"]["lat"]["buckets"] == {"4-7": 1}
        assert json.loads(node.to_json()) == doc

    def test_histogram_edge_values_round_trip(self):
        node = StatsNode("n")
        hist = node.histogram("lat")
        for value in (0, 1, 1 << 100):
            hist.record(value)
        doc = json.loads(node.to_json())["lat"]
        assert doc["count"] == 3
        assert doc["min"] == 0 and doc["max"] == 1 << 100
        assert doc["buckets"]["0"] == 1
        assert doc["buckets"]["1"] == 1


class TestMetrics:
    def test_ipc(self):
        assert ipc(100, 50) == 2.0
        assert ipc(100, 0) == 0.0

    def test_mpki(self):
        assert mpki(5, 1000) == 5.0
        assert mpki(5, 0) == 0.0

    def test_perf_error_sign_convention(self):
        """Positive = simulator overestimates (paper Section 4.1)."""
        assert perf_error(1.1, 1.0) == pytest.approx(0.1)
        assert perf_error(0.9, 1.0) == pytest.approx(-0.1)
        with pytest.raises(ValueError):
            perf_error(1.0, 0.0)

    def test_hmean_known_value(self):
        assert hmean([1, 1]) == 1.0
        assert hmean([2, 6]) == 3.0

    def test_hmean_dominated_by_small_values(self):
        assert hmean([0.1, 100]) < 0.5

    def test_hmean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hmean([1, 0])
        with pytest.raises(ValueError):
            hmean([])

    def test_mean_abs(self):
        assert mean_abs([-1, 1, 3]) == pytest.approx(5 / 3)

    def test_stdev(self):
        assert stdev([1, 1, 1]) == 0.0
        assert stdev([5]) == 0.0
        assert stdev([1, 3]) == pytest.approx(2 ** 0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 1000), min_size=1, max_size=20))
    def test_hmean_bounds(self, values):
        h = hmean(values)
        assert min(values) - 1e-9 <= h <= max(values) + 1e-9


class TestConfidence:
    def test_single_sample_infinite(self):
        assert confidence_interval_95([1.0]) == float("inf")

    def test_tight_samples_tight_ci(self):
        assert confidence_interval_95([10.0] * 5) == 0.0

    def test_run_until_tight_deterministic(self):
        calls = []

        def run():
            calls.append(1)
            return 42.0
        value, samples = run_until_tight(run)
        assert value == 42.0
        assert len(calls) == 3  # min_runs

    def test_run_until_tight_noisy_stops_at_max(self):
        import random
        rng = random.Random(0)
        value, samples = run_until_tight(lambda: rng.uniform(0, 100),
                                         max_runs=5)
        assert len(samples) == 5


class TestReporting:
    def test_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "bbbb" in lines[3]

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")
