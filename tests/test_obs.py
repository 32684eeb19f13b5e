"""Tests for the observability layer: histograms, tracer, metrics,
telemetry threaded end-to-end through the simulator, and the CLI flags.
"""

import json
import time

import pytest

from repro.config import small_test_system
from repro.core.simulator import ZSim
from repro.obs import (
    Log2Histogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
    configure_logging,
    get_logger,
)
from repro.obs.histogram import bucket_label
from repro.workloads import mt_workload
from repro.workloads.base import KernelSpec, Workload

VALID_PHASES = {"X", "i", "C", "M", "B", "E"}


def workload(threads=4):
    spec = KernelSpec(name="wl", footprint_kb=64, mem_ratio=0.3,
                      pattern="random", shared_fraction=0.2, shared_kb=64,
                      barrier_iters=100, seed=7)
    return Workload(spec, num_threads=threads)


def run_sim(telemetry=None, instrs=15_000, contention_model="weave"):
    config = small_test_system(num_cores=4, core_model="simple")
    threads = workload().make_threads(target_instrs=instrs)
    sim = ZSim(config, threads=threads, contention_model=contention_model,
               telemetry=telemetry)
    return sim.run(), sim


def assert_valid_chrome_trace(doc):
    """Schema-check a Chrome trace-event JSON document."""
    assert isinstance(doc, dict)
    events = doc["traceEvents"]
    assert events, "trace must contain events"
    for event in events:
        assert event["ph"] in VALID_PHASES
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert "name" in event
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0.0


class TestLog2Histogram:
    def test_zero_goes_to_bucket_zero(self):
        h = Log2Histogram()
        h.record(0)
        assert h.count == 1 and h.total == 0
        assert list(h.buckets()) == [(0, 0, 1)]
        assert h.to_dict()["buckets"] == {"0": 1}

    def test_one_is_its_own_bucket(self):
        h = Log2Histogram()
        h.record(1)
        assert list(h.buckets()) == [(1, 1, 1)]
        assert h.to_dict()["buckets"] == {"1": 1}

    def test_power_of_two_boundaries(self):
        h = Log2Histogram()
        for v in (2, 3, 4, 7, 8):
            h.record(v)
        assert list(h.buckets()) == [(2, 3, 2), (4, 7, 2), (8, 15, 1)]

    def test_huge_value_clamps_to_top_bucket(self):
        h = Log2Histogram()
        h.record(1 << 200)
        assert h.count == 1
        assert h.max == 1 << 200
        (lo, _hi, n), = h.buckets()
        assert n == 1 and lo == 1 << 62
        assert bucket_label(63).endswith("+")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Log2Histogram().record(-1)

    def test_mean_min_max(self):
        h = Log2Histogram()
        for v in (10, 20, 30):
            h.record(v)
        assert h.mean == pytest.approx(20.0)
        assert (h.min, h.max) == (10, 30)

    def test_weighted_record(self):
        h = Log2Histogram()
        h.record(4, n=5)
        assert h.count == 5 and h.total == 20

    def test_merge(self):
        a, b = Log2Histogram(), Log2Histogram()
        a.record(2)
        b.record(100)
        a.merge(b)
        assert a.count == 2
        assert (a.min, a.max) == (2, 100)
        assert sum(n for _lo, _hi, n in a.buckets()) == 2

    def test_to_dict_json_safe(self):
        h = Log2Histogram("lat")
        h.record(5)
        round_tripped = json.loads(json.dumps(h.to_dict()))
        assert round_tripped["count"] == 1
        assert round_tripped["buckets"] == {"4-7": 1}


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        start = time.perf_counter()
        tracer.complete_raw("work", "test", start, start + 0.25, tid=5,
                            args={"k": 1})
        (event,) = tracer.events
        assert event["ph"] == "X" and event["tid"] == 5
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["ts"] >= 0
        assert event["args"] == {"k": 1}

    def test_chrome_export_is_schema_valid(self):
        tracer = Tracer()
        tracer.name_track(7, "lane7")
        start = time.perf_counter()
        tracer.instant("marker", "cat", tid=7)
        tracer.complete_raw("a", "cat", start, time.perf_counter(), tid=7)
        doc = json.loads(json.dumps(tracer.to_chrome()))
        assert_valid_chrome_trace(doc)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "lane7" in names

    def test_max_events_bounds_memory(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.instant("x", "c")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.to_chrome()["otherData"]["dropped_events"] == 3

    def test_text_timeline_mentions_lanes(self):
        tracer = Tracer()
        tracer.name_track(3, "mylane")
        start = time.perf_counter()
        tracer.complete_raw("heavy", "c", start, time.perf_counter(), tid=3)
        text = tracer.text_timeline()
        assert "mylane" in text and "heavy" in text


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.to_dict()["counters"] == {"a": 5}
        assert set(reg.to_dict()) == {"counters", "histograms", "samples"}

    def test_histogram_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.histogram("h").record(9)
        reg.sample_interval(1, cycle=100, instrs=50)
        doc = json.loads(reg.to_json())
        assert doc["counters"]["c"] == 2
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["samples"] == [{"interval": 1, "cycle": 100,
                                   "instrs": 50}]


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.virt").name == "repro.virt"

    def test_configure_idempotent(self):
        root = configure_logging("info")
        before = len(root.handlers)
        configure_logging("debug")
        assert len(root.handlers) == before

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")


class TestTelemetryEndToEnd:
    def test_trace_covers_phases_and_validates(self):
        telemetry = Telemetry()
        run_sim(telemetry)
        doc = json.loads(json.dumps(telemetry.tracer.to_chrome()))
        assert_valid_chrome_trace(doc)
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"phase", "bound", "weave", "interval"} <= cats
        names = {e["name"] for e in doc["traceEvents"]}
        assert "bound" in names and "weave" in names
        assert "barrier" in names
        assert any(n.startswith("core") for n in names)
        assert any(n.startswith("domain") for n in names)

    def test_metrics_sampled_every_interval(self):
        telemetry = Telemetry()
        result, _sim = run_sim(telemetry)
        samples = telemetry.metrics.samples
        assert len(samples) == result.intervals
        for row in samples:
            assert row["bound_seconds"] >= 0.0
            assert row["weave_seconds"] >= 0.0
        assert samples[-1]["interval"] == result.intervals

    def test_scheduler_events_counted(self):
        telemetry = Telemetry()
        run_sim(telemetry)
        assert telemetry.metrics.to_dict()["counters"]["sched.schedule"] > 0
        syscall_counters = [
            name for name in telemetry.metrics.to_dict()["counters"]
            if name.startswith("sched.syscalls.")]
        assert syscall_counters

    def test_telemetry_does_not_change_simulation(self):
        plain, _ = run_sim(None)
        traced, _ = run_sim(Telemetry())
        assert plain.cycles == traced.cycles
        assert plain.instrs == traced.instrs

    def test_trace_only_and_metrics_only(self):
        trace_only = Telemetry(metrics=False)
        run_sim(trace_only)
        assert trace_only.metrics is None
        assert len(trace_only.tracer.events) > 0
        metrics_only = Telemetry(trace=False)
        run_sim(metrics_only)
        assert metrics_only.tracer is None
        assert metrics_only.metrics.samples

    def test_attach_telemetry_at_run_time(self):
        config = small_test_system(num_cores=4, core_model="simple")
        threads = workload().make_threads(target_instrs=5_000)
        sim = ZSim(config, threads=threads)
        telemetry = Telemetry()
        result = sim.run(telemetry=telemetry)
        assert len(telemetry.metrics.samples) == result.intervals > 0

    def test_stats_tree_gains_host_weave_and_histogram(self):
        result, _ = run_sim(None)
        stats = result.stats().to_dict()
        assert "speedup" in stats["host"]
        assert stats["weave"]["events"] > 0
        assert stats["mem"]["access_latency"]["count"] > 0
        # The whole tree, histograms included, must be JSON-safe.
        json.loads(result.stats().to_json())

    def test_stats_tree_without_weave(self):
        result, _ = run_sim(None, contention_model="none")
        stats = result.stats().to_dict()
        assert "weave" not in stats
        assert "host" in stats


def _dotted_paths(tree, prefix=""):
    """Every node and leaf of a stats-tree dict as a dotted path."""
    for key, value in tree.items():
        path = prefix + str(key)
        yield path
        if isinstance(value, dict):
            yield from _dotted_paths(value, path + ".")


class TestOneOwner:
    def test_no_metric_recounts_a_stats_leaf(self):
        """A number has one owner: a metrics counter or histogram never
        carries the name of a stats-tree node, since that number is
        already in the stats tree (zsim's one periodic dump)."""
        config = small_test_system(num_cores=2, core_model="ooo")
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=2)
        telemetry = Telemetry(trace=False)
        sim = ZSim(config, threads=wl.make_threads(target_instrs=15_000),
                   telemetry=telemetry)
        tree = sim.run().stats().to_dict()
        metrics = telemetry.metrics.to_dict()
        names = set(metrics["counters"]) | set(metrics["histograms"])
        assert names, "the metered run recorded no metrics"
        copies = sorted(names & set(_dotted_paths(tree)))
        assert not copies, ("metrics that re-count the stats tree: %s"
                            % ", ".join(copies))


class TestCli:
    def test_run_writes_all_outputs(self, tmp_path):
        from repro.cli import main
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        stats = tmp_path / "s.json"
        rc = main(["run", "--preset", "test", "--instrs", "4000",
                   "--trace-out", str(trace),
                   "--metrics-out", str(metrics),
                   "--stats-json", str(stats)])
        assert rc == 0
        assert_valid_chrome_trace(json.loads(trace.read_text()))
        doc = json.loads(metrics.read_text())
        assert doc["samples"]
        assert any(h["count"] > 0 for h in doc["histograms"].values())
        stats_doc = json.loads(stats.read_text())
        assert "host" in stats_doc

    def test_run_without_telemetry_flags_builds_none(self, tmp_path):
        from repro.cli import main
        rc = main(["run", "--preset", "test", "--instrs", "2000"])
        assert rc == 0
