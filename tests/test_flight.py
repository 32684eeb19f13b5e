"""The flight recorder (repro.obs.flight): always-on bounded event
ring + post-mortem capsules on every failure path.

The contract under test: any typed fault, deadlock, signal stop, or
crash leaves a capsule that names what failed and how the run (would
have) recovered — and the ring itself stays strictly bounded, so the
default-on recorder cannot grow a long run's memory.
"""

import glob
import json
import os

import pytest

import repro
from repro.cli import main
from repro.core import ZSim
from repro.config import small_test_system
from repro.errors import DeadlockError, RunInterrupted
from repro.obs.flight import (CAPSULE_VERSION, FlightRecorder, load_capsule,
                              render_report)
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import Supervisor
from repro.workloads import mt_workload

INSTRS = 20_000


def _build(backend, flight, num_cores=4):
    config = small_test_system(num_cores=num_cores)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=INSTRS),
                backend=backend, flight=flight)


# ---------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------


class TestRing:
    def test_ring_is_strictly_bounded(self):
        flight = FlightRecorder(capacity=32)
        for i in range(10_000):
            flight.record("tick", n=i)
        assert len(flight) == 32
        events = flight.events()
        # Oldest events fell off the far end; the tail survived intact.
        assert events[0]["n"] == 10_000 - 32
        assert events[-1]["n"] == 9_999
        assert all(e["kind"] == "tick" for e in events)

    def test_capacity_floor(self):
        assert FlightRecorder(capacity=1).capacity == 16

    def test_worker_state_tracks_last_seen(self):
        flight = FlightRecorder()
        flight.record("fork", worker=0)
        flight.record("hb_slack", worker=0)
        flight.record("fork", worker=1)
        assert flight.worker_state[0][1] == "hb_slack"
        assert flight.worker_state[1][1] == "fork"

    def test_run_with_small_ring_stays_bounded(self):
        flight = FlightRecorder(capacity=16)
        sim = _build("serial", flight)
        sim.run()
        assert len(flight) == 16

    def test_flight_false_disables_the_recorder(self):
        sim = _build("serial", False)
        assert sim.flight is None
        sim.run()  # guarded call sites pay one attribute load

    def test_default_recorder_is_in_memory_only(self):
        sim = _build("serial", None)
        assert isinstance(sim.flight, FlightRecorder)
        assert sim.flight.capsule_dir is None  # library use: no files


# ---------------------------------------------------------------------
# Capsules
# ---------------------------------------------------------------------


class TestCapsules:
    def test_capture_without_dir_stays_in_memory(self):
        flight = FlightRecorder()
        flight.record("interval", interval=1)
        assert flight.capture(kind="crash", message="boom") is None
        assert flight.capsules == []
        capsule = flight.last_capsule
        assert capsule["version"] == CAPSULE_VERSION
        assert capsule["reason"]["kind"] == "crash"
        assert any(e["kind"] == "interval" for e in capsule["events"])

    def test_capture_writes_a_loadable_capsule(self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        flight.record("dispatch", worker=2, interval=3)
        path = flight.capture(kind="worker_death", message="w2 died",
                              worker=2, interval=3, phase="bound")
        assert path is not None and os.path.exists(path)
        assert flight.capsules == [path]
        capsule = load_capsule(path)
        assert capsule["reason"]["worker"] == 2
        assert capsule["workers"]["2"]["last_event"] == "dispatch"

    def test_load_capsule_rejects_schema_skew(self, tmp_path):
        path = tmp_path / "postmortem-old.json"
        path.write_text(json.dumps({"version": CAPSULE_VERSION + 1}))
        with pytest.raises(ValueError, match="schema"):
            load_capsule(str(path))

    def test_capsule_cap_stops_a_fault_storm(self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path),
                                max_capsules=2)
        for _ in range(5):
            flight.capture(kind="crash")
        assert len(flight.capsules) == 2
        assert flight.captures_skipped == 3
        assert len(glob.glob(str(tmp_path / "postmortem-*.json"))) == 2

    def test_render_report_names_the_failure(self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        flight.record("fork", worker=0, interval=2)
        path = flight.capture(kind="worker_death", message="w0 died",
                              recovery="cores re-run inline",
                              worker=0, interval=2, phase="bound")
        text = render_report(load_capsule(path))
        assert "worker_death (worker 0, interval 2, bound phase)" in text
        assert "cores re-run inline" in text
        assert "fork" in text
        assert "worker 0" in text


# ---------------------------------------------------------------------
# Failure paths: every way a run can die leaves a capsule
# ---------------------------------------------------------------------


class TestFailurePathCapsules:
    def test_deadlock_leaves_a_capsule(self, tmp_path, tiny_config):
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt import SimThread
        from repro.virt.syscalls import FutexWait

        program = Program("dead")
        block = program.add_block([Instruction(Opcode.SYSCALL)])

        def stuck(key):
            yield BBLExec(block, (), syscall=FutexWait(key))

        flight = FlightRecorder(capsule_dir=str(tmp_path))
        sim = ZSim(tiny_config, threads=[
            SimThread(InstrumentedStream(stuck("a")), name="spin-a"),
            SimThread(InstrumentedStream(stuck("b")), name="spin-b")],
            flight=flight)
        with pytest.raises(DeadlockError):
            sim.run()
        (path,) = flight.capsules
        capsule = load_capsule(path)
        assert capsule["reason"]["kind"] == "DeadlockError"
        assert "spin-a" in capsule["reason"]["message"]

    def test_signal_stop_leaves_a_capsule(self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        sim = _build("serial", flight)
        sim.request_stop("SIGTERM")
        with pytest.raises(RunInterrupted):
            sim.run()
        (path,) = flight.capsules
        capsule = load_capsule(path)
        assert capsule["reason"]["kind"] == "stopped"
        assert "SIGTERM" in capsule["reason"]["message"]

    @pytest.mark.parametrize("backend,plan,interval", (
        # A thread worker raising mid-job surfaces as a WorkerFailure.
        ("parallel", "raise@2:bound", 2),
        # The process backend absorbs single worker deaths inline; only
        # repeated whole-pool death surfaces (ProcessPoolError).
        ("process", "sigkill@2:w0;sigkill@3:w0", 3),
    ))
    def test_supervised_fault_recovery_leaves_a_capsule(
            self, tmp_path, backend, plan, interval):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        sim = _build(backend, flight)
        if backend == "process":
            sim.backend.pool_size = 1
        sim.backend.fault_plan = FaultPlan.parse(plan)
        Supervisor(sim, max_retries=3, backoff_intervals=0)
        sim.run()  # recovered, not fatal — but the capsule remains
        recovered = [load_capsule(p) for p in flight.capsules]
        recovered = [c for c in recovered
                     if c["reason"].get("recovery")
                     and "serial backend" in c["reason"]["recovery"]]
        assert recovered, "recovery must leave a post-mortem"
        capsule = recovered[0]
        assert capsule["reason"]["interval"] == interval
        kinds = {e["kind"] for e in capsule["events"]}
        assert "fault_injected" in kinds
        assert any(e["kind"] == "recovery"
                   for e in flight.events())

    def test_process_worker_sigkill_leaves_a_named_capsule(
            self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        sim = _build("process", flight)
        sim.backend.pool_size = 2
        sim.backend.fault_plan = FaultPlan.parse("sigkill@2:w0")
        sim.run()  # crash-tolerant: the run completes anyway
        assert flight.capsules
        capsule = load_capsule(flight.capsules[0])
        reason = capsule["reason"]
        assert reason["kind"] == "worker_death"
        assert reason["worker"] == 0
        assert reason["interval"] == 2
        assert "inline" in reason["recovery"]
        text = render_report(capsule)
        assert "worker 0" in text and "interval 2" in text

    def test_interval_events_are_recorded(self):
        flight = FlightRecorder()
        sim = _build("serial", flight)
        sim.run()
        intervals = [e for e in flight.events()
                     if e["kind"] == "interval"]
        assert intervals
        assert intervals[-1]["instrs"] > 0


class TestReportRobustness:
    def _capsule_dir(self, tmp_path):
        flight = FlightRecorder(capsule_dir=str(tmp_path))
        flight.record("dispatch", worker=0, interval=1)
        good = flight.capture(kind="crash", message="it broke")
        bad = str(tmp_path / "postmortem-dead-001.json")
        with open(bad, "w") as fh:
            fh.write('{"version": 1, "trunc')
        return good, bad

    def test_skips_corrupt_capsules_with_a_warning(self, tmp_path,
                                                   capsys):
        self._capsule_dir(tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "skipping unreadable capsule" in captured.err
        assert "it broke" in captured.out

    def test_fails_only_when_nothing_is_readable(self, tmp_path):
        good, _bad = self._capsule_dir(tmp_path)
        os.unlink(good)
        with pytest.raises(SystemExit, match="no readable capsule"):
            main(["report", str(tmp_path)])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no post-mortem capsules"):
            main(["report", str(empty)])


# ---------------------------------------------------------------------
# Host-timing audit (satellite): wall-clock reads in the engine must be
# monotonic — time.time() is NTP-steppable and has no place in exec/
# resilience/obs/core timing.
# ---------------------------------------------------------------------


class TestHostTimingGuard:
    SUBSYSTEMS = ("exec", "resilience", "obs", "core")

    def test_no_wall_clock_reads_in_guarded_subsystems(self):
        root = os.path.dirname(repro.__file__)
        offenders = []
        for sub in self.SUBSYSTEMS:
            pattern = os.path.join(root, sub, "**", "*.py")
            for path in glob.glob(pattern, recursive=True):
                with open(path) as fh:
                    for lineno, line in enumerate(fh, 1):
                        if "time.time(" in line:
                            offenders.append("%s:%d" % (path, lineno))
        assert not offenders, (
            "time.time() found in guarded subsystems (use "
            "time.monotonic()/time.perf_counter()): %s" % offenders)
