"""The crash-tolerant process backend (repro.exec.process).

The headline properties:

* **Crash tolerance**: a worker process SIGKILLed mid-interval (or
  SIGSTOPped past the heartbeat budget) cannot corrupt or wedge the
  run — its cores re-run inline on the driver and the final stats tree
  is byte-identical to an uninterrupted serial run, with the recovery
  visible only under ``stats()["host"]``.
* **Typed systemic failure**: a pool that dies whole, repeatedly, ends
  the run with a typed ``ProcessPoolError``.
"""

import os
import signal

import pytest

from repro.core import ZSim
from repro.config import small_test_system
from repro.errors import ProcessPoolError, RunInterrupted, WallClockExceeded
from repro.exec import make_backend
from repro.exec.process import ProcessBackend
from repro.resilience import Checkpointer, read_checkpoint
from repro.resilience.faults import FaultPlan, SigKillWorker, SigStopWorker
from repro.stats.diff import assert_equivalent
from repro.workloads import mt_workload

from conftest import latest

INSTRS = 20_000


def _build(backend, num_cores=4):
    config = small_test_system(num_cores=num_cores)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=num_cores)
    sim = ZSim(config,
               threads=wl.make_threads(target_instrs=INSTRS),
               backend=backend)
    return sim, wl


def _stats_tree(result):
    tree = result.stats().to_dict()
    tree.pop("host", None)
    return tree


@pytest.fixture(scope="module")
def serial_baseline():
    sim, _ = _build("serial")
    return _stats_tree(sim.run())


# ---------------------------------------------------------------------
# Fault-plan grammar: real-process faults
# ---------------------------------------------------------------------


class TestProcessFaultGrammar:
    def test_parse_sigkill_and_sigstop(self):
        plan = FaultPlan.parse("sigkill@3:w0;sigstop@4")
        kill, stop = plan.faults
        assert isinstance(kill, SigKillWorker)
        assert (kill.interval, kill.worker) == (3, 0)
        assert kill.signum == signal.SIGKILL
        assert isinstance(stop, SigStopWorker)
        assert stop.worker is None
        assert stop.signum == signal.SIGSTOP

    def test_describe_roundtrips(self):
        for spec in ("sigkill@3:w0", "sigstop@4"):
            plan = FaultPlan.parse(spec)
            assert plan.faults[0].describe() == spec
            assert FaultPlan.parse(plan.faults[0].describe()).faults

    def test_process_faults_selected_by_interval_until_fired(self):
        plan = FaultPlan.parse("sigkill@3:w0;sigstop@4")
        kill, stop = plan.faults
        assert plan.process_faults(3) == [kill]
        assert plan.process_faults(4) == [stop]
        assert plan.process_faults(5) == []
        kill.fired = True
        assert plan.process_faults(3) == []

    def test_corrupt_seam_skips_process_faults(self):
        # corrupt() walks non-dispatch faults; process faults have no
        # apply() and must be excluded (weave=None would blow up).
        plan = FaultPlan.parse("sigstop@4")
        plan.corrupt(None, 4)
        assert not plan.faults[0].fired

    def test_victim_selection_is_seeded(self):
        picks_a = [SigStopWorker(1).pick_worker(8, FaultPlan(seed=9).rng)
                   for _ in range(5)]
        picks_b = [SigStopWorker(1).pick_worker(8, FaultPlan(seed=9).rng)
                   for _ in range(5)]
        assert picks_a == picks_b
        assert all(0 <= p < 8 for p in picks_a)


# ---------------------------------------------------------------------
# Crash tolerance: signals to live workers never change results
# ---------------------------------------------------------------------


class TestProcessCrashTolerance:
    def test_plain_run_matches_serial(self, serial_baseline):
        sim, _ = _build("process")
        sim.backend.pool_size = 2
        tree = _stats_tree(sim.run())
        assert_equivalent(tree, serial_baseline,
                          context="plain process run vs serial")
        counters = sim.backend.counters
        assert counters["workers_forked"] > 0
        assert counters["spec_commits"] + counters["inline_runs"] > 0

    def test_sigkill_mid_interval_matches_serial(self, serial_baseline):
        sim, _ = _build("process")
        sim.backend.pool_size = 2
        plan = FaultPlan.parse("sigkill@2:w0")
        sim.backend.fault_plan = plan
        result = sim.run()
        assert plan.unfired() == []
        assert_equivalent(_stats_tree(result), serial_baseline,
                          context="sigkill mid-interval vs serial")
        host = result.stats().to_dict()["host"]["exec"]
        assert host["worker_deaths"] >= 1
        assert host["respawns"] >= 1
        assert host["pool_failures"] == 0

    def test_sigstop_past_heartbeat_budget_matches_serial(
            self, serial_baseline):
        sim, _ = _build("process")
        sim.backend.pool_size = 2
        sim.backend.heartbeat_budget_s = 1.0
        plan = FaultPlan.parse("sigstop@3:w1")
        sim.backend.fault_plan = plan
        result = sim.run()
        assert plan.unfired() == []
        assert_equivalent(_stats_tree(result), serial_baseline,
                          context="sigstop past heartbeat vs serial")
        host = result.stats().to_dict()["host"]["exec"]
        assert host["heartbeat_kills"] >= 1
        assert host["worker_deaths"] >= 1

    def test_total_pool_death_raises_typed_error_unsupervised(self):
        sim, _ = _build("process")
        sim.backend.pool_size = 1
        # Both intervals lose the entire (1-worker) pool: systemic.
        sim.backend.fault_plan = FaultPlan.parse(
            "sigkill@2:w0;sigkill@3:w0")
        with pytest.raises(ProcessPoolError):
            sim.run()

    def test_shutdown_is_idempotent_and_restartable(self):
        sim, _ = _build("process")
        sim.backend.pool_size = 2
        sim.run(max_intervals=3)   # run() shuts the backend down
        sim.backend.shutdown()     # second shutdown is a no-op
        sim.run(max_intervals=3)   # pool re-forks per pass
        sim.backend.shutdown()


# ---------------------------------------------------------------------
# Graceful interruption (SIGTERM/SIGINT -> the wall-budget exit path)
# ---------------------------------------------------------------------


class TestGracefulStop:
    def test_request_stop_checkpoints_and_raises_typed(self, tmp_path,
                                                       serial_baseline):
        sim, wl = _build("serial")
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        sim.request_stop("unit test")
        with pytest.raises(RunInterrupted) as excinfo:
            sim.run()
        err = excinfo.value
        assert isinstance(err, WallClockExceeded)  # same exit path
        assert err.reason == "unit test"
        assert err.checkpoint_path is not None
        assert os.path.exists(err.checkpoint_path)
        # The interrupted run is resumable to the same stats tree.
        capsule = read_checkpoint(latest(str(tmp_path)))
        resumed = ZSim.resume(capsule,
                              wl.make_threads(target_instrs=INSTRS))
        assert_equivalent(_stats_tree(resumed.run()), serial_baseline,
                          context="resume after graceful stop")

    def test_sigterm_handler_requests_stop(self):
        from repro.cli import _GracefulStop
        sim, _ = _build("serial")
        with _GracefulStop(sim):
            os.kill(os.getpid(), signal.SIGTERM)
            with pytest.raises(RunInterrupted, match="SIGTERM"):
                sim.run()

    def test_handlers_are_restored_on_exit(self):
        from repro.cli import _GracefulStop
        sim, _ = _build("serial")
        before = signal.getsignal(signal.SIGTERM)
        with _GracefulStop(sim):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# ---------------------------------------------------------------------
# Observability and configuration plumbing
# ---------------------------------------------------------------------


class TestProcessObservability:
    def test_worker_idle_histogram_and_tracer_lanes(self):
        from repro.obs import Telemetry
        from repro.obs.tracer import TID_WORKER
        telemetry = Telemetry(trace=True, metrics=True)
        config = small_test_system(num_cores=4)
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
        sim = ZSim(config,
                   threads=wl.make_threads(target_instrs=INSTRS),
                   backend="process", telemetry=telemetry)
        sim.backend.pool_size = 2
        sim.run()
        hist = telemetry.metrics.histogram("exec.worker_idle_us")
        assert hist.count > 0
        names = telemetry.tracer._track_names
        assert names.get(TID_WORKER) == "process worker0"
        assert names.get(TID_WORKER + 1) == "process worker1"

    def test_host_stats_node_present_only_when_counters_exist(self):
        sim, _ = _build("serial")
        tree = sim.run().stats().to_dict()
        assert "exec" not in tree["host"]

    def test_config_knobs_reach_the_backend(self):
        import dataclasses
        config = small_test_system(num_cores=4)
        config = dataclasses.replace(
            config,
            boundweave=dataclasses.replace(config.boundweave,
                                           backend="process",
                                           process_workers=3,
                                           heartbeat_budget_s=5.0))
        sim = ZSim(config.validate())
        assert isinstance(sim.backend, ProcessBackend)
        assert sim.backend._resolved_pool_size() == 3
        assert sim.backend.heartbeat_budget_s == 5.0
        sim.backend.shutdown()

    def test_config_validation_rejects_bad_knobs(self):
        import dataclasses
        config = small_test_system(num_cores=4)
        bad = dataclasses.replace(
            config,
            boundweave=dataclasses.replace(config.boundweave,
                                           process_workers=-1))
        with pytest.raises(ValueError, match="process_workers"):
            bad.validate()
        bad = dataclasses.replace(
            config,
            boundweave=dataclasses.replace(config.boundweave,
                                           heartbeat_budget_s=0.0))
        with pytest.raises(ValueError, match="heartbeat"):
            bad.validate()

    def test_cli_flags_exist(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--backend", "process", "--pool-size", "2",
             "--heartbeat-budget", "3.5"])
        assert args.backend == "process"
        assert args.pool_size == 2
        assert args.heartbeat_budget == 3.5

    def test_make_backend_registry(self):
        backend = make_backend("process", host_threads=2)
        assert isinstance(backend, ProcessBackend)
        assert backend.name == "process"
