"""Execution backends: serial/parallel/pipelined/process must produce
identical simulated results (the determinism contract of repro.exec)."""

import copy
import dataclasses

import pytest

from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
    small_test_system,
)
from repro.core import ZSim
from repro.core.simulator import CONTENTION_MODELS, _MD1Memory
from repro.exec import BACKEND_NAMES, make_backend
from repro.exec.parallel import ParallelBackend
from repro.exec.pipelined import PipelinedBackend
from repro.exec.serial import SerialBackend
from repro.stats.diff import assert_equivalent
from repro.workloads import mt_workload


def _multi_tile_config():
    """16 cores over 4 tiles so the weave runs 4 domains (the parallel
    weave path is a no-op with a single domain)."""
    cfg = SystemConfig(
        name="exec-16c",
        num_tiles=4,
        cores_per_tile=4,
        core=CoreConfig(model="simple"),
        l1i=CacheConfig(name="l1i", size_kb=4, ways=2, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=4, ways=4, latency=4),
        l2=CacheConfig(name="l2", size_kb=16, ways=4, latency=7),
        l2_shared_per_tile=True,
        l3=CacheConfig(name="l3", size_kb=64, ways=8, latency=14, banks=4),
        boundweave=BoundWeaveConfig(host_threads=4),
    )
    return cfg.validate()


def _hetero_config():
    cfg = small_test_system(num_cores=4)
    return dataclasses.replace(
        cfg, hetero_cores={0: CoreConfig(model="ooo")}).validate()


CONFIGS = {
    "ooo2": lambda: small_test_system(num_cores=2, core_model="ooo"),
    "tiled16": _multi_tile_config,
    "hetero": _hetero_config,
}


def _simulated_stats(config, contention, backend, instrs=25_000):
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    sim = ZSim(config, threads=wl.make_threads(target_instrs=instrs),
               contention_model=contention, backend=backend)
    result = sim.run()
    return result.stats().to_dict()


class TestBackendEquivalence:
    @pytest.mark.parametrize("contention", CONTENTION_MODELS)
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_backends_match_serial(self, config_name, contention):
        baseline = _simulated_stats(CONFIGS[config_name](), contention,
                                    "serial")
        for backend in ("parallel", "pipelined", "process"):
            tree = _simulated_stats(CONFIGS[config_name](), contention,
                                    backend)
            # The host subtree holds wall-clock measurements, which
            # legitimately differ across backends; everything else is
            # simulated state and must match the serial reference
            # exactly.  assert_equivalent reports the diverged paths.
            assert_equivalent(
                tree, baseline, ignore=("host",),
                context="%s backend vs serial (%s, %s)"
                % (backend, config_name, contention))


class TestBackendSelection:
    def test_default_is_serial(self, tiny_config):
        sim = ZSim(tiny_config)
        assert isinstance(sim.backend, SerialBackend)
        assert sim.host_model.backend_name == "serial"

    def test_config_field_selects_backend(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config,
            boundweave=dataclasses.replace(tiny_config.boundweave,
                                           backend="parallel"))
        sim = ZSim(cfg)
        assert isinstance(sim.backend, ParallelBackend)
        sim.backend.shutdown()

    def test_explicit_arg_overrides_config(self, tiny_config):
        sim = ZSim(tiny_config, backend="pipelined")
        assert isinstance(sim.backend, PipelinedBackend)
        sim.backend.shutdown()

    def test_unknown_backend_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="backend"):
            ZSim(tiny_config, backend="gpu")
        with pytest.raises(ValueError, match="backend"):
            make_backend("gpu")

    def test_config_validation_rejects_unknown_backend(self, tiny_config):
        cfg = dataclasses.replace(
            tiny_config,
            boundweave=dataclasses.replace(tiny_config.boundweave,
                                           backend="gpu"))
        with pytest.raises(ValueError, match="backend"):
            cfg.validate()

    def test_backend_names_registry(self):
        assert BACKEND_NAMES == ("serial", "parallel", "pipelined",
                                 "process")
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name


class TestMD1MemoryAttributeSafety:
    def test_missing_dunder_raises_attribute_error(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        with pytest.raises(AttributeError):
            sim.mem.__getstate__missing__  # noqa: B018

    def test_half_built_instance_does_not_recurse(self):
        mem = _MD1Memory.__new__(_MD1Memory)
        with pytest.raises(AttributeError):
            mem.hierarchy

    def test_copyable(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        clone = copy.copy(sim.mem)
        assert clone.hierarchy is sim.mem.hierarchy

    def test_delegation_still_works(self, tiny_config):
        sim = ZSim(tiny_config, contention_model="md1")
        assert sim.mem.config is tiny_config


class TestBackendObservability:
    def test_parallel_reports_worker_idle(self):
        from repro.obs import Telemetry
        cfg = _multi_tile_config()
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=cfg.num_cores)
        telemetry = Telemetry(trace=False, metrics=True)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=20_000),
                   backend="parallel", telemetry=telemetry)
        sim.run()
        hist = telemetry.metrics.histogram("exec.worker_idle_us")
        assert hist.count > 0

    def test_pipelined_reports_measured_and_modeled_speedup(self,
                                                            tiny_config):
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=tiny_config.num_cores)
        sim = ZSim(tiny_config,
                   threads=wl.make_threads(target_instrs=25_000),
                   backend="pipelined")
        result = sim.run()
        host = result.stats().to_dict()["host"]
        assert host["backend"] == "pipelined"
        assert host["measured_wall_seconds"] > 0
        assert host["measured_speedup"] > 0
        assert "x1" in host["speedup"]
        assert "x1" in host["pipelined_speedup"]

    def test_shutdown_is_idempotent_and_restartable(self, tiny_config):
        sim = ZSim(tiny_config, backend="parallel")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=tiny_config.num_cores)
        for thread in wl.make_threads(target_instrs=5_000):
            sim.add_thread(thread)
        sim.run(max_intervals=3)   # run() shuts the backend down
        sim.backend.shutdown()     # second shutdown is a no-op
        sim.run(max_intervals=3)   # pools respawn lazily
        sim.backend.shutdown()
