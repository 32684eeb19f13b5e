"""Resilience layer: supervised execution, interval checkpoints, and
the deterministic fault-injection harness (repro.resilience).

The headline property: a supervised run that recovers from every
injected host fault produces a stats tree identical to a fault-free
serial run — faults change wall time and the recovery log, never
simulated results.
"""

import dataclasses
import os
import pickle
import zlib

import pytest

from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
    small_test_system,
)
from repro.core import ZSim
from repro.core.domains import CoreWeave
from repro.cpu import BranchPredictor, OOOCore, SimpleCore
from repro.dbt.instrumentation import InstrumentedStream
from repro.errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    DeadlockError,
    ExecutionFault,
    WallClockExceeded,
    WatchdogTimeout,
    WorkerFailure,
)
from repro.exec import make_backend
from repro.exec.serial import SerialBackend
from repro.memory import (Cache, CacheArray, CacheBankWeave, MainMemory,
                          MemCtrlWeave, RandomRepl, TreePLRU)
from repro.resilience import (
    FORMAT_VERSION,
    Checkpointer,
    capture_state,
    read_checkpoint,
    read_latest_checkpoint,
    write_checkpoint,
)
from repro.obs.flight import FlightRecorder
from repro.resilience.checkpoint import MAGIC
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import Supervisor
from repro.stats.diff import assert_equivalent
from repro.workloads import mt_workload

from conftest import latest, unfired

WATCHDOG_S = 0.25

#: One spec per fault kind, each exercising a different detection path:
#: raise -> WorkerFailure, kill/stall/delay -> WatchdogTimeout,
#: corrupt -> HorizonViolation.
FAULT_MATRIX = ("raise@2:w0", "kill@2", "stall@3", "delay@2:0.4",
                "corrupt@3")


def _matrix_config(backend):
    """16 cores over 4 tiles so the weave runs multiple domains and the
    parallel paths are actually parallel."""
    cfg = SystemConfig(
        name="resilience-16c",
        num_tiles=4,
        cores_per_tile=4,
        core=CoreConfig(model="simple"),
        l1i=CacheConfig(name="l1i", size_kb=4, ways=2, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=4, ways=4, latency=4),
        l2=CacheConfig(name="l2", size_kb=16, ways=4, latency=7),
        l2_shared_per_tile=True,
        l3=CacheConfig(name="l3", size_kb=64, ways=8, latency=14,
                       banks=4),
        boundweave=BoundWeaveConfig(host_threads=4, backend=backend,
                                    watchdog_budget_s=WATCHDOG_S),
    )
    return cfg.validate()


def _matrix_sim(backend, instrs=25_000):
    config = _matrix_config(backend)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=instrs))


def _stats_tree(result):
    tree = result.stats().to_dict()
    # Host-side stats (wall times, backend name, recovery counters) are
    # the one legitimate difference between backends and between
    # faulted and fault-free runs.
    tree.pop("host", None)
    return tree


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial run of the matrix workload."""
    return _stats_tree(_matrix_sim("serial").run())


# ---------------------------------------------------------------------
# Fault plan grammar
# ---------------------------------------------------------------------


class TestFaultPlanGrammar:
    def test_parse_all_kinds_and_selectors(self):
        plan = FaultPlan.parse(
            "kill@3:w0; stall@5:w1:0.5; delay@6:0.2; raise@2:c1; "
            "corrupt@4:d1; raise@7:weave-stage")
        kinds = [type(f).kind for f in plan.faults]
        assert kinds == ["kill", "stall", "delay", "raise", "corrupt",
                        "raise"]
        kill, stall, delay, raise_, corrupt, staged = plan.faults
        assert (kill.interval, kill.worker) == (3, 0)
        assert (stall.worker, stall.seconds) == (1, 0.5)
        assert delay.seconds == 0.2
        assert raise_.core == 1
        assert corrupt.domain == 1
        assert staged.phase == "weave-stage"

    def test_describe_roundtrips(self):
        for spec in FAULT_MATRIX:
            plan = FaultPlan.parse(spec)
            assert FaultPlan.parse(plan.faults[0].describe()).faults

    @pytest.mark.parametrize("bad", ["", "  ;  ", "explode@3", "kill",
                                     "kill@x", "kill@3:q9"])
    def test_malformed_raises_config_error(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("nope@1")

    def test_matching_consumes_a_fault_once(self):
        plan = FaultPlan.parse("raise@2:w0")
        ctx = {"interval": 2, "worker": 0, "phase": "bound"}
        fn = plan.wrap(lambda i: None, ctx, backend=None, epoch=0)
        assert fn is not None and unfired(plan) == []
        # Second dispatch with the same context: already consumed.
        sentinel = object()
        assert plan.wrap(sentinel, ctx, backend=None, epoch=0) is sentinel


# ---------------------------------------------------------------------
# The fault matrix: every fault caught, recovered, and invisible in the
# final stats
# ---------------------------------------------------------------------


class TestFaultMatrix:
    @pytest.mark.parametrize("backend", ["parallel", "pipelined"])
    @pytest.mark.parametrize("spec", FAULT_MATRIX)
    def test_supervised_run_matches_serial(self, backend, spec,
                                           serial_baseline):
        sim = _matrix_sim(backend)
        plan = FaultPlan.parse(spec, seed=7)
        sim.backend.fault_plan = plan
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        tree = _stats_tree(sim.run())
        assert unfired(plan) == [], "fault never fired: %s" % spec
        assert supervisor.recoveries >= 1
        assert not supervisor.fallback_permanent
        assert_equivalent(tree, serial_baseline,
                          context="%s under %s" % (spec, backend))

    def test_history_records_fault_context(self, serial_baseline):
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("raise@2:w0")
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        sim.run()
        assert len(supervisor.history) == 1
        entry = supervisor.history[0]
        assert entry["kind"] == "WorkerFailure"
        assert entry["interval"] == 2
        assert entry["worker"] == 0

    def test_stats_tree_reports_recovery_counters(self):
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("raise@2:w0")
        Supervisor(sim, max_retries=3, backoff_intervals=1)
        tree = sim.run().stats().to_dict()
        res = tree["host"]["resilience"]
        assert res["recoveries"] == 1
        assert res["fallback_permanent"] == 0


class TestPermanentFallback:
    def test_repeated_faults_fall_back_to_serial(self, serial_baseline):
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("raise@2:w0")
        supervisor = Supervisor(sim, max_retries=1, backoff_intervals=0)
        tree = _stats_tree(sim.run())
        assert supervisor.fallback_permanent
        assert isinstance(sim.backend, SerialBackend)
        assert sim.host_model.backend_name == "serial"
        # Degraded, not wrong: the run still matches the reference.
        assert_equivalent(tree, serial_baseline,
                          context="permanent fallback")


# ---------------------------------------------------------------------
# Unsupervised failure propagation (the satellite fixes in repro.exec)
# ---------------------------------------------------------------------


class TestUnsupervisedPropagation:
    def test_worker_failure_chains_the_original(self):
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("raise@2:w0")
        with pytest.raises(WorkerFailure) as excinfo:
            sim.run()
        failure = excinfo.value
        assert isinstance(failure.__cause__, RuntimeError)
        assert "injected failure" in str(failure.__cause__)
        assert "injected failure" in failure.traceback_text
        assert failure.interval == 2
        assert isinstance(failure, ExecutionFault)

    def test_killed_worker_surfaces_as_watchdog_timeout(self):
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("kill@2")
        with pytest.raises(WatchdogTimeout) as excinfo:
            sim.run()
        assert excinfo.value.budget_s == pytest.approx(WATCHDOG_S)

    def test_shutdown_does_not_hang_on_poisoned_pool(self):
        """After a kill fault the dead worker's inbox never drains;
        shutdown must bound its sentinel delivery and joins instead of
        wedging (ZSim.run already shut down once in its finally — this
        is the explicit second call)."""
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("kill@2")
        backend = sim.backend
        with pytest.raises(WatchdogTimeout):
            sim.run()
        backend.shutdown()  # must return promptly, not hang
        assert backend._workers == []

    def test_run_shuts_backend_down_when_backend_raises(self,
                                                        tiny_config):
        shutdowns = []

        class Exploding(SerialBackend):
            def run_bound_pass(self, bound, cores, limit_cycle,
                               timings):
                raise RuntimeError("host backend exploded")

            def shutdown(self):
                shutdowns.append(True)

        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
        sim = ZSim(tiny_config,
                   threads=wl.make_threads(target_instrs=2_000),
                   backend=Exploding())
        with pytest.raises(RuntimeError, match="exploded"):
            sim.run()
        assert shutdowns  # the try/finally in ZSim.run fired


# ---------------------------------------------------------------------
# Typed errors (satellites)
# ---------------------------------------------------------------------


class TestTypedErrors:
    def _deadlocked_sim(self, tiny_config):
        from repro.dbt.instrumentation import InstrumentedStream
        from repro.isa.opcodes import Opcode
        from repro.isa.program import BBLExec, Instruction, Program
        from repro.virt import SimThread
        from repro.virt.syscalls import FutexWait

        program = Program("dead")
        block = program.add_block([Instruction(Opcode.SYSCALL)])

        def stuck(key):
            yield BBLExec(block, (), syscall=FutexWait(key))

        return ZSim(tiny_config, threads=[
            SimThread(InstrumentedStream(stuck("a")), name="spin-a"),
            SimThread(InstrumentedStream(stuck("b")), name="spin-b")])

    def test_deadlock_is_typed_and_carries_the_blocked_set(
            self, tiny_config):
        sim = self._deadlocked_sim(tiny_config)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        err = excinfo.value
        assert isinstance(err, RuntimeError)  # old handlers keep working
        assert err.next_wake is None
        names = {entry["thread"] for entry in err.blocked}
        assert names == {"spin-a", "spin-b"}

    def test_unknown_backend_is_a_typed_config_error(self):
        with pytest.raises(ConfigError):
            make_backend("quantum")
        with pytest.raises(ValueError, match="backend"):
            make_backend("quantum")

    def test_config_validation_raises_config_error(self):
        cfg = small_test_system(num_cores=2)
        cfg = dataclasses.replace(
            cfg, boundweave=dataclasses.replace(cfg.boundweave,
                                                watchdog_budget_s=-1.0))
        with pytest.raises(ConfigError, match="watchdog"):
            cfg.validate()
        cfg = small_test_system(num_cores=2)
        cfg = dataclasses.replace(
            cfg, boundweave=dataclasses.replace(cfg.boundweave,
                                                recovery_max_retries=0))
        with pytest.raises(ConfigError, match="retries"):
            cfg.validate()


# ---------------------------------------------------------------------
# Wall-clock budget
# ---------------------------------------------------------------------


class TestWallClockBudget:
    def _sim(self, tmp_path=None):
        cfg = small_test_system(num_cores=4)
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
        sim = ZSim(cfg, threads=wl.make_threads(target_instrs=8_000))
        if tmp_path is not None:
            sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        return sim

    def test_exhausted_budget_raises_typed_error(self):
        sim = self._sim()
        sim.max_wall_seconds = 0.0
        with pytest.raises(WallClockExceeded) as excinfo:
            sim.run()
        err = excinfo.value
        assert err.budget_s == 0.0
        assert err.checkpoint_path is None

    def test_budget_stop_writes_a_final_checkpoint(self, tmp_path):
        sim = self._sim(tmp_path / "ckpt")
        sim.max_wall_seconds = 0.0
        with pytest.raises(WallClockExceeded) as excinfo:
            sim.run()
        path = excinfo.value.checkpoint_path
        assert path is not None and os.path.exists(path)
        assert read_checkpoint(path)["version"] == FORMAT_VERSION


# ---------------------------------------------------------------------
# Checkpoint format and resume
# ---------------------------------------------------------------------


_CORE_SLOTS = {"bbls", "config", "core_id", "instrs", "l1d_misses",
               "l1i_misses", "l2_misses", "l3_misses", "loads", "mem",
               "pending_syscall", "stores", "stream", "trace", "uops"}
_WEAVE_SLOTS = {"name", "tile", "domain", "events_executed"}

#: The slot names each model class pickles in a format-4 capsule (the
#: union over its MRO; format 4's LRU policy class no longer exists).  A
#: capsule restores slots by name, so changing one of these sets changes
#: the capsule format: bump FORMAT_VERSION together with this table.
_FORMAT_4_SLOTS = {
    TreePLRU: {"ways", "_bits"},
    RandomRepl: {"ways", "_rng"},
    CacheArray: {"num_sets", "hash_sets", "ways", "repl", "seed", "_free",
                 "_lines", "_ways", "_repl"},
    Cache: {"name", "level", "latency", "tile", "array", "children",
            "child_id", "down_latency", "weave", "noc_routes",
            "_parent_banks", "_parent_net", "_parent_hashed", "_sharers",
            "_owner", "accesses", "hits", "misses", "evictions",
            "writebacks", "invalidations", "downgrades", "upgrades",
            "prefetch_fills", "dir_ops"},
    MainMemory: {"config", "network", "num_tiles", "level", "name",
                 "children", "down_latency", "ctrl_weaves", "noc_routes",
                 "_num_ctrls", "_zero_load", "_ctrl_tiles", "_net_to_ctrl",
                 "_sharers", "_owner", "reads", "writebacks", "dir_ops"},
    SimpleCore: _CORE_SLOTS | {"_cycle", "_last_fetch_line"},
    OOOCore: _CORE_SLOTS | {
        "bpred", "_fetch_clock", "_decode_clock", "_issue_clock",
        "_issue_slots", "_retire_clock", "_retire_slots", "_scoreboard",
        "_ports_used", "_ports_ops", "_ports_pruned", "_rob", "_window",
        "_store_buffer", "_store_order", "_load_releases",
        "_last_store_cycle", "_last_mem_done", "_fence_cycle",
        "_line_bytes", "_last_fetch_line", "_mispredict_resume",
        "_lsd_recent", "lsd_streams", "cond_branches", "mispredicts",
        "forwarded_loads", "wrong_path_fetches", "debug_trace"},
    BranchPredictor: {"history_bits", "table_size", "mispredict_penalty",
                      "_mask", "_history", "_history_mask", "_pht",
                      "predictions", "mispredictions"},
    CacheBankWeave: _WEAVE_SLOTS | {
        "latency", "ports", "mshrs", "miss_hold_cycles", "_port_timeline",
        "_mshr_release", "port_stall_cycles", "mshr_stall_cycles"},
    MemCtrlWeave: _WEAVE_SLOTS | {
        "cfg", "ratio", "num_banks", "channels", "access_cycles",
        "bank_busy_cycles", "burst_core_cycles", "overhead",
        "_pd_threshold", "_pd_exit", "_banks", "_data_bus",
        "_last_activity", "bank_conflict_cycles", "bus_conflict_cycles",
        "powerdown_exits"},
    CoreWeave: {"name", "core_id", "tile", "domain", "events_executed"},
    InstrumentedStream: {"_stream", "tcache", "program_id", "magic_handler",
                         "instrs_retired", "bbls_executed", "pulled",
                         "_pushback", "_log", "_log_mark"},
}


#: Format 5 dropped the OOO core's prune countdown and horizon (port
#: occupancy is pruned when ``run_until`` returns) and made
#: ``CacheArray._free`` a bytearray; every other slot is format 4's.
_FORMAT_5_SLOTS = dict(_FORMAT_4_SLOTS)
_FORMAT_5_SLOTS[OOOCore] = _FORMAT_4_SLOTS[OOOCore] - {"_ports_ops",
                                                      "_ports_pruned"}

#: Format 6 made an LRU set a recency-ordered line map (no way list, no
#: LRU policy object); a way-picking policy owns its set's way list and
#: line -> way map.
_FORMAT_6_SLOTS = dict(_FORMAT_5_SLOTS)
_FORMAT_6_SLOTS[CacheArray] = _FORMAT_5_SLOTS[CacheArray] - {"_ways"}
for _policy in (TreePLRU, RandomRepl):
    _FORMAT_6_SLOTS[_policy] = _FORMAT_5_SLOTS[_policy] | {"_way_line",
                                                           "_line_way"}


def _slot_names(cls):
    return {name for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())}


def _model_objects(sim):
    """Every instance of a slotted model class a simulator holds."""
    hierarchy = sim.hierarchy
    objects = list(sim.cores) + [hierarchy.mainmem]
    objects += [core.bpred for core in sim.cores if hasattr(core, "bpred")]
    for cache in hierarchy.all_caches():
        objects += [cache, cache.array]
        objects += [repl for repl in cache.array._repl or ()
                    if repl is not None]
    objects += hierarchy.weave_components + list(sim.weave.core_weaves)
    objects += [thread.stream for thread in sim.scheduler.threads]
    return objects


def _small_sim(instrs=8_000, core_model="simple"):
    cfg = small_test_system(num_cores=4, core_model=core_model)
    wl = mt_workload("blackscholes", scale=1 / 64, num_threads=4)
    return ZSim(cfg, threads=wl.make_threads(target_instrs=instrs)), wl


class TestCheckpointFormat:
    def test_roundtrip_preserves_capsule_fields(self, tmp_path):
        sim, _ = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000,
                         meta={"workload": "blackscholes"})
        capsule = read_checkpoint(path)
        assert capsule["version"] == FORMAT_VERSION
        assert capsule["interval"] == 0
        assert capsule["limit"] == 1000
        assert capsule["backend"] == "serial"
        assert capsule["meta"] == {"workload": "blackscholes"}
        assert capsule["config_name"] == sim.config.name

    def test_roundtrip_keeps_every_next_victim(self, tmp_path):
        """A capsule carries each set's recency order: after a round
        trip every set names the same next victim and lists its lines
        in the same order."""
        sim, _ = _small_sim()
        sim.run(max_intervals=4)
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=4, limit=4000)
        restored = read_checkpoint(path)["sim"]

        def victims(state):
            return {cache.name: [next(iter(lines), None)
                                 for lines in cache.array._lines]
                    for cache in state.hierarchy.all_caches()}

        before = victims(sim)
        assert any(victim is not None for names in before.values()
                   for victim in names)
        assert victims(restored) == before
        for mine, theirs in zip(sim.hierarchy.all_caches(),
                                restored.hierarchy.all_caches()):
            assert list(theirs.array.resident_lines()) \
                == list(mine.array.resident_lines())

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"hello world\nnot a checkpoint")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_version_skew_is_typed(self, tmp_path):
        body = pickle.dumps({})
        path = tmp_path / "future.pkl"
        path.write_bytes(b"repro-ckpt %d %08x\n"
                         % (FORMAT_VERSION + 1, zlib.crc32(body))
                         + body)
        with pytest.raises(CheckpointVersionError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.found == FORMAT_VERSION + 1
        assert excinfo.value.expected == FORMAT_VERSION

    @pytest.mark.parametrize("found", (1, 2, 3, 4, 5))
    def test_old_capsule_is_refused_not_migrated(self, tmp_path, found):
        """A v1 capsule holds list rings with head indices and
        list-of-edge events, a v2 capsule a pickled event pool this
        build has no class for, a v3 capsule model objects as
        ``__dict__`` state and repr-based deep digests, a v4 capsule OOO
        cores with a port-prune countdown and list free-way vectors, a
        v5 capsule LRU stamp objects, way lists and ``(way, state)``
        line maps; none is migrated, all are refused typed — with a
        valid checksum, by file and through the directory fallback."""
        assert FORMAT_VERSION == 6
        sim, _ = _small_sim()
        path = str(tmp_path / "ckpt-00000001.pkl")
        write_checkpoint(path, sim, interval=1, limit=1000)
        _header, body = open(path, "rb").read().split(b"\n", 1)
        open(path, "wb").write(
            b"repro-ckpt %d %08x\n" % (found, zlib.crc32(body)) + body)
        with pytest.raises(CheckpointVersionError) as excinfo:
            read_checkpoint(path)
        assert (excinfo.value.found, excinfo.value.expected) == (found, 6)
        with pytest.raises(CheckpointError, match="format v%d" % found):
            read_latest_checkpoint(str(tmp_path))

    def test_corrupt_payload_fails_the_checksum(self, tmp_path):
        sim, _ = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_latest_picks_highest_interval(self, tmp_path):
        assert latest(str(tmp_path)) is None
        for interval in (3, 12, 7):
            (tmp_path / ("ckpt-%08d.pkl" % interval)).write_bytes(b"")
        assert latest(str(tmp_path)).endswith("ckpt-%08d.pkl" % 12)

    def test_checkpointer_stride_and_prune(self, tmp_path):
        sim, _ = _small_sim()
        ckpt = Checkpointer(str(tmp_path), every=2, keep=2)
        for interval in range(1, 7):
            ckpt.maybe_save(sim, interval, limit=1000 * interval)
        names = sorted(os.listdir(str(tmp_path)))
        prefix = "ckpt-%s-" % ckpt.run_id
        assert names == ["%s%08d.pkl" % (prefix, 4),
                         "%s%08d.pkl" % (prefix, 6)]
        assert ckpt.saved == 3  # intervals 2, 4, 6

    def test_prune_spares_other_runs_in_a_shared_dir(self, tmp_path):
        """Two runs sharing --checkpoint-dir: each prunes only its own
        files, so one run's stride can no longer delete the other's
        newest checkpoint out from under a resume (regression)."""
        sim, _ = _small_sim()
        mine = Checkpointer(str(tmp_path), every=1, keep=1)
        other = Checkpointer(str(tmp_path), every=1, keep=1)
        # A legacy unqualified checkpoint must survive pruning too.
        legacy = tmp_path / ("ckpt-%08d.pkl" % 1)
        legacy.write_bytes(b"")
        other.save(sim, 1, limit=1000)
        mine.save(sim, 1, limit=1000)
        mine.save(sim, 2, limit=2000)  # prunes mine's interval 1 only
        names = set(os.listdir(str(tmp_path)))
        assert "ckpt-%s-%08d.pkl" % (other.run_id, 1) in names
        assert "ckpt-%s-%08d.pkl" % (mine.run_id, 1) not in names
        assert "ckpt-%s-%08d.pkl" % (mine.run_id, 2) in names
        assert legacy.name in names
        # latest() reads across runs and both filename forms.
        assert latest(str(tmp_path)).endswith("-%08d.pkl" % 2)


class TestCheckpointFallback:
    @staticmethod
    def _write_capsule(path, interval):
        # A well-formed capsule file without a real simulator: the
        # fallback decision rides on the header (magic, version, CRC),
        # which is all these tests corrupt.
        capsule = {"version": FORMAT_VERSION, "interval": interval,
                   "sim": pickle.dumps({"fake": True})}
        body = pickle.dumps(capsule)
        header = b"%s %d %08x\n" % (MAGIC, FORMAT_VERSION,
                                    zlib.crc32(body) & 0xFFFFFFFF)
        with open(path, "wb") as fh:
            fh.write(header + body)

    def _write_two(self, tmp_path):
        newest = str(tmp_path / "ckpt-x-00000004.pkl")
        older = str(tmp_path / "ckpt-x-00000002.pkl")
        self._write_capsule(older, 2)
        self._write_capsule(newest, 4)
        return older, newest

    def test_falls_back_past_a_corrupt_newest(self, tmp_path):
        older, newest = self._write_two(tmp_path)
        with open(newest, "r+b") as fh:  # truncate mid-body
            fh.truncate(20)
        flight = FlightRecorder()
        path, capsule = read_latest_checkpoint(str(tmp_path),
                                               flight=flight)
        assert path == older
        assert capsule["interval"] == 2
        assert any(e["kind"] == "checkpoint_fallback"
                   for e in flight.events())

    def test_raises_only_when_no_candidate_is_valid(self, tmp_path):
        older, newest = self._write_two(tmp_path)
        for path in (older, newest):
            with open(path, "r+b") as fh:
                fh.truncate(20)
        with pytest.raises(CheckpointError, match="all 2 candidate"):
            read_latest_checkpoint(str(tmp_path))
        with pytest.raises(CheckpointError, match="no checkpoints"):
            read_latest_checkpoint(str(tmp_path / "empty"))


class TestOrphanCleanup:
    def test_checkpointer_prunes_only_its_own_temps(self, tmp_path):
        mine = str(tmp_path / "ckpt-run1-00000003.pkl.999.tmp")
        other = str(tmp_path / "ckpt-run2-00000003.pkl.999.tmp")
        for path in (mine, other):
            with open(path, "w") as fh:
                fh.write("stale")
        Checkpointer(str(tmp_path), run_id="run1")
        assert not os.path.exists(mine)
        assert os.path.exists(other)


    def test_resume_prunes_the_killed_runs_files(self, tmp_path):
        """``--resume DIR --checkpoint-dir DIR`` carries on under the
        killed run's id: its orphaned temp goes, and its capsules are
        pruned with the new ones to ``keep``."""
        from repro.cli import main as cli_main
        ckpts = str(tmp_path)
        argv = ["run", "--config", "test", "--cores", "2",
                "--workload", "blackscholes", "--scale", "0.02",
                "--instrs", "8000", "--checkpoint-dir", ckpts,
                "--checkpoint-every", "1", "--no-flight"]
        # The "killed" run: a budget spent at once checkpoints interval
        # 0 and stops.
        assert cli_main(argv + ["--max-wall-seconds", "1e-9"]) == 75
        (capsule,) = os.listdir(ckpts)
        orphan = os.path.join(ckpts, capsule + ".4242.tmp")
        with open(orphan, "w") as fh:
            fh.write("stale")
        # The capsule carries the spent budget; the resumed run gets a
        # fresh one, as a resume with the original flags would.
        assert cli_main(argv + ["--resume", ckpts,
                                "--max-wall-seconds", "3600"]) == 0
        assert not os.path.exists(orphan)
        left = os.listdir(ckpts)
        assert len(left) <= 2  # the Checkpointer's default keep
        assert capsule not in left


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        baseline_sim, _ = _small_sim()
        baseline = _stats_tree(baseline_sim.run())

        partial, wl = _small_sim()
        partial.checkpointer = Checkpointer(str(tmp_path), every=1)
        partial.run(max_intervals=5)  # "killed" mid-run

        capsule = read_checkpoint(latest(str(tmp_path)))
        threads = wl.make_threads(target_instrs=8_000)
        resumed = ZSim.resume(capsule, threads)
        assert_equivalent(_stats_tree(resumed.run()), baseline,
                          context="resume vs uninterrupted")

    @pytest.mark.parametrize("cls", list(_FORMAT_4_SLOTS),
                             ids=lambda cls: cls.__name__)
    def test_format_4_pins_the_slots_of_every_pickled_class(self, cls):
        """Format 4's slot table, as formats 5 and 6 changed it, is
        what this build pickles: a slot change without a bump fails
        here."""
        assert FORMAT_VERSION == 6
        assert _slot_names(cls) == _FORMAT_6_SLOTS[cls]

    @pytest.mark.parametrize("core_model", ("simple", "ooo"))
    def test_model_objects_never_carry_a_dict(self, tmp_path, core_model):
        """Reading an instance's ``__dict__`` (pickle does) makes CPython
        3.11 drop its inline attribute storage for good, slowing every
        later access: no model object may have one — fresh, after a
        capture, or rebuilt from a capsule."""
        for cls in _FORMAT_6_SLOTS:
            assert all("__slots__" in vars(klass)
                       for klass in cls.__mro__[:-1]), cls

        def assert_no_dicts(state):
            objects = _model_objects(state)
            assert {type(obj) for obj in objects} <= set(_FORMAT_6_SLOTS)
            assert not [obj for obj in objects if hasattr(obj, "__dict__")]

        sim, _ = _small_sim(core_model=core_model)
        assert_no_dicts(sim)
        sim.checkpointer = Checkpointer(str(tmp_path), every=2)
        sim.run(max_intervals=2)
        capture_state(sim)
        assert_no_dicts(sim)
        assert_no_dicts(read_checkpoint(latest(str(tmp_path)))["sim"])

    def test_resume_after_fault_recovery_matches(self, tmp_path,
                                                 serial_baseline):
        """Checkpointing composes with supervision: recover from a kill
        fault, checkpoint, stop, resume, and the stats still match."""
        sim = _matrix_sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("kill@2")
        Supervisor(sim, max_retries=3, backoff_intervals=1)
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        sim.run(max_intervals=6)

        capsule = read_checkpoint(latest(str(tmp_path)))
        wl = mt_workload("blackscholes", scale=1 / 64, num_threads=16)
        resumed = ZSim.resume(capsule, wl.make_threads(
            target_instrs=25_000))
        assert_equivalent(_stats_tree(resumed.run()), serial_baseline,
                          context="resume after recovery")

    def test_resume_rejects_wrong_thread_count(self, tmp_path):
        sim, wl = _small_sim()
        path = str(tmp_path / "ckpt.pkl")
        write_checkpoint(path, sim, interval=0, limit=1000)
        capsule = read_checkpoint(path)
        threads = wl.make_threads(target_instrs=8_000)[:-1]
        with pytest.raises(CheckpointError, match="threads"):
            ZSim.resume(capsule, threads)
