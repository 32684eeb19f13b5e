"""The state-integrity sentinel (repro.resilience.integrity).

Headline properties:

* The fingerprint chain is a pure function of simulated state: every
  backend produces the same chain, and the chain survives checkpoint
  and resume.
* Silent corruption — state damage that raises nothing — is detected
  by the online auditor within one audit stride and ends the run with
  a typed ``IntegrityError``.  Every capsule was audited before it was
  written, so resuming the newest one gives a stats tree byte-identical
  to a fault-free serial run.
* ``repro verify`` certifies a clean checkpoint chain and flags a
  tampered or corrupt capsule, and ``--resume`` refuses one outright.
"""

import pickle
import random
import zlib

import pytest

from repro.cli import main as cli_main
from repro.config import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    SystemConfig,
    tiled_chip,
    westmere,
)
from repro.config.loader import config_from_dict, load_config
from repro.core import ZSim
from repro.errors import (ConfigError, ExecutionFault, IntegrityError,
                          SimulationError)
from repro.memory.coherence import MESI
from repro.memory.hierarchy import MemoryHierarchy
from repro.resilience import (
    FORMAT_VERSION,
    Checkpointer,
    IntegritySentinel,
    audit_invariants,
    capture_state,
    fingerprint_components,
    read_checkpoint,
    verify_state,
    write_checkpoint,
)
from repro.resilience.checkpoint import checkpoints
from repro.resilience.faults import CorruptEvent, FaultPlan
from repro.resilience.supervisor import Supervisor
from repro.resilience.integrity import _crc
from repro.stats.diff import assert_equivalent
from repro.workloads import mt_workload

from conftest import (fill, reference_check_coherence,
                      reference_check_inclusion)

WATCHDOG_S = 0.25


def _config(backend, audit_every=1):
    """16 cores over 4 tiles so the weave runs multiple domains and the
    parallel paths are actually parallel."""
    cfg = SystemConfig(
        name="integrity-16c",
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
                                    watchdog_budget_s=WATCHDOG_S,
                                    audit_every=audit_every),
    )
    return cfg.validate()


def _sim(backend, audit_every=1, instrs=25_000):
    config = _config(backend, audit_every)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=instrs))


def _stats_tree(result):
    tree = result.stats().to_dict()
    tree.pop("host", None)
    return tree


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial run, with its sentinel's final chain."""
    sim = _sim("serial")
    tree = _stats_tree(sim.run())
    return tree, sim.integrity.chain


# ---------------------------------------------------------------------
# Fingerprint chain basics
# ---------------------------------------------------------------------


class TestFingerprintChain:
    def test_sentinel_installed_from_config(self):
        sim = _sim("serial", audit_every=2)
        assert isinstance(sim.integrity, IntegritySentinel)
        assert sim.integrity.audit_every == 2

    def test_disabled_by_default(self):
        cfg = dict(name="plain", num_tiles=1, cores_per_tile=4,
                   core=CoreConfig(model="simple"))
        sim = ZSim(SystemConfig(**cfg).validate(),
                   threads=mt_workload(
                       "blackscholes", scale=1 / 64,
                       num_threads=4).make_threads(target_instrs=5_000))
        assert sim.integrity is None

    def test_chain_identical_across_backends(self, serial_baseline):
        _tree, serial_chain = serial_baseline
        for backend in ("parallel", "process"):
            sim = _sim(backend)
            sim.run()
            assert sim.integrity.chain == serial_chain, backend

    def test_component_digests_name_subsystems(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        digests = fingerprint_components(sim)
        assert "core0" in digests
        assert "sched" in digests
        assert any(key.startswith("mem.l1d") for key in digests)
        assert any(key.startswith("weave.domain") for key in digests)
        assert all(isinstance(v, int) for v in digests.values())

    def test_digests_are_deterministic(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        assert fingerprint_components(sim, deep=True) == \
            fingerprint_components(sim, deep=True)

    def test_summary_shape(self):
        sim = _sim("serial", audit_every=2)
        result = sim.run(max_intervals=4)
        summary = sim.integrity.summary()
        assert summary["fingerprints"] == 4
        assert summary["audits"] == 2
        assert result.stats().to_dict()["host"]["integrity"] == summary


# ---------------------------------------------------------------------
# Online invariant auditing
# ---------------------------------------------------------------------


class TestAuditor:
    def test_clean_run_audits_quietly(self):
        sim = _sim("serial")
        sim.run()
        assert sim.integrity.audits > 0
        assert not [e for e in sim.flight.events()
                    if e["kind"] == "integrity_violation"]

    def test_inclusion_violation_detected(self):
        """Manufacture the silent-corruption shape by hand: evict a
        child-resident line from its parent without telling anyone."""
        sim = _sim("serial")
        sim.run(max_intervals=2)
        l1d = sim.hierarchy.l1d[0]
        for line, _state in l1d.array.resident_lines():
            parent, _net = l1d.parent_select(line)
            if getattr(parent, "array", None) is not None and \
                    parent.array.lookup(line, touch=False) is not None:
                parent.array.invalidate(line)
                break
        else:
            pytest.skip("no L1D-resident line cached in its parent")
        with pytest.raises(IntegrityError) as info:
            sim.integrity.audit(sim)
        assert info.value.component.startswith("mem.")
        assert info.value.excerpt

    def test_scheduler_violation_detected(self):
        sim = _sim("serial")
        sim.run(max_intervals=2)
        sched = sim.scheduler
        # The same thread registered as running on two cores at once.
        thread = next(t for t in sched.threads)
        sched._running[0] = thread
        sched._running[1] = thread
        with pytest.raises(IntegrityError) as info:
            sim.integrity.audit(sim)
        assert info.value.component == "sched"

    def test_integrity_error_is_not_an_execution_fault(self):
        """Interval replay would reproduce it: the supervisor must let
        it end the run."""
        err = IntegrityError("boom", component="core0", excerpt="x",
                             interval=3, phase="audit")
        assert isinstance(err, SimulationError)
        assert not isinstance(err, ExecutionFault)
        assert err.component == "core0"
        assert err.interval == 3


# ---------------------------------------------------------------------
# Set-algebra audits and by-value digests against per-line references
# ---------------------------------------------------------------------


def _finished(config, instrs_per_thread):
    """End state of a blackscholes run filling every core of ``config``."""
    cores = config.num_cores
    wl = mt_workload("blackscholes", scale=1 / 64, num_threads=cores)
    sim = ZSim(config, threads=wl.make_threads(
        target_instrs=instrs_per_thread * cores))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def westmere_end():
    """Private L2s under a six-bank hashed L3."""
    return _finished(westmere(4, "simple"), 5_000)


@pytest.fixture(scope="module")
def tiled_end():
    """Per-tile shared L2s under a four-bank hashed L3."""
    return _finished(tiled_chip(4, "simple", cores_per_tile=16), 1_000)


def _clone(sim):
    return pickle.loads(capture_state(sim))


def _audits(sim, monkeypatch):
    """The shipped checks and the per-line references on one state:
    ``(coherence, inclusion, audit)`` for each."""
    hier = sim.hierarchy
    shipped = (hier.check_coherence(), hier.check_inclusion(),
               set(audit_invariants(sim)))
    with monkeypatch.context() as patch:
        patch.setattr(MemoryHierarchy, "check_coherence",
                      reference_check_coherence)
        patch.setattr(MemoryHierarchy, "check_inclusion",
                      reference_check_inclusion)
        reference = (reference_check_coherence(hier),
                     reference_check_inclusion(hier),
                     set(audit_invariants(sim)))
    return shipped, reference


def _assert_same_verdicts(sim, monkeypatch):
    """Same violations as the references: coherence records equal in
    ascending line order, inclusion records (ascending per child) and
    audit pairs as sets.  Returns the audit's violation pairs."""
    (coherence, inclusion, audit), (ref_coh, ref_inc, ref_audit) = \
        _audits(sim, monkeypatch)
    assert coherence == sorted(ref_coh)
    assert sorted(inclusion) == sorted(ref_inc)
    for child in {child for child, _, _ in inclusion}:
        lines = [line for name, _, line in inclusion if name == child]
        assert lines == sorted(lines)
    assert audit == ref_audit
    return audit


class TestAuditEquivalence:
    def test_clean_states_pass_both(self, westmere_end, tiled_end,
                                    monkeypatch):
        for sim in (westmere_end, tiled_end, _sim("serial")):
            shipped, reference = _audits(sim, monkeypatch)
            assert shipped == reference == ([], [], set())

    def test_second_exclusive_copy(self, westmere_end, monkeypatch):
        sim = _clone(westmere_end)
        l1d = sim.hierarchy.l1d
        line = next(line for line, _ in l1d[0].array.resident_lines()
                    if l1d[1].array.lookup(line, touch=False) is None)
        # Core 0 shares it; only the copy planted in core 1 is E.
        l1d[0].array.update_state(line, MESI.S)
        fill(l1d[1].array, line, MESI.E)
        audit = _assert_same_verdicts(sim, monkeypatch)
        assert sim.hierarchy.check_coherence()[0][0] == line
        assert any("single-writer" in text for _, text in audit)

    def test_child_line_missing_from_parent(self, westmere_end,
                                            monkeypatch):
        sim = _clone(westmere_end)
        hier = sim.hierarchy
        line = next(iter(hier.l1d[2].array.resident_lines()))[0]
        hier.l2s[2].array.invalidate(line)
        _assert_same_verdicts(sim, monkeypatch)
        assert hier.check_inclusion() == [("l1d-2", "l2-2", line)]

    def test_line_in_the_wrong_l3_bank(self, tiled_end, monkeypatch):
        sim = _clone(tiled_end)
        hier = sim.hierarchy
        l2 = hier.l2s[1]
        line, state = next(iter(l2.array.resident_lines()))
        bank, _net = l2.parent_select(line)
        other = hier.l3_banks[(hier.l3_banks.index(bank) + 1)
                              % len(hier.l3_banks)]
        bank.array.invalidate(line)
        fill(other.array, line, state)
        _assert_same_verdicts(sim, monkeypatch)
        assert (l2.name, bank.name, line) in hier.check_inclusion()

    def test_free_way_count_off_by_one(self, westmere_end, monkeypatch):
        sim = _clone(westmere_end)
        array = sim.hierarchy.l2s[0].array
        array._free[array.materialised_sets()[0]] += 1
        audit = _assert_same_verdicts(sim, monkeypatch)
        assert [comp for comp, _ in audit] == ["mem.l2-0"]


class TestDigestEncoding:
    def test_crc_equals_the_per_item_fold(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        walkers = [core.integrity_items for core in sim.cores]
        walkers += [cache.integrity_items
                    for cache in sim.hierarchy.all_caches()]
        walkers += [sim.hierarchy.mainmem.integrity_items,
                    sim.scheduler.integrity_items]
        walkers += [domain.integrity_items for domain in sim.weave.domains]
        for walker in walkers:
            fold = 0
            for item in walker():
                fold = zlib.crc32(
                    repr(item).encode("ascii", "backslashreplace"), fold)
            assert _crc(walker()) == fold & 0xFFFFFFFF

    def test_deep_digest_survives_a_pickle_round_trip(self):
        sim = _sim("serial")
        sim.run(max_intervals=3)
        deep = fingerprint_components(sim, deep=True)
        assert fingerprint_components(_clone(sim), deep=True) == deep
        assert deep != fingerprint_components(sim)

    def test_deep_digest_covers_recency(self):
        """Same lines, same states, different LRU order: the deep digest
        tells the two apart (it decides every later victim), the cheap
        per-barrier one need not."""
        sim = _sim("serial")
        sim.run(max_intervals=3)
        twin = _clone(sim)
        array = twin.hierarchy.l1d[0].array
        lines = next(lines for lines in array._lines if len(lines) >= 2)
        array.lookup(next(iter(lines)))  # least recent -> most recent
        assert sorted(array.resident_lines()) == sorted(
            sim.hierarchy.l1d[0].array.resident_lines())
        assert fingerprint_components(twin) == fingerprint_components(sim)
        deep, twin_deep = (fingerprint_components(state, deep=True)
                           for state in (sim, twin))
        assert [name for name in deep if deep[name] != twin_deep[name]] \
            == ["mem.l1d-0"]


# ---------------------------------------------------------------------
# Silent corruption: detect, end the run, resume from an audited capsule
# ---------------------------------------------------------------------


def _resume_newest(directory):
    """Resume the newest capsule in ``directory`` (no fault plan) and
    run it to completion."""
    capsule = read_checkpoint(checkpoints(directory)[0][1])
    config = _config("serial")
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=config.num_cores)
    return ZSim.resume(capsule, wl.make_threads(target_instrs=25_000),
                       backend="serial", flight=False).run()


class TestSilentCorruptionRecovery:
    @pytest.mark.parametrize("backend", ("serial", "parallel"))
    def test_corrupt_ends_the_run(self, backend):
        """A supervisor does not replay an integrity fault: it leaves
        ``sim.run()`` with its post-mortem capsule."""
        sim = _sim(backend)
        sim.backend.fault_plan = FaultPlan.parse("corrupt@3:c2")
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        with pytest.raises(IntegrityError) as info:
            sim.run()
        assert info.value.interval == 3
        assert info.value.component.startswith("mem.")
        assert supervisor.recoveries == 0
        assert sim.flight.last_capsule["reason"]["kind"] == \
            "IntegrityError"
        events = [e for e in sim.flight.events()
                  if e["kind"] == "integrity_violation"]
        assert events and events[0]["component"] == info.value.component

    @pytest.mark.parametrize("audit_every", (2, 4))
    def test_capsules_left_pass_the_audit(self, tmp_path, audit_every,
                                          serial_baseline):
        """The corruption lands at a barrier the stride skips; the
        checkpoint there audits it first, so no capsule holds it and
        the newest one resumes to the fault-free result."""
        baseline, _chain = serial_baseline
        sim = _sim("serial", audit_every=audit_every)
        sim.backend.fault_plan = FaultPlan.parse("corrupt@3:c2")
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)
        with pytest.raises(IntegrityError) as info:
            sim.run()
        assert info.value.interval == 3
        left = checkpoints(str(tmp_path))
        assert [interval for interval, _path in left] == [2, 1]
        for _interval, path in left:
            assert audit_invariants(read_checkpoint(path)["sim"]) == []
        assert_equivalent(baseline, _stats_tree(_resume_newest(tmp_path)))

    def test_aligned_strides_audit_once(self, tmp_path):
        """A barrier the stride already audited is not audited again
        before its checkpoint."""
        sim = _sim("serial", audit_every=2)
        sim.checkpointer = Checkpointer(str(tmp_path), every=2)
        sim.run(max_intervals=4)
        assert sim.integrity.audits == 2

    def test_loud_corrupt_still_recovers(self, serial_baseline):
        """The d-selector flavor (weave queue timestamps) keeps its
        HorizonViolation path: interval replay under the supervisor."""
        baseline, _chain = serial_baseline
        sim = _sim("parallel")
        sim.backend.fault_plan = FaultPlan.parse("corrupt@3:d1")
        supervisor = Supervisor(sim, max_retries=3, backoff_intervals=1)
        result = sim.run()
        assert supervisor.recoveries == 1
        assert supervisor.history[0]["kind"] == "HorizonViolation"
        assert supervisor.history[0]["interval"] == 3
        assert_equivalent(baseline, _stats_tree(result))


# ---------------------------------------------------------------------
# Checkpoints: capsule records, resume verification, repro verify
# ---------------------------------------------------------------------


def _tamper_first_component(path):
    """Flip one bit of a capsule's first recorded component digest and
    re-seal it with a valid CRC, so only the integrity check can catch
    it.  The body is decoded in place: the embedded simulator stays a
    pickle.  Returns the tampered component's name."""
    with open(path, "rb") as fh:
        fh.readline()
        capsule = pickle.loads(fh.read())
    components = capsule["meta"]["integrity"]["components"]
    key = sorted(components)[0]
    components[key] ^= 1
    body = pickle.dumps(capsule, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as fh:
        fh.write(b"repro-ckpt %d %08x\n"
                 % (FORMAT_VERSION, zlib.crc32(body) & 0xFFFFFFFF))
        fh.write(body)
    return key


def _run_with_checkpoints(tmp_path, audit_every=1, every=2):
    sim = _sim("serial", audit_every=audit_every)
    sim.checkpointer = Checkpointer(str(tmp_path), every=every)
    result = sim.run()
    return sim, result


class TestCheckpointIntegration:
    def test_capsule_carries_integrity_record(self, tmp_path):
        sim, _result = _run_with_checkpoints(tmp_path)
        capsule = read_checkpoint(sim.checkpointer.last_path)
        record = capsule["meta"]["integrity"]
        assert record["interval"] == capsule["interval"]
        assert record["components"]
        verify_state(capsule["sim"], record, context="test")

    def test_resume_verifies_and_matches(self, tmp_path):
        baseline_tree = _stats_tree(_sim("serial").run())
        sim, _result = _run_with_checkpoints(tmp_path)
        capsule = read_checkpoint(sim.checkpointer.last_path)
        config = _config("serial")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=config.num_cores)
        resumed = ZSim.resume(
            capsule, wl.make_threads(target_instrs=25_000),
            backend="serial", flight=False)
        assert resumed.integrity is not None
        tree = _stats_tree(resumed.run())
        assert_equivalent(baseline_tree, tree)

    def test_resume_refuses_tampered_capsule(self, tmp_path):
        sim, _result = _run_with_checkpoints(tmp_path)
        path = sim.checkpointer.last_path
        key = _tamper_first_component(path)
        tampered = read_checkpoint(path)
        config = _config("serial")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=config.num_cores)
        with pytest.raises(IntegrityError) as info:
            ZSim.resume(tampered,
                        wl.make_threads(target_instrs=25_000),
                        backend="serial", flight=False)
        assert info.value.component == key

    def test_checkpointer_survives_write_failure(self, tmp_path,
                                                 monkeypatch):
        """Satellite: a full/read-only disk logs one warning and the
        run keeps going without resume capsules."""
        sim = _sim("serial")
        sim.checkpointer = Checkpointer(str(tmp_path), every=1)

        def enospc(*_args, **_kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("repro.resilience.checkpoint.os.replace",
                            enospc)
        result = sim.run()
        assert result.instrs > 0
        assert sim.checkpointer.saved == 0
        assert sim.checkpointer._write_failed
        events = [e for e in sim.flight.events()
                  if e["kind"] == "checkpoint_failed"]
        assert events
        # No half-written temp files left behind.
        assert not [p for p in tmp_path.iterdir()
                    if p.name.endswith(".tmp")]

    def test_write_checkpoint_cleans_tmp_on_oserror(self, tmp_path,
                                                    monkeypatch):
        sim = _sim("serial")
        sim.run(max_intervals=2)

        def enospc(*_args, **_kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("repro.resilience.checkpoint.os.replace",
                            enospc)
        with pytest.raises(OSError):
            write_checkpoint(str(tmp_path / "c.pkl"), sim, 2, 3000)
        assert list(tmp_path.iterdir()) == []


def _write_corrupt_capsule(path):
    """A capsule as an older build could write it: silently corrupted
    state, sealed with digests and a chain taken from that same state,
    so only an audit of the restored state can tell."""
    sim = _sim("serial")
    sim.run(max_intervals=2)
    assert CorruptEvent(2, core=2).apply_state(sim, random.Random(0))
    limit = 3 * sim.config.boundweave.interval_cycles
    write_checkpoint(str(path), sim, 2, limit,
                     {"integrity": sim.integrity.capsule_record(sim)})
    return path


_RUN_FLAGS = ["--config", "test", "--cores", "8", "--workload",
              "blackscholes", "--scale", "0.02", "--instrs", "20000"]


class TestVerifyCommand:
    def _checkpointed_run(self, tmp_path):
        ckpts = tmp_path / "ckpts"
        argv = ["run"] + _RUN_FLAGS + [
            "--audit-every", "1", "--checkpoint-dir", str(ckpts),
            "--checkpoint-every", "2", "--no-flight"]
        assert cli_main(argv) == 0
        return ckpts

    def test_run_exits_typed_then_resumes_clean(self, tmp_path, capsys):
        """An integrity fault exits 1 with three lines and no
        traceback; the checkpoint directory certifies, and resuming it
        without the fault plan matches the fault-free run."""
        clean, resumed = tmp_path / "clean.json", tmp_path / "resumed.json"
        ckpts = tmp_path / "ckpts"
        assert cli_main(["run"] + _RUN_FLAGS + [
            "--no-flight", "--stats-json", str(clean)]) == 0
        capsys.readouterr()
        argv = ["run"] + _RUN_FLAGS + [
            "--audit-every", "4", "--checkpoint-dir", str(ckpts)]
        assert cli_main(argv + ["--inject-faults", "corrupt@3:c2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "integrity fault at interval 3 in mem.l1d-2: line 0x")
        assert lines[1].startswith("post-mortem capsule: %s" % ckpts)
        assert lines[2] == ("resume with: repro run --resume %s "
                            "<original flags>" % ckpts)
        assert len(lines) == 3
        assert cli_main(["verify", str(ckpts)]) == 0
        assert cli_main(argv + ["--resume", str(ckpts), "--no-flight",
                                "--stats-json", str(resumed)]) == 0
        assert cli_main(["diff", str(clean), str(resumed),
                         "--ignore", "host"]) == 0

    def test_verify_certifies_clean_chain(self, tmp_path, capsys):
        ckpts = self._checkpointed_run(tmp_path)
        assert cli_main(["verify", str(ckpts)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "replayed 1 span(s)" in out
        assert "chain matches" in out

    def test_verify_flags_tampered_capsule(self, tmp_path, capsys):
        ckpts = self._checkpointed_run(tmp_path)
        paths = sorted(ckpts.glob("ckpt-*.pkl"))
        key = _tamper_first_component(paths[-1])
        assert cli_main(["verify", str(ckpts), "--replay", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and key in out

    def test_verify_and_resume_refuse_a_corrupt_state(self, tmp_path,
                                                      capsys):
        path = _write_corrupt_capsule(tmp_path / "ckpt-old-00000002.pkl")
        assert cli_main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "mem.l1d-2" in out
        config = _config("serial")
        wl = mt_workload("blackscholes", scale=1 / 64,
                         num_threads=config.num_cores)
        with pytest.raises(IntegrityError) as info:
            ZSim.resume(read_checkpoint(str(path)),
                        wl.make_threads(target_instrs=25_000),
                        backend="serial", flight=False)
        assert info.value.component == "mem.l1d-2"
        assert info.value.phase == "resume"

    def test_verify_flags_missing_record(self, tmp_path, capsys):
        sim = _sim("serial", audit_every=0)   # no sentinel at all
        assert sim.integrity is None
        sim.checkpointer = Checkpointer(str(tmp_path), every=2)
        sim.run()
        assert cli_main(["verify", str(tmp_path), "--replay", "0"]) == 1
        assert "no integrity record" in capsys.readouterr().out


# ---------------------------------------------------------------------
# Config loader typing (satellite)
# ---------------------------------------------------------------------


class TestConfigTyping:
    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="system.l2"):
            config_from_dict({"l2": {"assoc": 8}})

    def test_wrong_scalar_type_names_path(self):
        with pytest.raises(ConfigError,
                           match=r"system\.l2\.ways: expected int, "
                                 r"got str"):
            config_from_dict({"l2": {"ways": "8"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="expected int, got bool"):
            config_from_dict({"core": {"freq_mhz": True}})

    def test_int_accepted_where_float_declared(self):
        cfg = config_from_dict(
            {"boundweave": {"watchdog_budget_s": 2}})
        assert cfg.boundweave.watchdog_budget_s == 2

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict({"l2": "big"})

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            config_from_dict({"l2": {"ways": "8"}})

    def test_audit_every_validated(self):
        with pytest.raises(ConfigError, match="audit_every"):
            config_from_dict({"boundweave": {"audit_every": -1}})

    @pytest.mark.parametrize("text,match", [
        (None, "No such file"),
        ('{"l2": ', "Expecting"),
        ('[["name", "x"]]', "must be a JSON object, got list"),
        ('{"hetero_cores": {"x": {}}}', "hetero_cores keys must be core"),
    ], ids=["missing", "malformed", "array", "hetero_key"])
    def test_bad_file_is_config_error_naming_it(self, tmp_path, text,
                                                match):
        path = tmp_path / "chip.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=match) as info:
            load_config(str(path))
        assert str(path) in str(info.value)

    def test_cli_rejects_bad_config_file_in_one_line(self, tmp_path,
                                                     capsys):
        path = tmp_path / "chip.json"
        path.write_text('{"l2": {"ways": "8"}}')
        with pytest.raises(SystemExit) as info:
            cli_main(["run", "--config", str(path), "--instrs", "1000"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: %s: " % path)
        assert "system.l2.ways: expected int" in err
        assert "Traceback" not in err
