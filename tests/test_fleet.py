"""Crash-tolerant experiment campaigns (repro.fleet).

The headline property is the chaos guarantee: with worker runs *and*
the orchestrator SIGKILLed at arbitrary points, ``repro fleet resume``
completes every non-quarantined job exactly once, never re-runs a
completed job, and every job's stats tree is identical (modulo ``host``)
to a serial in-process run of the same spec.  The property test at the
bottom kills the orchestrator at random offsets and checks exactly that.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.errors import CheckpointError, FleetError
from repro.fleet import (
    FleetOrchestrator,
    Journal,
    SweepSpec,
    read_journal,
)
from repro.obs import FlightRecorder
from repro.resilience import (
    Checkpointer,
    DecorrelatedJitter,
    read_latest_checkpoint,
)
from repro.resilience.checkpoint import FORMAT_VERSION, MAGIC
from repro.stats import diff_trees, load_tree

#: A tiny but real sweep: two seeds of the same workload on the test
#: system.  Small enough for CI, large enough to exercise concurrency.
TINY_SPEC = {
    "name": "tiny",
    "defaults": {"config": "test", "cores": 2, "instrs": 3000,
                 "scale": 0.03125, "workload": "blackscholes"},
    "grid": {"seed": [0, 1]},
}


def _orchestrate(tmp_path, spec=None, resume=False, **knobs):
    knobs.setdefault("workers", 2)
    knobs.setdefault("backoff_base_s", 0.05)
    knobs.setdefault("term_grace_s", 2.0)
    return FleetOrchestrator(str(tmp_path / "camp"),
                             spec_data=spec, resume=resume, **knobs)


def _serial_stats(tmp_path, job):
    """The oracle: run the job's exact argv in-process, serially."""
    out = str(tmp_path / ("oracle-%s.json" % job.job_id))
    assert main(job.run_argv() + ["--stats-json", out,
                                  "--no-flight"]) == 0
    return out


def _assert_matches_oracle(tmp_path, orchestrator):
    for job in orchestrator.spec.jobs:
        fleet_stats = os.path.join(orchestrator.directory, "jobs",
                                   job.job_id, "stats.json")
        oracle = _serial_stats(tmp_path, job)
        result = diff_trees(load_tree(oracle), load_tree(fleet_stats),
                            ignore=["host"])
        assert result.equivalent, (
            "job %s diverged from the serial oracle:\n%s"
            % (job.job_id, result.render()))


class TestSweepSpec:
    def test_grid_expansion_is_deterministic(self):
        spec = SweepSpec.from_dict(TINY_SPEC)
        again = SweepSpec.from_dict(json.loads(json.dumps(TINY_SPEC)))
        assert [j.job_id for j in spec.jobs] == \
            [j.job_id for j in again.jobs]
        assert len(spec) == 2
        assert spec.jobs[0].params["seed"] == 0

    def test_cartesian_product_over_sorted_axes(self):
        spec = SweepSpec.from_dict({
            "defaults": {"workload": "mcf"},
            "grid": {"seed": [0, 1], "cores": [1, 2]},
        })
        assert len(spec) == 4
        # Axes iterate sorted (cores before seed), so cores is the
        # outer loop.
        assert [(j.params["cores"], j.params["seed"])
                for j in spec.jobs] == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_run_argv_round_trips_through_the_cli_parser(self):
        from repro.cli import build_parser
        spec = SweepSpec.from_dict(TINY_SPEC)
        args = build_parser().parse_args(spec.jobs[1].run_argv())
        assert args.workload == "blackscholes"
        assert args.seed_offset == 1

    def test_rejects_unknown_parameters_and_missing_workload(self):
        with pytest.raises(FleetError, match="unknown job parameter"):
            SweepSpec.from_dict({"defaults": {"workload": "mcf",
                                              "frobnicate": 1}})
        with pytest.raises(FleetError, match="no workload"):
            SweepSpec.from_dict({"defaults": {"cores": 2}})

    def test_rejects_duplicate_jobs_and_empty_sweeps(self):
        with pytest.raises(FleetError, match="duplicate"):
            SweepSpec.from_dict({"jobs": [{"workload": "mcf"},
                                          {"workload": "mcf"}]})
        with pytest.raises(FleetError, match="zero jobs"):
            SweepSpec.from_dict({"name": "empty"})


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append("campaign", name="t")
        journal.append("start", job="j0", attempt=1)
        journal.close()
        records, skipped = read_journal(path)
        assert skipped == 0
        assert [r["event"] for r in records] == ["campaign", "start"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append("campaign", name="t")
        journal.append("start", job="j0", attempt=1)
        journal.close()
        with open(path, "ab") as fh:  # SIGKILL mid-append
            fh.write(b'{"event":"exit","job":"j0","at')
        records, skipped = read_journal(path)
        assert skipped == 1
        assert [r["event"] for r in records] == ["campaign", "start"]

    def test_rotation_compacts_and_prunes_stale_temps(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        stale = str(tmp_path / "j.jsonl.12345.tmp")
        with open(stale, "w") as fh:  # a killed rotation's leftovers
            fh.write("garbage")
        journal = Journal(path, rotate_bytes=4096)
        assert not os.path.exists(stale)
        for index in range(200):
            journal.append("exit", job="j%03d" % index, attempt=1)
        snapshot = [{"event": "state", "job": "j0", "state": "done"}]
        assert journal.maybe_rotate(lambda: snapshot)
        assert journal.rotations == 1
        # The journal stays appendable after rotation.
        journal.append("drain", reason="test")
        journal.close()
        records, skipped = read_journal(path)
        assert skipped == 0
        assert [r["event"] for r in records] == ["state", "drain"]

    def test_rotation_below_threshold_never_snapshots(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"))
        journal.append("campaign", name="t")
        assert not journal.maybe_rotate(
            lambda: pytest.fail("snapshot taken below threshold"))
        journal.close()


class TestBackoff:
    def test_window_and_determinism(self):
        jitter = DecorrelatedJitter(0.5, seed=7)
        draws = [jitter.next() for _ in range(32)]
        assert all(0.5 <= d <= 4.0 for d in draws)
        again = DecorrelatedJitter(0.5, seed=7)
        assert [again.next() for _ in range(32)] == draws

    def test_reset_restarts_the_window(self):
        # reset() shrinks the decorrelated window back to the base
        # (the RNG stream keeps advancing: draws stay decorrelated).
        jitter = DecorrelatedJitter(0.5, seed=7)
        for _ in range(16):
            jitter.next()
        jitter.reset()
        assert 0.5 <= jitter.next() <= 1.5


class TestCheckpointFallback:
    @staticmethod
    def _write_capsule(path, interval):
        # A well-formed capsule file without a real simulator: the
        # fallback decision rides on the header (magic, version, CRC),
        # which is all these tests corrupt.
        import pickle
        import zlib
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

    def test_monitor_prunes_stale_status_temps(self, tmp_path):
        from repro.obs.monitor import prune_status_orphans
        status = str(tmp_path / "status.json")
        stale = status + ".4242.tmp"
        unrelated = str(tmp_path / "other.json.4242.tmp")
        for path in (stale, unrelated):
            with open(path, "w") as fh:
                fh.write("{}")
        prune_status_orphans(status)
        assert not os.path.exists(stale)
        assert os.path.exists(unrelated)


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


class TestOrchestrator:
    def test_small_sweep_matches_the_serial_oracle(self, tmp_path):
        orchestrator = _orchestrate(tmp_path, TINY_SPEC)
        assert orchestrator.run() == 0
        assert all(st.state == "done"
                   for st in orchestrator.jobs.values())
        assert all(st.attempts == 1
                   for st in orchestrator.jobs.values())
        _assert_matches_oracle(tmp_path, orchestrator)

    def test_resume_of_a_finished_campaign_runs_nothing(self, tmp_path):
        orchestrator = _orchestrate(tmp_path, TINY_SPEC)
        assert orchestrator.run() == 0
        again = _orchestrate(tmp_path, resume=True)
        assert again.run() == 0
        assert all(st.attempts == 1 for st in again.jobs.values())

    def test_run_restores_the_callers_signal_handlers(self, tmp_path):
        """An in-process caller gets its SIGTERM / SIGINT handlers back:
        a handler left behind would swallow the caller's first Ctrl-C
        and write to the finished campaign."""
        signums = (signal.SIGTERM, signal.SIGINT)
        before = [signal.getsignal(signum) for signum in signums]
        assert _orchestrate(tmp_path, TINY_SPEC).run() == 0
        assert [signal.getsignal(signum) for signum in signums] == before

    def test_fresh_run_refuses_an_existing_campaign_dir(self, tmp_path):
        orchestrator = _orchestrate(tmp_path, TINY_SPEC)
        orchestrator.run()
        with pytest.raises(FleetError, match="fleet resume"):
            _orchestrate(tmp_path, TINY_SPEC)

    def test_resume_needs_a_campaign_dir(self, tmp_path):
        with pytest.raises(FleetError, match="not a resumable"):
            _orchestrate(tmp_path, resume=True)

    def test_rotten_job_is_quarantined_not_retried_forever(
            self, tmp_path):
        spec = dict(TINY_SPEC, name="rot")
        spec["jobs"] = [{"workload": "nosuchworkload"}]
        orchestrator = _orchestrate(tmp_path, spec, quarantine_after=2)
        assert orchestrator.run() == 1
        states = {st.spec.params["workload"]: st.state
                  for st in orchestrator.jobs.values()}
        assert states["nosuchworkload"] == "quarantined"
        assert states["blackscholes"] == "done"
        rotten = [st for st in orchestrator.jobs.values()
                  if st.state == "quarantined"]
        assert rotten[0].attempts == 2
        records, _ = read_journal(
            os.path.join(orchestrator.directory, "journal.jsonl"))
        assert any(r["event"] == "quarantined" for r in records)

    def test_retry_quarantined_unparks_on_resume(self, tmp_path):
        spec = dict(TINY_SPEC, name="rot")
        spec["jobs"] = [{"workload": "nosuchworkload"}]
        orchestrator = _orchestrate(tmp_path, spec, quarantine_after=1)
        assert orchestrator.run() == 1
        again = _orchestrate(tmp_path, resume=True, quarantine_after=1,
                             retry_quarantined=True)
        rotten = [st for st in again.jobs.values()
                  if "nosuchworkload" in st.job_id]
        assert rotten[0].state == "pending"
        assert again.run() == 1  # still rotten, re-quarantined
        assert rotten[0].attempts == 2


class TestFleetObservability:
    def test_status_file_and_prometheus_text(self, tmp_path):
        from repro.obs.monitor import prometheus_text, render_top
        orchestrator = _orchestrate(tmp_path, TINY_SPEC)
        assert orchestrator.run() == 0
        status_path = os.path.join(orchestrator.directory,
                                   "status.json")
        with open(status_path) as fh:
            status = json.load(fh)
        assert status["kind"] == "fleet"
        assert status["state"] == "done"
        assert status["progress"] == 1.0
        assert status["counts"]["done"] == 2
        text = prometheus_text(status)
        assert "repro_fleet_info" in text
        assert 'repro_fleet_jobs{state="done"} 2' in text
        frame = render_top(status)
        assert "campaign tiny" in frame
        assert "jobs 2/2 done" in frame
        # `repro top --once` and `repro fleet status` both accept it.
        assert main(["top", status_path, "--once"]) == 0
        assert main(["fleet", "status", orchestrator.directory]) == 0


def _spawn_fleet(campdir, specfile, resume=False, env=None):
    sub = (["resume", campdir] if resume
           else ["run", specfile, "--dir", campdir])
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet"] + sub +
        ["--workers", "2", "--backoff-base", "0.05",
         "--term-grace", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, env=env)


class TestChaosResume:
    """The acceptance property: SIGKILL the orchestrator at random
    journal offsets; resume must finish every job exactly once with
    oracle-identical stats."""

    def test_sigkill_orchestrator_then_resume(self, tmp_path):
        rng = random.Random(0xF1EE7)
        campdir = str(tmp_path / "camp")
        specfile = str(tmp_path / "spec.json")
        spec = dict(TINY_SPEC, name="chaos",
                    grid={"seed": [0, 1, 2]})
        with open(specfile, "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))) + "/src",
                env.get("PYTHONPATH", "")) if p])

        proc = _spawn_fleet(campdir, specfile, env=env)
        kills = 0
        for attempt in range(12):
            time.sleep(rng.uniform(0.3, 1.2))
            if proc.poll() is not None:
                break
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            kills += 1
            proc = _spawn_fleet(campdir, specfile, resume=True, env=env)
        rc = proc.wait(timeout=120)
        assert rc == 0, "campaign never completed (rc %s)" % rc

        # Idempotent replay: once a job journals "completed", no later
        # start record may exist for it.
        records, _ = read_journal(os.path.join(campdir,
                                               "journal.jsonl"))
        completed_at = {}
        for index, record in enumerate(records):
            if record.get("event") == "exit" and \
                    record.get("outcome") == "completed":
                completed_at.setdefault(record["job"], index)
            if record.get("event") == "start":
                done = completed_at.get(record["job"])
                assert done is None or index < done, (
                    "job %s re-ran after completing" % record["job"])
        parsed = SweepSpec.from_dict(spec)
        assert set(completed_at) == {j.job_id for j in parsed.jobs}

        # Every job's stats tree matches the serial in-process oracle.
        for job in parsed.jobs:
            fleet_stats = os.path.join(campdir, "jobs", job.job_id,
                                       "stats.json")
            oracle = _serial_stats(tmp_path, job)
            result = diff_trees(load_tree(oracle),
                                load_tree(fleet_stats),
                                ignore=["host"])
            assert result.equivalent, (
                "job %s diverged after %d orchestrator kill(s):\n%s"
                % (job.job_id, kills, result.render()))
