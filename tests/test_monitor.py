"""The live run monitor (repro.obs.monitor): the atomically-rewritten
status file and the ``repro top`` terminal view."""

import glob
import json
import os
import time

from repro.core import ZSim
from repro.config import small_test_system
from repro.obs.monitor import RunMonitor, render_top
from repro.obs.monitor import STATUS_VERSION
from repro.workloads import mt_workload

INSTRS = 20_000


def _build(num_cores=4):
    config = small_test_system(num_cores=num_cores)
    wl = mt_workload("blackscholes", scale=1 / 64,
                     num_threads=num_cores)
    return ZSim(config, threads=wl.make_threads(target_instrs=INSTRS))


class TestStatusFile:
    def test_run_publishes_and_finishes_the_status_file(self, tmp_path):
        path = str(tmp_path / "status.json")
        sim = _build()
        sim.monitor = RunMonitor(path=path, target_instrs=INSTRS,
                                 run_id=sim.flight.run_id)
        sim.run()
        with open(path) as fh:
            status = json.load(fh)
        assert status["version"] == STATUS_VERSION
        assert status["state"] == "done"
        assert status["progress"] == 1.0
        assert status["eta_s"] == 0.0
        assert status["backend"] == "serial"
        assert status["run_id"] == sim.flight.run_id
        assert status["interval"] > 0
        assert status["instrs"] > 0
        assert status["target_instrs"] == INSTRS
        # Atomic writes: no torn temp files survive the run.
        assert glob.glob(str(tmp_path / "*.tmp")) == []

    def test_failed_run_publishes_terminal_state(self, tmp_path):
        from repro.errors import RunInterrupted
        import pytest
        path = str(tmp_path / "status.json")
        sim = _build()
        sim.monitor = RunMonitor(path=path, target_instrs=INSTRS)
        sim.request_stop("unit test")
        with pytest.raises(RunInterrupted):
            sim.run()
        with open(path) as fh:
            status = json.load(fh)
        assert status["state"] == "stopped"

    def test_pathless_monitor_keeps_status_in_memory(self):
        sim = _build()
        sim.monitor = RunMonitor(target_instrs=INSTRS)
        sim.run()
        assert sim.monitor.status["state"] == "done"
        assert sim.monitor.status["progress"] == 1.0


class TestRenderTop:
    STATUS = {
        "run_id": "abcd1234", "backend": "process", "state": "running",
        "interval": 7, "cycle": 70_000, "instrs": 12_345,
        "target_instrs": 100_000, "progress": 0.12,
        "intervals_per_s": 3.5, "instrs_per_s": 41_000.0,
        "eta_s": 2.1, "elapsed_s": 0.3, "spec_hit_rate": 0.93,
        "workers": {"0": {"last_event": "hb_slack", "age_s": 0.2}},
        "pid": 4242, "updated_monotonic": 1000.0,
    }

    def test_frame_shows_identity_progress_and_rates(self):
        text = render_top(self.STATUS, now=1000.5)
        assert "run abcd1234 (pid 4242)" in text
        assert "backend: process" in text
        assert " 12%" in text
        assert "interval 7" in text
        assert "speculation hit rate 93%" in text
        assert "STALE" not in text

    def test_stale_running_status_is_flagged(self):
        text = render_top(self.STATUS, now=1100.0)
        assert "STALE?" in text
        done = dict(self.STATUS, state="done")
        assert "STALE" not in render_top(done, now=1100.0)

    def test_workers_render(self):
        text = render_top(self.STATUS, now=1000.5)
        assert "workers: 0:hb_slack 0.2s" in text
        no_spec = render_top(dict(self.STATUS, spec_hit_rate=None),
                             now=1000.5)
        assert "speculation" not in no_spec


class TestCLITop:
    def test_top_once_exits_by_state(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "status.json"
        status = dict(TestRenderTop.STATUS, state="done",
                      updated_monotonic=time.monotonic())
        path.write_text(json.dumps(status))
        assert main(["top", str(path), "--once"]) == 0
        assert "run abcd1234" in capsys.readouterr().out
        path.write_text(json.dumps(dict(status, state="failed")))
        assert main(["top", str(path), "--once"]) == 1

    def test_top_missing_file_is_a_clean_error(self, tmp_path):
        import pytest
        from repro.cli import main
        with pytest.raises(SystemExit, match="status file"):
            main(["top", str(tmp_path / "nope.json"), "--once"])


class TestOrphanCleanup:
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
