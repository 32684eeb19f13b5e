"""Contract test of the perf benchmark.

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly:

    python -m pytest benchmarks/perf -q

One ``run.py --smoke`` pass (1/20 size, 1 rep, about a minute) checks
the plumbing end to end; the rest are pure checks of BENCHMARK.json,
the failure accounting and ``compare.py``.
"""

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
NUMBER = r"-?[0-9][0-9.e+-]*"


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(stdout, --json document) of one full smoke pass."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json",
         str(out)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, json.loads(out.read_text())


def test_manifest_is_generated_from_spec(manifest):
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}


def test_manifest_within_contract_limits(manifest):
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert manifest["paths"] == ["benchmarks/perf"]
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_metric_is_printed_with_its_unit(smoke, manifest):
    stdout, _doc = smoke
    workloads = len(manifest["workloads"])
    traced = set(spec.layer_names("traced"))

    def printed(metric):
        pattern = r"^\s+%s\s+%s\s+%s(\s|$)" % (
            re.escape(metric["name"]), NUMBER, re.escape(metric["unit"]))
        return len(re.findall(pattern, stdout, re.MULTILINE))

    for metric in manifest["end_to_end"]:
        assert printed(metric) == workloads, metric["name"]
    for metric in manifest["per_layer"]:
        expected = workloads if metric["name"] in traced else 1
        assert printed(metric) == expected, metric["name"]
    assert "run_fail_share" in stdout
    assert "caches start empty" in stdout


def test_smoke_result_line_and_document(smoke, manifest):
    stdout, doc = smoke
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # 7 x (untraced + accuracy + traced) + the direct-call pass.
    assert result["attempted"] == 3 * len(manifest["workloads"]) + 1
    assert set(result["metrics"]) == {w["name"]
                                      for w in manifest["workloads"]}
    wanted = {m["name"]
              for m in manifest["end_to_end"] + manifest["per_layer"]}
    for metrics in result["metrics"].values():
        assert set(metrics) == wanted
    assert list(doc)[-1] == "claim" and doc["claim"] is None


def test_traced_run_simulates_the_same_cycles(smoke):
    _stdout, doc = smoke
    for name, workload in doc["workloads"].items():
        cycles = workload["cycles"]
        assert cycles["traced"] == cycles["untraced"] > 0, name
        attributed = sum(workload["per_layer"][metric] for metric in
                         ("core.driver_s", "core.weave_s", "cpu.self_s",
                          "memory.access_s", "workloads.stream_s"))
        assert attributed >= 0.95 * workload["traced_wall_s"], name


def good_facts(**changes):
    facts = {"mode": "timed", "unfinished": [], "violations": [],
             "instrs": 1000, "asked": 1000, "ipc": 1.5, "max_ipc": 4,
             "digest": "d0", "wall_s": 1.0}
    facts.update(changes)
    return facts


def test_broken_runs_raise_run_fail_share():
    assert run.judge(good_facts()) == []
    assert run.judge(good_facts(instrs=999))           # short run
    assert run.judge(good_facts(unfinished=["t3"]))
    assert run.judge(good_facts(violations=["mem: inclusion"]))
    assert run.judge(good_facts(ipc=0.0))
    assert run.judge(good_facts(ipc=4.5))
    suite = run.WorkloadRuns(spec.BY_NAME["namd_1c"])
    suite.add("timed", good_facts())
    suite.add("timed", good_facts())
    assert (suite.failed, suite.attempted) == (0, 2)
    suite.add("timed", good_facts(digest="flipped"))
    assert (suite.failed, suite.attempted) == (1, 3)
    suite.add("timed", good_facts(instrs=10))
    assert (suite.failed, suite.attempted) == (2, 4)


def test_a_worker_that_raises_is_a_failed_run():
    broken = dataclasses.replace(spec.BY_NAME["namd_1c"],
                                 kernel="no_such_kernel")
    facts = run.Launcher().run({"mode": "timed", "seed": 0, "scale": 0.01,
                                "workload": dataclasses.asdict(broken)})
    assert "error" in facts and "no_such_kernel" in facts["error"]
    suite = run.WorkloadRuns(broken)
    suite.add("timed", facts)
    assert (suite.failed, suite.attempted) == (1, 1)


def test_launcher_refuses_a_second_worker():
    launcher = run.Launcher()

    class Alive:
        pid = 1

    launcher._alive = Alive()
    with pytest.raises(RuntimeError, match="one at a time"):
        launcher.run({"mode": "timed"})
    assert launcher.launched == 0


def summary(*samples):
    return run.summarise(list(samples))


def test_compare_verdicts():
    lower = {"name": "wall_s", "unit": "s", "better": "lower",
             "bound": 0.10}
    higher = dict(lower, name="mips", better="higher")
    base = summary(1.00, 1.01, 0.99, 1.00, 1.00)
    assert compare.verdict(lower, base, base)[0] == "within-bound"
    worse = summary(1.20, 1.21, 1.19, 1.20, 1.20)
    better = summary(0.80, 0.81, 0.79, 0.80, 0.80)
    assert compare.verdict(lower, base, worse)[0] == "regressed"
    assert compare.verdict(lower, base, better)[0] == "improved"
    assert compare.verdict(higher, base, worse)[0] == "improved"
    assert compare.verdict(higher, base, better)[0] == "regressed"
    noisy = summary(0.7, 0.9, 1.0, 1.1, 1.4)
    assert compare.verdict(lower, base, noisy)[0] == "unresolved"


def test_compare_exits_1_on_regression_or_fail_share_rise(tmp_path,
                                                          capsys):
    def doc(wall, failed):
        return {"workloads": {"namd_1c": {
            "end_to_end": {m["name"]: summary(wall, wall * 1.01)
                           for m in spec.END_TO_END},
            "attempted": 6, "failed": failed, "digest": "d",
            "counters": {}}}}

    paths = {}
    for label, document in (("a", doc(1.0, 0)), ("same", doc(1.0, 0)),
                            ("failing", doc(1.0, 1))):
        paths[label] = tmp_path / ("%s.json" % label)
        paths[label].write_text(json.dumps(document))

    def exit_code(b):
        return compare.main(["compare.py", str(paths["a"]),
                             str(paths[b])])

    assert exit_code("same") == 0
    assert exit_code("failing") == 1
    assert "ROSE" in capsys.readouterr().out


def test_exits_nonzero_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: no result, exit code != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "namd_1c", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
