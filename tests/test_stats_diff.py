"""The stats-diff equivalence oracle (repro.stats.diff) and its CLI.

``diff_trees`` is what the backend-determinism tests and CI stand on:
typed per-path mismatch reporting instead of a wall of dict repr, with
subtree pruning (``--ignore host``) and a relative tolerance for the
few legitimately approximate consumers.
"""

import json

import pytest

from repro.cli import main
from repro.stats.diff import (
    DiffResult,
    assert_equivalent,
    diff_trees,
    load_tree,
)

TREE = {
    "cores": {
        "core0": {"cycles": 1000, "instrs": 800},
        "core1": {"cycles": 1000, "instrs": 790},
    },
    "caches": {"l1d": {"hits": 500, "misses": 20}},
    "host": {"wall_seconds": 1.25, "backend": "serial"},
}


def _clone(tree=TREE):
    return json.loads(json.dumps(tree))


class TestDiffTrees:
    def test_identical_trees_are_equivalent(self):
        result = diff_trees(TREE, _clone())
        assert result.equivalent
        assert bool(result)
        assert result.paths_compared == 8
        assert "identical: 8 leaf paths" in result.render()

    def test_value_mismatch_reports_path_and_delta(self):
        other = _clone()
        other["cores"]["core1"]["instrs"] = 795
        result = diff_trees(TREE, other)
        assert not result.equivalent
        (mismatch,) = result.mismatches
        assert mismatch.path == "cores.core1.instrs"
        assert mismatch.kind == "value"
        assert mismatch.delta == -5
        assert "cores.core1.instrs" in result.render()

    def test_missing_and_extra_paths_are_typed(self):
        other = _clone()
        del other["caches"]["l1d"]["misses"]
        other["caches"]["l2"] = {"hits": 1}
        result = diff_trees(TREE, other)
        kinds = {m.path: m.kind for m in result.mismatches}
        assert kinds == {"caches.l1d.misses": "extra",
                        "caches.l2": "missing"}

    def test_scalar_vs_subtree_is_a_type_mismatch(self):
        other = _clone()
        other["caches"]["l1d"] = 520
        result = diff_trees(TREE, other)
        (mismatch,) = result.mismatches
        assert (mismatch.path, mismatch.kind) == ("caches.l1d", "type")

    def test_relative_tolerance_bounds_numeric_drift(self):
        other = _clone()
        other["cores"]["core0"]["cycles"] = 1009  # 0.9% off
        assert not diff_trees(TREE, other).equivalent
        assert diff_trees(TREE, other, tolerance=0.01).equivalent
        assert not diff_trees(TREE, other, tolerance=0.001).equivalent

    def test_non_numeric_values_never_tolerance_match(self):
        a = {"backend": "serial"}
        b = {"backend": "process"}
        assert not diff_trees(a, b, tolerance=0.5).equivalent

    def test_ignore_prunes_subtrees_at_any_depth(self):
        other = _clone()
        other["host"]["wall_seconds"] = 99.0         # top-level host
        other["cores"]["core0"]["host"] = {"x": 1}   # nested host
        result = diff_trees(TREE, other, ignore=("host",))
        assert result.equivalent
        # Pruned subtrees do not inflate the coverage count.
        assert result.paths_compared == 6

    def test_render_caps_the_mismatch_list(self):
        a = {str(i): i for i in range(20)}
        b = {str(i): i + 1 for i in range(20)}
        result = diff_trees(a, b)
        text = result.render(max_report=5)
        assert "20 mismatch(es)" in text
        assert "... and 15 more" in text

    def test_empty_trees_are_equivalent(self):
        result = diff_trees({}, {})
        assert result.equivalent
        assert result.paths_compared == 0


class TestAssertEquivalent:
    def test_passes_and_returns_the_result(self):
        result = assert_equivalent(TREE, _clone())
        assert isinstance(result, DiffResult)
        assert result.equivalent

    def test_failure_names_the_diverged_path_and_context(self):
        other = _clone()
        other["caches"]["l1d"]["hits"] = 501
        with pytest.raises(AssertionError) as excinfo:
            assert_equivalent(TREE, other, context="unit test")
        text = str(excinfo.value)
        assert text.startswith("unit test: ")
        assert "caches.l1d.hits" in text

    def test_ignore_and_tolerance_pass_through(self):
        other = _clone()
        other["host"]["wall_seconds"] = 9.0
        other["cores"]["core0"]["cycles"] = 1001
        assert_equivalent(TREE, other, tolerance=0.01, ignore=("host",))


class TestLoadTree:
    def test_reads_a_bare_tree(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(TREE))
        assert load_tree(str(path)) == TREE

    def test_unwraps_the_stats_envelope(self, tmp_path):
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps({"stats": TREE, "meta": {"x": 1}}))
        assert load_tree(str(path)) == TREE


class TestDiffCLI:
    """``repro diff`` exit codes: 0 equivalent/within tolerance,
    1 divergent — the contract CI scripts on."""

    def _write(self, tmp_path, name, tree):
        path = tmp_path / name
        path.write_text(json.dumps(tree))
        return str(path)

    def test_identical_exits_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", TREE)
        b = self._write(tmp_path, "b.json", _clone())
        assert main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_exits_one_and_reports_paths(self, tmp_path,
                                                   capsys):
        other = _clone()
        other["cores"]["core0"]["instrs"] = 801
        a = self._write(tmp_path, "a.json", TREE)
        b = self._write(tmp_path, "b.json", other)
        assert main(["diff", a, b]) == 1
        assert "cores.core0.instrs" in capsys.readouterr().out

    def test_tolerance_flag_accepts_drift(self, tmp_path):
        other = _clone()
        other["cores"]["core0"]["cycles"] = 1005
        a = self._write(tmp_path, "a.json", TREE)
        b = self._write(tmp_path, "b.json", other)
        assert main(["diff", a, b]) == 1
        assert main(["diff", a, b, "--tolerance", "0.01"]) == 0

    def test_ignore_flag_prunes_host(self, tmp_path):
        other = _clone()
        other["host"]["wall_seconds"] = 77.0
        a = self._write(tmp_path, "a.json", TREE)
        b = self._write(tmp_path, "b.json", other)
        assert main(["diff", a, b]) == 1
        assert main(["diff", a, b, "--ignore", "host"]) == 0

    def test_missing_file_is_a_clean_error(self, tmp_path):
        a = self._write(tmp_path, "a.json", TREE)
        with pytest.raises(SystemExit, match="could not read"):
            main(["diff", a, str(tmp_path / "nope.json")])
