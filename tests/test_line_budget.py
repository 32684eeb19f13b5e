"""Line budgets per package: the ratchet that makes deletions stick.

ROADMAP aim 2 asks for the same behaviour from the least code.  Each
budget below is the package's physical line count (every ``*.py`` line,
blank and comment lines included) at the PR that last shrank it.

The rule: **these numbers may only be lowered.**  A PR that removes code
lowers the budget to the new count in the same commit; a PR that needs
more lines in a package finds them by deleting something else there.
Raising a number is a design decision that belongs in ISSUE.md, not a
test fix.
"""

import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent

BUDGETS = {
    "memory": 2258,
    "core": 1932,
    "cpu": 837,
    "resilience": 1349,
    "obs": 1042,
    "exec": 1711,
    "cli.py": 760,
    "baselines": 274,
    "config": 502,
    "dbt": 360,
    "harness": 660,
    "isa": 722,
    "stats": 487,
    "virt": 740,
    "workloads": 947,
}


def _lines(path):
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(len(f.read_text().splitlines()) for f in files)


@pytest.mark.parametrize("package", sorted(BUDGETS))
def test_package_stays_within_its_line_budget(package):
    lines = _lines(SRC / package)
    assert lines <= BUDGETS[package], (
        "src/repro/%s grew to %d lines (budget %d): delete something "
        "in the package, do not raise the budget"
        % (package, lines, BUDGETS[package]))
