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
    "memory": 2173,
    "core": 1888,
    "cpu": 837,
    "resilience": 1024,
    "obs": 1011,
    "exec": 1682,
    "cli.py": 748,
    "baselines": 267,
    "config": 488,
    "dbt": 164,
    "harness": 428,
    "isa": 716,
    "stats": 417,
    "virt": 740,
    "workloads": 906,
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
