"""A run imports only the code it runs.

With ``PYTHONDONTWRITEBYTECODE=1`` every process compiles every module
it imports, so a module a run never executes still costs start-up time.
Package roots therefore re-export only what every run executes, and an
optional module is imported where it is chosen: ``make_backend`` imports
the named backend, ``ZSim`` the flight recorder and the DRAMSim model.

Each case builds and finishes one small run in a fresh interpreter and
checks which modules it loaded.  It also checks that ``sim.run()``
imports nothing, so a deferred import never lands inside the timed
simulation.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Never loaded by a plain run.
NEVER = (
    "multiprocessing",
    "repro.baselines",
    "repro.cli",
    "repro.exec.parallel",
    "repro.exec.pipelined",
    "repro.exec.process",
    "repro.harness",
    "repro.memory.dramsim",
    "repro.memory.noc_weave",
    "repro.obs.monitor",
    "repro.resilience.faults",
    "repro.stats.ascii_plot",
    "repro.stats.diff",
    "repro.workloads.multiprogrammed",
)

PLAIN = """
from repro.config import westmere
from repro.core.simulator import ZSim
from repro.workloads import spec_workload

threads = spec_workload("namd", 1 / 32).make_threads(target_instrs=5000)
sim = ZSim(westmere(1), threads=threads, flight=False)
"""

GUARDED = """
from repro.config import tiled_chip
from repro.core.simulator import ZSim
from repro.resilience import Checkpointer, IntegritySentinel
from repro.workloads import mt_workload

threads = mt_workload("blackscholes", 1 / 32, 4).make_threads(
    target_instrs=16000)
sim = ZSim(tiled_chip(1), threads=threads)
sim.integrity = IntegritySentinel(audit_every=8)
sim.checkpointer = Checkpointer(CKPT_DIR, every=2)
"""

PROBE = """
import json, sys
before = set(sys.modules)
sim.run()
added = sorted(set(sys.modules) - before)
print(json.dumps({"added": added, "modules": sorted(sys.modules),
                  "audits": getattr(sim.integrity, "audits", 0),
                  "flight": sim.flight is not None}))
"""


def _run(build, tmp_path):
    code = build.replace("CKPT_DIR", repr(str(tmp_path))) + PROBE
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules, names):
    return sorted(m for m in modules
                  if any(m == n or m.startswith(n + ".") for n in names))


def test_plain_run_loads_no_optional_module(tmp_path):
    facts = _run(PLAIN, tmp_path)
    assert not facts["flight"]
    assert _loaded(facts["modules"], NEVER + ("repro.obs.flight",)) == []
    assert facts["added"] == []


def test_guarded_run_loads_only_its_guards(tmp_path):
    facts = _run(GUARDED, tmp_path)
    assert facts["flight"]
    assert "repro.obs.flight" in facts["modules"]
    assert _loaded(facts["modules"], NEVER) == []
    assert facts["added"] == []
    # The guards did their work inside run(): audits and checkpoints.
    assert facts["audits"] > 0
    assert list(tmp_path.glob("ckpt-*.pkl"))

