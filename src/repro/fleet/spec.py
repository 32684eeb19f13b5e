"""Sweep specs: the JSON grid a fleet campaign executes.

A sweep spec is a declarative description of a *campaign* — the kind of
run matrix behind the paper's figures (every SPEC workload × a config,
STREAM × thread counts × contention models) — as a JSON document::

    {
      "name": "fig5-small",
      "defaults": {"config": "westmere", "cores": 1, "instrs": 50000},
      "grid": {"workload": ["bzip2", "mcf", "hmmer"], "seed": [0, 1]},
      "jobs": [{"workload": "stream", "threads": 4}]
    }

``defaults`` seeds every job; ``grid`` is expanded as the cartesian
product of its axes (sorted by axis name, so expansion order — and with
it every job id — is deterministic); ``jobs`` appends explicit,
non-grid entries.  Each expanded :class:`JobSpec` maps one-to-one onto
a ``repro run`` invocation, which is what makes the chaos guarantee
checkable: running any job's argv serially must produce a byte-identical
stats tree (``repro diff --ignore host``).

Job ids are stable across processes (``j<index>-<workload>-<hash6>``,
the hash over the canonical parameter JSON): the journal refers to jobs
by id, so resume must re-derive the same ids from the same spec.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from repro.errors import FleetError

#: Job parameters and the ``repro run`` flag each one maps to.  ``seed``
#: maps to ``--seed-offset`` (the workload RNG offset), giving sweeps a
#: cheap statistical axis without touching the kernel recipes.
_FLAG_FOR = {
    "config": "--config",
    "cores": "--cores",
    "core_model": "--core-model",
    "workload": "--workload",
    "scale": "--scale",
    "instrs": "--instrs",
    "threads": "--threads",
    "contention": "--contention",
    "backend": "--backend",
    "seed": "--seed-offset",
    "inject_faults": "--inject-faults",
    "audit_every": "--audit-every",
}

_SPEC_KEYS = ("name", "defaults", "grid", "jobs")


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


class JobSpec:
    """One expanded job: a parameter dict plus its stable identity."""

    def __init__(self, params, index):
        unknown = sorted(set(params) - set(_FLAG_FOR))
        if unknown:
            raise FleetError(
                "unknown job parameter(s) %s (have: %s)"
                % (", ".join(unknown), ", ".join(sorted(_FLAG_FOR))))
        if "workload" not in params:
            raise FleetError("job %d has no workload" % index)
        self.params = dict(params)
        self.index = index
        digest = hashlib.sha1(
            json.dumps(self.params, sort_keys=True).encode()).hexdigest()
        self.job_id = "j%03d-%s-%s" % (index, params["workload"],
                                       digest[:6])

    def run_argv(self):
        """The ``repro run`` argument vector for this job (the
        orchestrator appends its own output/checkpoint flags)."""
        argv = ["run"]
        for key in sorted(self.params):
            argv += [_FLAG_FOR[key], _format_value(self.params[key])]
        return argv

    def describe(self):
        return " ".join("%s=%s" % (k, _format_value(v))
                        for k, v in sorted(self.params.items()))

    def __repr__(self):
        return "JobSpec(%s: %s)" % (self.job_id, self.describe())


class SweepSpec:
    """A parsed sweep spec: name plus the expanded, ordered job list."""

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = list(jobs)
        seen = {}
        for job in self.jobs:
            key = json.dumps(job.params, sort_keys=True)
            if key in seen:
                raise FleetError(
                    "sweep %r expands to duplicate jobs (%s and %s "
                    "have identical parameters: %s)"
                    % (name, seen[key], job.job_id, job.describe()))
            seen[key] = job.job_id

    def __len__(self):
        return len(self.jobs)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise FleetError("a sweep spec must be a JSON object, got %s"
                             % type(data).__name__)
        unknown = sorted(set(data) - set(_SPEC_KEYS))
        if unknown:
            raise FleetError("unknown sweep spec key(s): %s"
                             % ", ".join(unknown))
        name = data.get("name") or "sweep"
        defaults = data.get("defaults") or {}
        if not isinstance(defaults, dict):
            raise FleetError("'defaults' must be an object")
        grid = data.get("grid") or {}
        if not isinstance(grid, dict):
            raise FleetError("'grid' must be an object of axis lists")
        explicit = data.get("jobs") or []
        if not isinstance(explicit, list):
            raise FleetError("'jobs' must be a list of job objects")
        params_list = []
        if grid:
            axes = sorted(grid)
            for axis in axes:
                if not isinstance(grid[axis], list) or not grid[axis]:
                    raise FleetError("grid axis %r must be a non-empty "
                                     "list" % axis)
            for values in itertools.product(*(grid[a] for a in axes)):
                params = dict(defaults)
                params.update(zip(axes, values))
                params_list.append(params)
        elif defaults and not explicit:
            # A spec of only defaults is a single-job campaign.
            params_list.append(dict(defaults))
        for entry in explicit:
            if not isinstance(entry, dict):
                raise FleetError("'jobs' entries must be objects")
            params = dict(defaults)
            params.update(entry)
            params_list.append(params)
        if not params_list:
            raise FleetError("sweep %r expands to zero jobs" % name)
        jobs = [JobSpec(params, index)
                for index, params in enumerate(params_list)]
        return cls(name, jobs)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise FleetError("could not read sweep spec %s: %s"
                             % (path, exc)) from exc
        except ValueError as exc:
            raise FleetError("sweep spec %s is not valid JSON: %s"
                             % (path, exc)) from exc
        return cls.from_dict(data)
