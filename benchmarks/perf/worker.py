"""One run of the benchmark, in a fresh process.

``run.py`` launches this file once per run, never two at once, with
the job as a JSON object in ``argv[1]``; the last line of stdout is the
run's facts as one JSON object.  The worker only *reports* (seconds,
counts, invariant violations, the stats digest); ``run.py`` decides
whether the run failed.

Modelled caches start empty in every run.
"""

import time

T_ENTRY = time.perf_counter()  # set-up is timed from here

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import spec  # noqa: E402


def stats_digest(result):
    """sha256 of the simulated stats tree (everything but ``host``)."""
    tree = result.stats().to_dict()
    tree.pop("host", None)
    text = json.dumps(tree, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def end_state_facts(sim, result, asked):
    """What the output checks need from a finished run."""
    from repro.resilience.integrity import audit_invariants
    from repro.virt.process import ThreadState

    # audit_invariants runs check_coherence() and check_inclusion()
    # itself, plus the array, weave-queue, scheduler and slab audits.
    violations = ["%s: %s" % pair for pair in audit_invariants(sim)]
    unfinished = [t.name for t in sim.scheduler.threads
                  if t.state != ThreadState.DONE]
    dbt = result.host_dbt
    weave = result.weave_stats
    fast, l2fast, slow = (dbt["fastpath_hits"], dbt["l2_fastpath_hits"],
                          dbt["slow_accesses"])
    return {
        "instrs": result.instrs,
        "asked": asked,
        "cycles": result.cycles,
        "intervals": result.intervals,
        "ipc": result.ipc,
        "max_ipc": sim.config.core.issue_width * sim.config.num_cores,
        "cores": sim.config.num_cores,
        "unfinished": unfinished,
        "violations": violations,
        "digest": stats_digest(result),
        # Public counters, read after the run (deterministic for a
        # seed: two sets of runs must agree on them exactly).
        "counters": {
            "weave_events": weave.events if weave else 0,
            "crossings": weave.crossings if weave else 0,
            "crossing_requeues": weave.crossing_requeues if weave else 0,
            "accesses": fast + l2fast + slow,
            "fastpath_hits": fast,
            "l2_fastpath_hits": l2fast,
            "slow_accesses": slow,
            "dir_ops": dbt["dir_bitmask_ops"],
            "translations": dbt["translations"],
            "translation_hit_rate": dbt["translation_hit_rate"],
            "syscalls": sim.bound.syscalls,
        },
    }


def run_simulation(job, log=None):
    """Build and run one workload; ``log`` (a tracing.SpanLog) turns
    the run into the traced variant.  Returns the facts dict."""
    from repro.core.simulator import ZSim

    workload = spec.Workload(**job["workload"])
    seed = job["seed"]
    instrs = int(workload.instrs * job["scale"])
    config, kernel, threads, asked = spec.build(workload, instrs)
    extra = {}
    if log is None:
        sim_threads = kernel.make_threads(
            target_instrs=asked, num_threads=threads, seed_offset=seed)
    else:
        import tracing
        sim_threads = tracing.traced_threads(kernel, asked, threads, seed,
                                             log)
        extra = {"backend": tracing.TracingBackend(log),
                 "mem_wrapper":
                     lambda mem: tracing.TimedMemory(mem, log.mem)}
    # flight=None is the simulator's default-on flight recorder.
    sim = ZSim(config, threads=sim_threads,
               contention_model=workload.contention,
               flight=None if workload.guarded else False, **extra)
    ckpt_dir = None
    if workload.guarded:
        from repro.resilience import Checkpointer, IntegritySentinel
        ckpt_dir = os.path.join(OUT_DIR, "ckpt-%d" % os.getpid())
        sim.integrity = IntegritySentinel(audit_every=8)
        sim.checkpointer = Checkpointer(ckpt_dir, every=16)
    try:
        start = time.perf_counter()
        if log is not None:
            log.open_root(start)
        result = sim.run()
        end = time.perf_counter()
        if log is not None:
            log.close_root(end)
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    facts = end_state_facts(sim, result, asked)
    facts["setup_s"] = start - T_ENTRY
    facts["wall_s"] = end - start
    facts["mips"] = result.instrs / (end - start) / 1e6
    return facts


def run_traced(job):
    import tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    run_id = "%s-seed%d" % (job["workload"]["name"], job["seed"])
    log = tracing.SpanLog(run_id)
    facts = run_simulation(job, log)
    wall = facts["wall_s"]
    layers = {tracing.LAYER_OF[name]: seconds
              for name, seconds in log.self_seconds().items()}
    layers["core.bound_s"] = log.total_seconds("core.bound_pass")
    counters = facts["counters"]
    intervals = facts["intervals"]
    events = counters["weave_events"]
    accesses = counters["accesses"]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    layers.update({
        "core.weave_us_per_event": per(layers["core.weave_s"] * 1e6,
                                       events),
        "core.weave_events": events,
        "core.crossings": counters["crossings"],
        "core.crossing_requeue_ratio": per(counters["crossing_requeues"],
                                           counters["crossings"]),
        "core.driver_us_per_interval": per(layers["core.driver_s"] * 1e6,
                                           intervals),
        "core.us_per_core_interval": per(wall * 1e6,
                                         facts["cores"] * intervals),
        "core.intervals": intervals,
        "memory.accesses": accesses,
        "memory.fastpath_hit_rate": per(counters["fastpath_hits"],
                                        accesses),
        "memory.l2_fastpath_share": per(counters["l2_fastpath_hits"],
                                        accesses),
        "memory.dir_ops_per_slow_access": per(counters["dir_ops"],
                                              counters["slow_accesses"]),
        "dbt.translation_hit_rate": counters["translation_hit_rate"],
        "dbt.translations": counters["translations"],
        "virt.syscalls": counters["syscalls"],
    })
    facts["layers"] = layers
    facts["spans"] = len(log.spans)
    trace_file = os.path.join(OUT_DIR, "trace_%s.json" % run_id)
    log.write_chrome(trace_file)
    facts["trace_file"] = os.path.relpath(trace_file, HERE)
    return facts


def run_accuracy(job):
    """zsim vs the in-repo golden reference model on the workload's
    100,000-instr companion (simulated time, so deterministic)."""
    from repro.harness.validation import run_real, run_zsim

    workload = spec.Workload(**job["workload"])
    seed = job["seed"]
    instrs = int(spec.COMPANION_INSTRS * job["scale"])
    config, kernel, threads, asked = spec.build(workload, instrs,
                                                companion=True)
    zsim = run_zsim(config, kernel, asked,
                    contention_model=workload.contention,
                    num_threads=threads, seed_offset=seed).ipc
    # The reference machine always models contention.
    ref = run_real(config, kernel, asked, num_threads=threads,
                   seed_offset=seed)[0].ipc
    return {"ipc_zsim": zsim, "ipc_ref": ref,
            "ipc_err_pct": 100.0 * abs(zsim - ref) / ref}


def main(argv):
    job = json.loads(argv[1])
    mode = job["mode"]
    if mode == "timed":
        facts = run_simulation(job)
    elif mode == "traced":
        facts = run_traced(job)
    elif mode == "accuracy":
        facts = run_accuracy(job)
    elif mode == "layers":
        import layers
        facts = {"layers": layers.measure(job["seed"], job["scale"],
                                          job["offline"])}
    else:
        raise ValueError("unknown worker mode %r" % (mode,))
    facts["mode"] = mode
    facts["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(facts))


if __name__ == "__main__":
    main(sys.argv)
