"""The deterministic cost meter: interpreter opcodes inside ``sim.run()``.

    python3 benchmarks/count_opcodes.py <workload> [--scale S]
    python3 benchmarks/count_opcodes.py --check

Runs one of the repo benchmark's pinned workloads
(``benchmarks/perf/spec.py``; ``seed_offset=4``) under ``sys.settrace``
with per-opcode events and prints the workload, the opcodes executed
inside ``sim.run()`` and the simulated-stats digest.  A guarded workload
runs with the guards ``benchmarks/perf/worker.py`` gives it (the default
flight recorder, audits every 8 intervals, checkpoints every 16 into a
temporary directory); the others run with ``flight=False``.
The count repeats to the last digit across fresh processes (the script
re-executes itself under ``PYTHONHASHSEED=0`` when needed), so a 0.5%
difference between two versions of the program is resolvable in one run
each; it is about 15x slower than an untraced run.  docs/performance.md
("Fork ledger") is written in this unit.  A count compares two versions
of one program and omits everything that is not bytecode dispatch
(allocator, GC, C calls): it is not a speed claim.

The lines after the first split the count by the source file of the
code that executed it, one line per layer and then the total.  Library
code (the standard library's ``random``, ``heapq`` ...) counts toward
the nearest ``repro`` caller on the stack.

``--check`` is the opcode ratchet.  It counts every row that
``opcode_pins.json`` pins for the running interpreter (``"3.11"``), each
in a fresh process, prints each count beside its pin with the count's
per-layer split on the line below, and fails when a count rises above
its pin or a digest differs from its pin.  A count that falls 0.5% or more below its
pin passes with a request to lower the pin, so a saving, once pinned,
cannot be given back.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEED = 4
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "opcode_pins.json")
#: How far below its pin a count must fall to ask for a lower pin.
LOWER_PIN_AT = 0.005

#: Layer of each ``repro`` subpackage (or ``core`` module); anything not
#: listed here is the driver.
LAYERS = ("cpu", "memory", "core.weave", "core.driver", "workloads", "dbt",
          "resilience", "obs")
LAYER_OF = {
    "cpu": "cpu", "memory": "memory", "baselines": "memory",
    "core/weave.py": "core.weave", "core/events.py": "core.weave",
    "core/domains.py": "core.weave", "workloads": "workloads",
    "dbt": "dbt", "isa": "dbt", "resilience": "resilience", "obs": "obs",
}


def layer_of(filename, package_dir):
    """Layer of a source file under ``package_dir``, or None outside."""
    if not filename.startswith(package_dir):
        return None
    rel = filename[len(package_dir):].replace(os.sep, "/")
    return LAYER_OF.get(rel, LAYER_OF.get(rel.split("/")[0],
                                          "core.driver"))


def check():
    """Count each pinned row of this interpreter; returns the exit
    status (1 when a count is above its pin or a digest differs)."""
    version = "%d.%d" % sys.version_info[:2]
    with open(PINS) as f:
        rows = json.load(f).get(version)
    if not rows:
        print("no opcode pins for Python %s in %s" % (version, PINS))
        return 2
    status = 0
    for row in rows:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), row["workload"],
             "--scale", str(row["scale"])],
            check=True, capture_output=True, text=True).stdout
        first, *layers = out.splitlines()
        _name, count, digest = first.split()
        count = int(count)
        pin = row["opcodes"]
        label = "%s --scale %s" % (row["workload"], row["scale"])
        change = (count - pin) / pin
        if digest != row["digest"]:
            verdict = "FAIL: digest %s, pinned %s" % (digest[:12],
                                                      row["digest"][:12])
            status = 1
        elif count > pin:
            verdict = "FAIL: above its pin"
            status = 1
        elif -change >= LOWER_PIN_AT:
            verdict = "ok: lower the pin to %d" % count
        else:
            verdict = "ok"
        print("%-38s %12d  pin %12d  %+6.2f%%  %s"
              % (label, count, pin, 100 * change, verdict))
        print(split_line(layers, count))
    return status


def split_line(layers, total):
    """One indented line of a count's per-layer split: each layer that
    ran, with its share of ``total`` (the layer lines of a count, the
    total line last)."""
    parts = []
    for line in layers[:-1]:
        layer, count = line.split()
        if int(count):
            parts.append("%s %.1f%%" % (layer, 100 * int(count) / total))
    return "    " + "  ".join(parts)


def main(argv):
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    here = os.path.dirname(os.path.abspath(__file__))
    # worker.py puts src/ on sys.path and owns the stats digest.
    sys.path.insert(0, os.path.join(here, "perf"))
    import spec
    import worker

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="?", choices=sorted(spec.BY_NAME))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's pinned size")
    parser.add_argument("--check", action="store_true",
                        help="count the rows of opcode_pins.json and "
                        "fail on one above its pin or off its digest")
    args = parser.parse_args(argv[1:])
    if args.check:
        sys.exit(check())
    if args.workload is None:
        parser.error("name a workload, or pass --check")
    from repro.core.simulator import ZSim

    workload = spec.BY_NAME[args.workload]
    config, kernel, threads, asked = spec.build(
        workload, int(workload.instrs * args.scale))
    # flight=None is the simulator's default-on flight recorder.
    sim = ZSim(config, contention_model=workload.contention,
               flight=None if workload.guarded else False,
               threads=kernel.make_threads(
                   target_instrs=asked, num_threads=threads,
                   seed_offset=SEED))
    ckpt_dir = None
    if workload.guarded:
        from repro.resilience import Checkpointer, IntegritySentinel
        ckpt_dir = tempfile.mkdtemp(prefix="count-opcodes-")
        sim.integrity = IntegritySentinel(audit_every=8)
        sim.checkpointer = Checkpointer(ckpt_dir, every=16)
    import repro
    package_dir = os.path.dirname(repro.__file__) + os.sep
    counts = dict.fromkeys(LAYERS, 0)
    code_layer = {}

    def counter(layer):
        def count(frame, event, arg):
            if event == "opcode":
                counts[layer] += 1
            return count
        return count

    counters = {layer: counter(layer) for layer in LAYERS}

    def tracer(frame, event, arg):
        # A new frame: find its layer once, then count with that
        # layer's local tracer.
        frame.f_trace_opcodes = True
        code = frame.f_code
        layer = code_layer.get(code)
        if layer is None:
            layer = layer_of(code.co_filename, package_dir)
            if layer is not None:
                code_layer[code] = layer
            else:
                caller = frame.f_back
                while layer is None:
                    layer = layer_of(caller.f_code.co_filename,
                                     package_dir)
                    caller = caller.f_back
        return counters[layer]

    sys.settrace(tracer)
    try:
        result = sim.run()
    finally:
        sys.settrace(None)
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    total = sum(counts.values())
    print(args.workload, total, worker.stats_digest(result))
    for layer in LAYERS:
        print("%-12s %d" % (layer, counts[layer]))
    print("%-12s %d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv)
