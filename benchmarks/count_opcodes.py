"""The deterministic cost meter: interpreter opcodes inside ``sim.run()``.

    python3 benchmarks/count_opcodes.py <workload> [--scale S]

Runs one of the repo benchmark's pinned workloads
(``benchmarks/perf/spec.py``; ``seed_offset=4``, ``flight=False``) under
``sys.settrace`` with per-opcode events and prints the workload, the
opcodes executed inside ``sim.run()`` and the simulated-stats digest.
The count repeats to the last digit across fresh processes (the script
re-executes itself under ``PYTHONHASHSEED=0`` when needed), so a 0.5%
difference between two versions of the program is resolvable in one run
each; it is about 15x slower than an untraced run.  docs/performance.md
("Fork ledger") is written in this unit.  A count compares two versions
of one program and omits everything that is not bytecode dispatch
(allocator, GC, C calls): it is not a speed claim.
"""

import argparse
import os
import sys

SEED = 4


def main(argv):
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    here = os.path.dirname(os.path.abspath(__file__))
    # worker.py puts src/ on sys.path and owns the stats digest.
    sys.path.insert(0, os.path.join(here, "perf"))
    import spec
    import worker
    from repro.core.simulator import ZSim

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(spec.BY_NAME))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's pinned size")
    args = parser.parse_args(argv[1:])

    workload = spec.BY_NAME[args.workload]
    config, kernel, threads, asked = spec.build(
        workload, int(workload.instrs * args.scale))
    sim = ZSim(config, contention_model=workload.contention, flight=False,
               threads=kernel.make_threads(
                   target_instrs=asked, num_threads=threads,
                   seed_offset=SEED))
    opcodes = 0

    def tracer(frame, event, arg):
        nonlocal opcodes
        frame.f_trace_opcodes = True
        opcodes += event == "opcode"
        return tracer

    sys.settrace(tracer)
    try:
        result = sim.run()
    finally:
        sys.settrace(None)
    print(args.workload, opcodes, worker.stats_digest(result))


if __name__ == "__main__":
    main(sys.argv)
