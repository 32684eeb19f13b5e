"""Figure 8: simulator speedup vs host threads.

The bound phase's work division (interval barrier with shuffled wake
order and thread moderation) and the weave phase's domain partition are
executed for real; host parallelism is then modeled from the measured
per-core and per-domain work (Python's GIL precludes wall-clock thread
scaling — see DESIGN.md).  The paper's shapes: near-linear scaling of
no-contention models, sublinear weave-phase scaling for contention
models, saturation at the host's core count.
"""

from conftest import emit, instrs, once, tiles

from repro.config import tiled_chip
from repro.harness.performance import host_scalability
from repro.stats.reporting import format_table
from repro.workloads import mt_workload

HOST_THREADS = (1, 2, 4, 8, 16, 32)
MODELS = (("IPC1-NC", "simple", "none"), ("IPC1-C", "simple", "weave"),
          ("OOO-NC", "ooo", "none"), ("OOO-C", "ooo", "weave"))


def test_fig8_host_thread_scalability(benchmark):
    num_tiles = tiles(8)
    config = tiled_chip(num_tiles=num_tiles, core_model="simple",
                        cores_per_tile=4)
    workload = mt_workload("ocean", scale=1 / 64,
                           num_threads=config.num_cores)

    def run():
        from repro.core import ZSim
        from repro.harness.performance import with_core_model
        curves = {}
        for label, core_model, contention in MODELS:
            curves[label] = host_scalability(
                config, workload, instrs(160_000),
                num_threads=config.num_cores,
                host_threads=HOST_THREADS,
                core_model=core_model, contention_model=contention)
        # The paper's future work: pipelining bound and weave phases.
        sim = ZSim(with_core_model(config, "simple"),
                   threads=workload.make_threads(
                       target_instrs=instrs(160_000),
                       num_threads=config.num_cores),
                   contention_model="weave", host_threads=HOST_THREADS)
        sim.run()
        curves["IPC1-C pipelined"] = [
            (h, sim.host_model.pipelined_speedup(h))
            for h in HOST_THREADS]
        return curves

    curves = once(benchmark, run)
    labels = [label for label, _c, _m in MODELS] + ["IPC1-C pipelined"]
    rows = [[h] + ["%.1fx" % dict(curves[label])[h] for label in labels]
            for h in HOST_THREADS]
    from repro.stats.ascii_plot import line_plot
    plot = line_plot({label: curves[label] for label, _c, _m in MODELS},
                     width=48, height=14, x_label="host threads",
                     y_label="speedup", title="Figure 8")
    emit("fig8_host_scalability", format_table(
        ["host threads"] + labels, rows,
        title="Figure 8: modeled simulator speedup vs host threads "
              "(%d simulated cores)" % config.num_cores)
        + "\n\n" + plot)

    for label, _c, _m in MODELS:
        speedups = [s for _h, s in curves[label]]
        # Monotone non-decreasing and meaningfully parallel.
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > 2.0
    # The weave phase scales sublinearly (Section 4.2): the detailed
    # contention model's speedup is clearly capped below its
    # no-contention counterpart.  (IPC1 curves are too noisy on small
    # per-interval wall times to compare; the OOO pair is robust.)
    assert dict(curves["OOO-NC"])[16] > dict(curves["OOO-C"])[16] + 2.0
    # Pipelining bound+weave (the paper's future work) lifts the
    # contention model's scalability.
    assert dict(curves["IPC1-C pipelined"])[16] >= \
        dict(curves["IPC1-C"])[16] - 1e-9
