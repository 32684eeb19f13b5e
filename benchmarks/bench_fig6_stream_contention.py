"""Figure 6 (right): STREAM scalability under contention models.

STREAM saturates memory bandwidth.  Ignoring contention lets it scale
almost linearly; the M/D/1 queueing model (Graphite-style) is
inaccurate; the event-driven weave model and the DRAMSim-like
cycle-driven model both track the reference machine.
"""

from conftest import emit, instrs, once

from repro.config import westmere
from repro.harness.validation import stream_scalability
from repro.stats.reporting import format_table

THREADS = (1, 2, 4, 6)


def test_fig6_stream_contention_models(benchmark):
    def factory(num_cores):
        # OOO cores: saturation needs memory-level parallelism.
        return westmere(num_cores=num_cores, core_model="ooo")

    def run():
        return stream_scalability(factory, THREADS, scale=1 / 32,
                                  target_instrs=instrs(50_000))

    curves = once(benchmark, run)
    order = ["none", "md1", "weave", "dramsim", "real"]
    rows = [[n] + ["%.2f" % curves[m][i][1] for m in order]
            for i, n in enumerate(THREADS)]
    from repro.stats.ascii_plot import line_plot
    plot = line_plot({m: curves[m] for m in order}, width=48, height=14,
                     x_label="threads", y_label="speedup",
                     title="Figure 6 (right)")
    emit("fig6_stream_contention", format_table(
        ["threads", "no contention", "M/D/1", "event-driven",
         "DRAMSim-like", "real"], rows,
        title="Figure 6 (right): STREAM speedup under contention "
              "models") + "\n\n" + plot)

    top = {m: curves[m][-1][1] for m in order}
    # The paper's shape: no-contention over-scales; the event-driven
    # model tracks the real machine closely; M/D/1 does not.
    assert top["none"] > 1.3 * top["real"]
    assert abs(top["weave"] - top["real"]) <= 0.15 * top["real"]
    assert abs(top["md1"] - top["real"]) > \
        abs(top["weave"] - top["real"])
