"""The reference ("real") machine the validation compares against.

The paper validates zsim against a physical Westmere using performance
counters.  With no hardware available, the substitution (see DESIGN.md)
is a *golden reference simulator*: the same detailed core and memory
models, executed with the finest interval (minimal reordering) and full
contention, **plus** the effects zsim deliberately does not model — TLBs
with cached page walks.  Validation error between zsim and this
reference is then genuinely non-zero and has the structure the paper
reports: zsim overestimates performance, with larger errors on
TLB-intensive workloads.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.tlb import TLBMemory
from repro.config.system import BranchPredictorConfig
from repro.core.simulator import ZSim
from repro.cpu.bpred import BranchPredictor


#: Interval used by the reference machine when overridden; None keeps
#: the config's interval so zsim and the reference differ *only* by the
#: effects zsim deliberately omits (TLBs, page walks).
REFERENCE_INTERVAL = None


def reference_simulator(config, threads, contention_model="weave",
                        itlb_entries=128, dtlb_entries=64,
                        interval=REFERENCE_INTERVAL):
    """Build the golden reference simulator for ``config``.

    Returns a :class:`~repro.core.simulator.ZSim` whose memory system is
    wrapped with per-core TLBs + page walks.  Wake-order shuffling is
    disabled (a physical machine has no such randomization).
    """
    ref_config = dataclasses.replace(
        config,
        # The physical machine has the loop stream detector zsim omits
        # (Section 3.1: "we do not model ... the loop stream detector").
        core=dataclasses.replace(config.core, loop_stream_detector=True),
        boundweave=dataclasses.replace(
            config.boundweave,
            interval_cycles=interval or config.boundweave.interval_cycles,
            shuffle_wake_order=False),
    )
    holder = {}

    def wrap(mem):
        holder["tlb"] = TLBMemory(mem, itlb_entries, dtlb_entries)
        return holder["tlb"]

    sim = ZSim(ref_config, threads=threads,
               contention_model=contention_model, mem_wrapper=wrap)
    sim.tlb_memory = holder["tlb"]
    # The physical machine's predictor is unknown but better than the
    # modeled 2-level gshare (the paper attributes part of zsim's error
    # to this); give the reference a larger predictor.
    for core in sim.cores:
        if hasattr(core, "bpred"):
            core.bpred = BranchPredictor(BranchPredictorConfig(
                history_bits=15, table_size=16384,
                mispredict_penalty=config.core.bpred.mispredict_penalty))
    return sim
