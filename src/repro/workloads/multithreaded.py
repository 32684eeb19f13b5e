"""Multithreaded workloads: PARSEC-, SPLASH-2-, SPEC-OMP-like + STREAM.

The 23 multithreaded validation workloads of Figure 6 plus STREAM.
Parameters encode each benchmark's published behaviour: sharing intensity
(canneal's huge shared graph vs blackscholes' embarrassing parallelism),
synchronization style (fluidanimate's fine-grain locks, barrier-phased
scientific codes), scaling limiters (swaptions' lock contention,
freqmine's serial sections), memory-boundedness (swim_m, art_m, STREAM),
and the power-of-two-thread requirement of radix/ocean/fft/fluidanimate.
"""

from __future__ import annotations

import zlib

from repro.workloads.base import KernelSpec, Workload

# name: (threads, footprint_kb, mem_ratio, pattern, hot, fp_ratio,
#        shared_fraction, shared_kb, lock_iters, barrier_iters,
#        imbalance, seq_fraction)
_MT_TABLE = {
    # --- PARSEC-like --------------------------------------------------
    "blackscholes": (6, 256,   0.22, "random", 0.90, 0.50,
                     0.02, 256,  0,   1600, 0.02, 0.00),
    "canneal":      (6, 8192,  0.35, "chase",  0.30, 0.05,
                     0.60, 8192, 700, 1200, 0.05, 0.00),
    "fluidanimate": (4, 2048,  0.32, "stride", 0.60, 0.35,
                     0.25, 2048, 300, 900, 0.08, 0.00),
    "freqmine":     (6, 2048,  0.30, "random", 0.70, 0.05,
                     0.20, 2048, 0,   900, 0.05, 0.25),
    "streamcluster": (6, 4096, 0.40, "stream", 0.30, 0.35,
                      0.30, 4096, 0,  1000, 0.05, 0.05),
    "swaptions":    (6, 512,   0.25, "random", 0.85, 0.45,
                     0.05, 256,  400, 0,   0.10, 0.00),
    # --- SPLASH-2-like ------------------------------------------------
    "barnes":       (6, 4096,  0.30, "chase",  0.50, 0.35,
                     0.35, 4096, 600, 1000, 0.10, 0.02),
    "fft":          (4, 8192,  0.40, "stream", 0.25, 0.40,
                     0.40, 8192, 0,   900, 0.02, 0.00),
    "lu":           (6, 4096,  0.35, "stride", 0.55, 0.45,
                     0.20, 4096, 0,   900, 0.12, 0.02),
    "ocean":        (4, 16384, 0.42, "stream", 0.25, 0.45,
                     0.25, 8192, 0,   900, 0.04, 0.00),
    "radix":        (4, 8192,  0.40, "random", 0.20, 0.05,
                     0.45, 8192, 0,   900, 0.02, 0.00),
    "water":        (6, 1024,  0.28, "random", 0.80, 0.45,
                     0.15, 1024, 500, 1000, 0.05, 0.00),
    "fmm":          (6, 4096,  0.30, "chase",  0.55, 0.40,
                     0.30, 4096, 700, 1000, 0.10, 0.02),
    # --- SPEC OMP2001-like (the _m suite) ------------------------------
    "swim_m":       (6, 32768, 0.48, "stream", 0.10, 0.45,
                     0.10, 8192, 0,   800, 0.02, 0.00),
    "applu_m":      (6, 16384, 0.42, "stride", 0.30, 0.45,
                     0.10, 8192, 0,   900, 0.04, 0.00),
    "art_m":        (6, 16384, 0.45, "stream", 0.15, 0.40,
                     0.15, 4096, 0,   900, 0.02, 0.00),
    "wupwise_m":    (6, 8192,  0.38, "stream", 0.35, 0.45,
                     0.10, 4096, 0,   900, 0.03, 0.00),
    "mgrid_m":      (6, 16384, 0.42, "stride", 0.30, 0.45,
                     0.10, 8192, 0,   900, 0.03, 0.00),
    "fma3d_m":      (6, 8192,  0.35, "random", 0.50, 0.45,
                     0.15, 4096, 0,   900, 0.06, 0.02),
    "equake_m":     (6, 8192,  0.38, "random", 0.45, 0.40,
                     0.20, 4096, 0,   900, 0.05, 0.02),
    "apsi_m":       (6, 4096,  0.35, "stride", 0.50, 0.45,
                     0.15, 4096, 0,   900, 0.05, 0.02),
    "ammp_m":       (6, 4096,  0.32, "chase",  0.50, 0.40,
                     0.25, 4096, 800, 1000, 0.08, 0.03),
    # --- STREAM (bandwidth saturation, Figure 6 right) -----------------
    "stream":       (6, 32768, 0.50, "stream", 0.00, 0.40,
                     0.00, 64,   0,   0,   0.00, 0.00),
}

MULTITHREADED = tuple(_MT_TABLE)
PARSEC = ("blackscholes", "canneal", "fluidanimate", "freqmine",
          "streamcluster", "swaptions")
SPLASH2 = ("barnes", "fft", "lu", "ocean", "radix", "water", "fmm")
SPEC_OMP = ("swim_m", "applu_m", "art_m", "wupwise_m", "mgrid_m",
            "fma3d_m", "equake_m", "apsi_m", "ammp_m")
#: The ten workloads of Figure 2.
FIGURE2_WORKLOADS = ("barnes", "blackscholes", "canneal", "fft",
                     "fluidanimate", "lu", "ocean", "radix", "swaptions",
                     "water")
#: Table 4's thirteen thousand-core workloads.
TABLE4_WORKLOADS = ("blackscholes", "water", "fluidanimate", "canneal",
                    "wupwise_m", "swim_m", "stream", "applu_m", "barnes",
                    "ocean", "fft", "radix", "mgrid_m")


def mt_workload(name, scale=1.0, num_threads=None, seed=None):
    """Build one multithreaded workload.  ``num_threads`` overrides the
    paper's default thread count (6, or 4 for power-of-two codes)."""
    try:
        (threads, footprint_kb, mem_ratio, pattern, hot, fp_ratio,
         shared_fraction, shared_kb, lock_iters, barrier_iters,
         imbalance, seq_fraction) = _MT_TABLE[name]
    except KeyError:
        raise ValueError("Unknown MT workload: %r (have %s)"
                         % (name, ", ".join(MULTITHREADED)))
    spec = KernelSpec(
        name=name,
        footprint_kb=footprint_kb,
        mem_ratio=mem_ratio,
        write_ratio=0.30,
        # STREAM traffic is one line per element-triplet on real
        # machines (hardware prefetch); without a prefetcher model the
        # equivalent DRAM pressure needs line-stride accesses.
        stride=64 if name == "stream" else 0,
        pattern=pattern,
        hot_fraction=hot,
        fp_ratio=fp_ratio,
        branch_rand=0.08,
        code_blocks=16,
        ilp=4,
        shared_fraction=shared_fraction,
        shared_kb=shared_kb,
        lock_iters=lock_iters,
        barrier_iters=barrier_iters,
        imbalance=imbalance,
        seq_fraction=seq_fraction,
        seed=seed if seed is not None
        else (zlib.crc32(name.encode()) % 10_000) + 31,
    ).scaled(scale)
    return Workload(spec, num_threads=num_threads or threads)


def default_threads(name):
    """The paper's thread count for a workload (Figure 6)."""
    return _MT_TABLE[name][0]
