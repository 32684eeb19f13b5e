"""SPEC CPU2006-like single-threaded workloads (all 29, as in Figure 5).

Each entry parameterizes the synthetic kernel to match the benchmark's
published character: memory intensity and footprint (mcf/lbm/libquantum
at the memory-bound end, povray/gamess/namd at the compute-bound end),
access pattern (pointer chasing for mcf/omnetpp/astar/xalancbmk,
streaming for libquantum/lbm/leslie3d/bwaves), branch behaviour (gobmk/
sjeng/perlbench are branchy and hard to predict), FP mix, and code
footprint (gcc/perlbench/xalancbmk have large instruction working sets).

Absolute MPKIs will not match the real suite — these are synthetic
stand-ins (see DESIGN.md) — but the cross-workload *spread* spans the
same axes the paper's validation exercises.
"""

from __future__ import annotations

import zlib

from repro.workloads.base import KernelSpec, Workload

# name: (footprint_kb, mem_ratio, write_ratio, pattern, hot_fraction,
#        fp_ratio, branch_rand, code_blocks, ilp)
_SPEC_TABLE = {
    # --- SPEC CPU2006 integer ---------------------------------------
    "perlbench":  (1024,  0.30, 0.35, "random", 0.85, 0.02, 0.25, 96, 3),
    "bzip2":      (4096,  0.35, 0.30, "random", 0.70, 0.02, 0.18, 32, 3),
    "gcc":        (8192,  0.30, 0.35, "random", 0.75, 0.02, 0.22, 128, 3),
    "mcf":        (32768, 0.35, 0.15, "chase",  0.30, 0.02, 0.15, 16, 2),
    "gobmk":      (512,   0.25, 0.30, "random", 0.85, 0.05, 0.30, 96, 3),
    "hmmer":      (256,   0.40, 0.25, "stride", 0.80, 0.10, 0.05, 16, 6),
    "sjeng":      (512,   0.25, 0.30, "random", 0.85, 0.02, 0.28, 64, 3),
    "libquantum": (16384, 0.30, 0.20, "stream", 0.05, 0.20, 0.05, 8, 6),
    "h264ref":    (1024,  0.35, 0.30, "stride", 0.80, 0.15, 0.12, 48, 5),
    "omnetpp":    (16384, 0.35, 0.30, "chase",  0.45, 0.05, 0.18, 64, 2),
    "astar":      (8192,  0.35, 0.25, "chase",  0.55, 0.05, 0.20, 24, 2),
    "xalancbmk":  (16384, 0.30, 0.30, "chase",  0.60, 0.02, 0.25, 160, 3),
    # --- SPEC CPU2006 floating point --------------------------------
    "bwaves":     (16384, 0.45, 0.25, "stream", 0.30, 0.45, 0.03, 12, 6),
    "gamess":     (256,   0.30, 0.25, "random", 0.90, 0.40, 0.08, 48, 5),
    "milc":       (16384, 0.40, 0.30, "stream", 0.20, 0.40, 0.04, 16, 5),
    "zeusmp":     (8192,  0.40, 0.28, "stride", 0.50, 0.40, 0.05, 24, 5),
    "gromacs":    (512,   0.30, 0.25, "random", 0.85, 0.45, 0.08, 32, 5),
    "cactusADM":  (8192,  0.45, 0.30, "stride", 0.40, 0.45, 0.02, 12, 4),
    "leslie3d":   (16384, 0.45, 0.28, "stream", 0.30, 0.45, 0.03, 16, 5),
    "namd":       (256,   0.25, 0.20, "random", 0.90, 0.50, 0.05, 24, 6),
    "dealII":     (1024,  0.30, 0.28, "random", 0.80, 0.35, 0.10, 64, 4),
    "soplex":     (8192,  0.40, 0.25, "stride", 0.55, 0.30, 0.12, 32, 3),
    "povray":     (256,   0.28, 0.30, "random", 0.90, 0.35, 0.15, 64, 4),
    "calculix":   (1024,  0.35, 0.28, "stride", 0.70, 0.40, 0.06, 32, 5),
    "GemsFDTD":   (16384, 0.45, 0.30, "stream", 0.35, 0.40, 0.03, 16, 5),
    "tonto":      (512,   0.30, 0.28, "random", 0.85, 0.40, 0.08, 48, 5),
    "lbm":        (16384, 0.45, 0.40, "stream", 0.15, 0.35, 0.02, 8, 5),
    "wrf":        (8192,  0.38, 0.28, "stride", 0.55, 0.40, 0.05, 48, 5),
    "sphinx3":    (4096,  0.35, 0.25, "random", 0.60, 0.30, 0.10, 32, 4),
}

SPEC_CPU2006 = tuple(_SPEC_TABLE)


def spec_workload(name, scale=1.0, seed=None):
    """Build one SPEC-like single-threaded workload.  ``scale`` shrinks
    footprints for quick runs (simulation shapes are preserved)."""
    try:
        (footprint_kb, mem_ratio, write_ratio, pattern, hot, fp_ratio,
         branch_rand, code_blocks, ilp) = _SPEC_TABLE[name]
    except KeyError:
        raise ValueError("Unknown SPEC workload: %r (have %s)"
                         % (name, ", ".join(SPEC_CPU2006)))
    spec = KernelSpec(
        name=name,
        footprint_kb=footprint_kb,
        mem_ratio=mem_ratio,
        write_ratio=write_ratio,
        pattern=pattern,
        hot_fraction=hot,
        fp_ratio=fp_ratio,
        branch_rand=branch_rand,
        code_blocks=code_blocks,
        ilp=ilp,
        seed=seed if seed is not None
        else (zlib.crc32(name.encode()) % 10_000) + 17,
    ).scaled(scale)
    return Workload(spec, num_threads=1)
