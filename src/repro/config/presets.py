"""Configuration presets reproducing the paper's Tables 2 and 3."""

from __future__ import annotations

from repro.config.system import (
    BoundWeaveConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    NetworkConfig,
    SystemConfig,
)


def westmere(num_cores=6, core_model="ooo"):
    """The validated Westmere system of Table 2.

    6 OOO x86-64 cores at 2.27 GHz; 32KB 4-way L1I (3 cyc); 32KB 8-way L1D
    (4 cyc); 256KB 8-way private L2 (7 cyc); 12MB 16-way shared inclusive
    L3 in 6 banks (14 cyc) with MESI + in-cache directory and 16 MSHRs;
    ring network (1 cyc/hop, 5 cyc injection); 1 memory controller with 3
    DDR3-1333 channels, closed page, FCFS.
    """
    cfg = SystemConfig(
        name="westmere",
        num_tiles=1,
        cores_per_tile=num_cores,
        core=CoreConfig(model=core_model, freq_mhz=2270),
        l1i=CacheConfig(name="l1i", size_kb=32, ways=4, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=32, ways=8, latency=4),
        l2=CacheConfig(name="l2", size_kb=256, ways=8, latency=7),
        l2_shared_per_tile=False,
        l3=CacheConfig(name="l3", size_kb=12 * 1024, ways=16, latency=14,
                       banks=6, mshrs=16),
        network=NetworkConfig(topology="ring", hop_latency=1,
                              injection_latency=5),
        memory=MemoryConfig(controllers=1, channels_per_controller=3),
        boundweave=BoundWeaveConfig(interval_cycles=1000, host_threads=6),
    )
    return cfg.validate()


def tiled_chip(num_tiles=4, core_model="ooo", cores_per_tile=16):
    """The tiled multicore chip of Table 3.

    16 cores/tile; 4/16/64 tiles give 64/256/1024 cores.  Per-tile: 4MB
    8-way shared L2 (8 cyc), an 8MB 16-way L3 bank (12 cyc) of the fully
    shared inclusive L3, and one memory controller with 2 DDR3 channels.
    2-stage-router mesh, 1 cycle/hop.
    """
    num_cores = num_tiles * cores_per_tile
    cfg = SystemConfig(
        name="tiled-%dc" % num_cores,
        num_tiles=num_tiles,
        cores_per_tile=cores_per_tile,
        core=CoreConfig(model=core_model, freq_mhz=2000),
        l1i=CacheConfig(name="l1i", size_kb=32, ways=4, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=32, ways=8, latency=4),
        l2=CacheConfig(name="l2", size_kb=4 * 1024, ways=8, latency=8),
        l2_shared_per_tile=True,
        l3=CacheConfig(name="l3", size_kb=8 * 1024 * num_tiles, ways=16,
                       latency=12, banks=num_tiles, mshrs=16),
        network=NetworkConfig(topology="mesh", hop_latency=1,
                              injection_latency=5, router_stages=2),
        memory=MemoryConfig(controllers=num_tiles,
                            channels_per_controller=2),
        boundweave=BoundWeaveConfig(interval_cycles=1000, host_threads=16),
    )
    return cfg.validate()


def small_test_system(num_cores=4, core_model="simple",
                      interval_cycles=1000):
    """A deliberately tiny system for unit tests: small caches so that
    evictions, invalidations, and contention show up quickly."""
    cfg = SystemConfig(
        name="test-%dc" % num_cores,
        num_tiles=1,
        cores_per_tile=num_cores,
        core=CoreConfig(model=core_model),
        l1i=CacheConfig(name="l1i", size_kb=4, ways=2, latency=3),
        l1d=CacheConfig(name="l1d", size_kb=4, ways=4, latency=4),
        l2=CacheConfig(name="l2", size_kb=16, ways=4, latency=7),
        l3=CacheConfig(name="l3", size_kb=64, ways=8, latency=14, banks=2),
        boundweave=BoundWeaveConfig(interval_cycles=interval_cycles,
                                    host_threads=4),
    )
    return cfg.validate()
