"""Configuration dataclasses for simulated systems.

Everything the simulator models is configured through these plain
dataclasses: core type and microarchitectural parameters, each cache
level, the on-chip network, the memory controllers, and the bound-weave
engine itself.  Presets reproducing the paper's Table 2 (validated
Westmere) and Table 3 (tiled thousand-core chip) live in
:mod:`repro.config.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError


@dataclass
class BranchPredictorConfig:
    """Two-level branch predictor (the paper's frontend model)."""

    history_bits: int = 11
    table_size: int = 2048        # pattern-history table entries
    mispredict_penalty: int = 17  # Westmere-class fixed recovery


@dataclass
class CoreConfig:
    """Core timing model parameters (Westmere-class defaults)."""

    model: str = "ooo"            # "simple" (IPC=1) or "ooo"
    freq_mhz: int = 2270
    issue_width: int = 4
    retire_width: int = 4
    rob_size: int = 128
    issue_window_size: int = 36
    load_queue_size: int = 48
    store_queue_size: int = 32
    #: Model wrong-path instruction fetches on mispredictions (the
    #: paper: "instruction fetch including wrong-path fetches due to
    #: mispredictions"); wrong-path *execution* is never modeled.
    wrong_path_fetch: bool = True
    #: Loop stream detector: small hot loops replay from the µop queue,
    #: bypassing fetch + decode.  zsim does NOT model it (the paper
    #: lists it among the unmodeled frontend features); the reference
    #: machine enables it, contributing frontend-side validation error.
    loop_stream_detector: bool = False
    lsd_max_uops: int = 28
    bpred: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    def __post_init__(self):
        if self.model not in ("simple", "ooo"):
            raise ValueError("Unknown core model: %r" % (self.model,))


@dataclass
class CacheConfig:
    """One cache level (or one bank of a banked shared cache)."""

    name: str = "cache"
    size_kb: int = 32
    ways: int = 8
    line_bytes: int = 64
    latency: int = 4              # zero-load access latency, cycles
    banks: int = 1                # >1 only meaningful for shared caches
    mshrs: int = 16
    repl: str = "lru"             # "lru" | "tree" | "random"
    hash_banks: bool = True       # hash line addresses across banks
    hash_sets: bool = False       # XOR-fold set index (zsim's "hashed")
    ports: int = 1                # weave model: accesses per cycle per bank
    prefetch_degree: int = 0      # stride prefetcher lines ahead (0 = off)

    @property
    def num_lines(self):
        return (self.size_kb * 1024) // self.line_bytes

    @property
    def num_sets(self):
        sets = self.num_lines // (self.ways * self.banks)
        if sets <= 0:
            raise ValueError("Cache %s too small for %d ways x %d banks"
                             % (self.name, self.ways, self.banks))
        return sets


@dataclass
class DDR3Timing:
    """DDR3 device timing in memory-bus cycles (DDR3-1333 defaults)."""

    tCL: int = 9      # CAS latency
    tRCD: int = 9     # RAS-to-CAS delay
    tRP: int = 9      # row precharge
    tRAS: int = 24    # row active time
    tCCD: int = 4     # column-to-column (burst gap)
    banks_per_rank: int = 8
    ranks_per_channel: int = 2


@dataclass
class MemoryConfig:
    """Memory controllers and DRAM organization."""

    controllers: int = 1
    channels_per_controller: int = 3
    zero_load_latency: int = 100      # core cycles, controller+DRAM, no load
    bus_mhz: int = 667                # DDR3-1333 bus clock
    timing: DDR3Timing = field(default_factory=DDR3Timing)
    # Fast powerdown with threshold timer = 15 mem cycles (Table 2).
    powerdown_threshold: int = 15
    powerdown_exit_cycles: int = 6


@dataclass
class NetworkConfig:
    """Zero-load-latency on-chip network (no weave model, per the paper)."""

    topology: str = "ring"        # "ring" | "mesh" | "ideal"
    hop_latency: int = 1
    injection_latency: int = 5
    router_stages: int = 2        # per-hop pipeline stages (mesh)
    #: Extension (the paper's future work): model link contention in
    #: the weave phase instead of zero-load latencies only.
    weave_model: bool = False
    link_occupancy: int = 2       # cycles a message holds each link


@dataclass
class BoundWeaveConfig:
    """Bound-weave engine parameters."""

    interval_cycles: int = 1000
    num_domains: int = 0          # 0 = one domain per tile (auto)
    host_threads: int = 16
    shuffle_wake_order: bool = True
    crossing_dependencies: bool = True   # ablation: crossing optimizations
    ooo_mlp_window: int = 8    # weave: overlapping misses per OOO core
    seed: int = 0xDA7A
    #: Execution backend: how the engine runs on the host (see
    #: repro.exec).  All backends produce identical simulated results.
    backend: str = "serial"
    #: Watchdog: seconds of no worker progress before a pass raises a
    #: typed WatchdogTimeout (see repro.resilience).  0 disables.
    watchdog_budget_s: float = 0.0
    #: Process backend: OS worker processes forked per interval.
    #: 0 = auto (host CPU count minus one, capped by host_threads).
    process_workers: int = 0
    #: Process backend: seconds without a worker heartbeat (or any pipe
    #: message) before the driver kills stragglers and runs their cores
    #: inline.
    heartbeat_budget_s: float = 10.0
    #: Integrity sentinel: run the online invariant auditor every N
    #: interval barriers (see repro.resilience.integrity).  0 disables
    #: auditing; the fingerprint chain itself is maintained whenever a
    #: sentinel is installed.  CLI: ``--audit-every``.
    audit_every: int = 0


@dataclass
class SystemConfig:
    """A complete simulated system.

    The chip is organized as ``num_tiles`` tiles of ``cores_per_tile``
    cores.  Each core has private L1I/L1D; an optional L2 is private per
    core or shared per tile; the required L3 is a banked, fully shared
    last-level cache (one bank per tile by default).
    """

    name: str = "system"
    num_tiles: int = 1
    cores_per_tile: int = 6
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Heterogeneous chips: per-core overrides of the base core config
    #: (core id -> CoreConfig), e.g. a few OOO cores plus many simple
    #: Atom-like cores sharing one L3.  Cores without an entry use
    #: ``core``.
    hetero_cores: Optional[dict] = None
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1i", size_kb=32, ways=4, latency=3))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1d", size_kb=32, ways=8, latency=4))
    l2: Optional[CacheConfig] = field(default_factory=lambda: CacheConfig(
        name="l2", size_kb=256, ways=8, latency=7))
    l2_shared_per_tile: bool = False
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l3", size_kb=12 * 1024, ways=16, latency=14, banks=6))
    network: NetworkConfig = field(default_factory=NetworkConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    boundweave: BoundWeaveConfig = field(default_factory=BoundWeaveConfig)

    @property
    def num_cores(self):
        return self.num_tiles * self.cores_per_tile

    def validate(self):
        """Check internal consistency.  Raises
        :class:`~repro.errors.ConfigError` (a ValueError subclass, so
        pre-existing ``except ValueError`` callers keep working)."""
        if self.num_tiles < 1 or self.cores_per_tile < 1:
            raise ConfigError("System needs at least one core")
        for cache in (self.l1i, self.l1d, self.l3):
            if cache is None:
                raise ConfigError("L1 and L3 caches are mandatory")
        line = self.l1d.line_bytes
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            if cache is not None and cache.line_bytes != line:
                raise ConfigError("All caches must share one line size")
            if cache is not None:
                cache.num_sets  # raises if geometry is inconsistent
        if self.boundweave.interval_cycles < 10:
            raise ConfigError("Interval too short")
        if self.boundweave.backend not in ("serial", "parallel",
                                           "pipelined", "process"):
            raise ConfigError("Unknown execution backend: %r"
                              % (self.boundweave.backend,))
        if self.boundweave.watchdog_budget_s < 0:
            raise ConfigError("watchdog_budget_s must be >= 0")
        if self.boundweave.process_workers < 0:
            raise ConfigError("process_workers must be >= 0 (0 = auto)")
        if self.boundweave.heartbeat_budget_s <= 0:
            raise ConfigError("heartbeat_budget_s must be > 0")
        if self.boundweave.audit_every < 0:
            raise ConfigError("audit_every must be >= 0 (0 = off)")
        return self

    def core_tile(self, core_id):
        """Tile index of a core."""
        return core_id // self.cores_per_tile
