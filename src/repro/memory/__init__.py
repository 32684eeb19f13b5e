"""Memory-system substrate: caches, coherence, NoC, DRAM, contention."""

from repro.memory.access import AccessRecord, StepKind
from repro.memory.cache import Cache, MainMemory, hash_line
from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI
from repro.memory.contention import MD1Model
from repro.memory.dramsim import CycleDrivenDRAM, DRAMSimWeave
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.network import Network
from repro.memory.noc_weave import NocFabric, NocRouteWeave
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.timeline import MultiTimeline, Timeline
from repro.memory.replacement import LRU, RandomRepl, TreePLRU, make_policy
from repro.memory.weave import CacheBankWeave, MemCtrlWeave, WeaveComponent

__all__ = [
    "AccessRecord",
    "Cache",
    "CacheArray",
    "CacheBankWeave",
    "CycleDrivenDRAM",
    "DRAMSimWeave",
    "LRU",
    "MD1Model",
    "MESI",
    "MainMemory",
    "MemCtrlWeave",
    "MemoryHierarchy",
    "MultiTimeline",
    "Network",
    "NocFabric",
    "NocRouteWeave",
    "StridePrefetcher",
    "Timeline",
    "RandomRepl",
    "StepKind",
    "TreePLRU",
    "WeaveComponent",
    "hash_line",
    "make_policy",
]
