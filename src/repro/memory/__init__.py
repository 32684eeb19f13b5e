"""Memory-system substrate: caches, coherence, NoC, DRAM, contention.

The optional models live in their own modules and load only when a
config or contention model uses them: :mod:`repro.memory.prefetcher`,
:mod:`repro.memory.noc_weave` and :mod:`repro.memory.dramsim`.
"""

from repro.memory.access import AccessRecord, StepKind
from repro.memory.cache import Cache, MainMemory, hash_line
from repro.memory.cache_array import CacheArray
from repro.memory.coherence import MESI
from repro.memory.contention import MD1Model
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.network import Network
from repro.memory.timeline import MultiTimeline, Timeline
from repro.memory.replacement import RandomRepl, TreePLRU, make_policy
from repro.memory.weave import CacheBankWeave, MemCtrlWeave, WeaveComponent

__all__ = [
    "AccessRecord",
    "Cache",
    "CacheArray",
    "CacheBankWeave",
    "MD1Model",
    "MESI",
    "MainMemory",
    "MemCtrlWeave",
    "MemoryHierarchy",
    "MultiTimeline",
    "Network",
    "Timeline",
    "RandomRepl",
    "StepKind",
    "TreePLRU",
    "WeaveComponent",
    "hash_line",
    "make_policy",
]
