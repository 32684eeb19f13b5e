"""Weave-phase NoC contention model (the paper's stated future work).

Section 3.2.2: "The only component without a weave phase model is the
network, since well-provisioned NoCs can be implemented at modest cost,
and zero-load latencies model most of their performance impact in real
workloads.  We leave weave phase NoC models to future work."

This module implements that future work as an optional extension
(``NetworkConfig.weave_model = True``).  The fabric's inter-tile links
are single-server resources (busy-interval timelines); a message
reserves every link on its deterministic route in order (shortest
direction on rings, X-Y with a partial-row fallback on meshes).  One
weave component exists per (source, destination) tile pair, sharing the
link fabric; components live in the *source* tile's weave domain.

Accesses that cross tiles get a NOC step in their weave chain, so link
contention delays propagate into core clocks exactly like cache-bank or
DRAM contention.
"""

from __future__ import annotations

from repro.memory.access import StepKind
from repro.memory.timeline import Timeline
from repro.memory.weave import WeaveComponent


class NocFabric:
    """The shared link fabric: one timeline per directed link."""

    #: Cycles a message occupies each link (head + body flits).
    DEFAULT_LINK_OCCUPANCY = 2

    def __init__(self, network, num_tiles, floor=None,
                 link_occupancy=DEFAULT_LINK_OCCUPANCY):
        self.network = network
        self.num_tiles = num_tiles
        self.link_occupancy = link_occupancy
        self.floor = floor
        self._links = {}
        self.link_stall_cycles = 0

    def link(self, src, dst):
        timeline = self._links.get((src, dst))
        if timeline is None:
            timeline = Timeline(self.floor)
            self._links[(src, dst)] = timeline
        return timeline

    def route(self, src, dst):
        """Deterministic route as (from_tile, to_tile) hops."""
        if src == dst:
            return
        config = self.network.config
        tiles = self.num_tiles
        if config.topology == "ideal":
            return
        if config.topology == "ring":
            forward = (dst - src) % tiles
            step = 1 if forward <= tiles - forward else -1
            current = src
            while current != dst:
                nxt = (current + step) % tiles
                yield current, nxt
                current = nxt
            return
        # Mesh: X then Y; fall back to Y-first when the X-first corner
        # tile does not exist (non-square tile counts).
        side = self.network._side
        sx, sy = src % side, src // side
        dx, dy = dst % side, dst // side
        corner_xy = sy * side + dx
        x_first = corner_xy < tiles
        legs = ((("x", dx), ("y", dy)) if x_first
                else (("y", dy), ("x", dx)))
        cx, cy = sx, sy
        current = src
        for axis, target in legs:
            while (cx if axis == "x" else cy) != target:
                if axis == "x":
                    cx += 1 if target > cx else -1
                else:
                    cy += 1 if target > cy else -1
                nxt = cy * side + cx
                yield current, nxt
                current = nxt

    def traverse(self, start_cycle, src, dst):
        """Reserve the route's links in order; returns delivery cycle."""
        config = self.network.config
        per_hop = config.hop_latency
        if config.topology == "mesh":
            per_hop += config.router_stages
        now = start_cycle + config.injection_latency
        for hop_src, hop_dst in self.route(src, dst):
            granted = self.link(hop_src, hop_dst).reserve(
                now, self.link_occupancy)
            self.link_stall_cycles += granted - now
            now = granted + per_hop
        return now


class NocRouteWeave(WeaveComponent):
    """Weave component for one (src, dst) tile route."""

    def __init__(self, fabric, src_tile, dst_tile):
        super().__init__("noc%d-%d" % (src_tile, dst_tile),
                         tile=src_tile)
        self.fabric = fabric
        self.src_tile = src_tile
        self.dst_tile = dst_tile

    def occupy(self, cycle, kind, line=0):
        self.events_executed += 1
        return self.fabric.traverse(cycle, self.src_tile, self.dst_tile)

    def zero_load_service(self, kind):
        return self.fabric.network.latency(self.src_tile, self.dst_tile)


NOC_STEP = StepKind.NOC
