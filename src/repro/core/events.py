"""Weave-phase events: pre-specified dependencies with lower bounds.

Unlike conventional PDES, every weave event is created *before* the weave
phase runs, with (a) a lower bound on its execution cycle (its bound-phase
zero-load cycle) and (b) fully specified parent/child dependencies.  That
prior knowledge is what lets domains synchronize only when an actual
dependency crosses them (Section 3.2.2, Figure 4).

An interval's events are plain objects that die with the interval.
"""

from __future__ import annotations


class WeaveEvent:
    """One event in the weave phase.

    An edge ``(child, gap)`` means: when this event finishes at cycle
    ``d``, the child may start no earlier than ``d + gap``, where
    ``gap`` is the zero-load transfer time between the two events.  The
    first edge lives inline in ``child`` / ``gap`` — every hop of a miss
    chain has exactly one — and ``overflow`` is ``None`` until a second
    edge is linked, then a list of ``(child, gap)`` in link order.
    Edges are delivered first linked, first delivered.
    ``parents_left`` counts unfinished parents.
    """

    __slots__ = ("component", "kind", "line", "min_cycle", "service",
                 "parents_left", "ready", "done", "child", "gap",
                 "overflow", "core_id")

    def __init__(self, component, kind, line, min_cycle, service, core_id):
        self.component = component
        self.kind = kind
        self.line = line
        self.min_cycle = min_cycle
        self.service = service
        self.core_id = core_id
        self.parents_left = 0
        self.ready = min_cycle
        self.done = None
        self.child = None
        self.gap = 0
        self.overflow = None

    def edges(self):
        """Yield this event's ``(child, gap)`` edges in delivery order."""
        if self.child is not None:
            yield self.child, self.gap
            if self.overflow is not None:
                yield from self.overflow

    @property
    def domain(self):
        return self.component.domain if self.component is not None else 0

    def __repr__(self):
        return ("WeaveEvent(%s@%s, min=%d, done=%s)"
                % (self.kind,
                   self.component.name if self.component else "?",
                   self.min_cycle, self.done))
