"""MESI coherence state definitions."""

from __future__ import annotations


class MESI:
    """MESI line states.  ``I`` is represented by absence from the array
    in most of the code; the constant exists for reporting."""

    I = 0
    S = 1
    E = 2
    M = 3

    NAMES = {0: "I", 1: "S", 2: "E", 3: "M"}

