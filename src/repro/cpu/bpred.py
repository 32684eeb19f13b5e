"""Two-level branch predictor with an idealized BTB.

The paper's OOO frontend models "a 2-level branch predictor with an
idealized BTB": targets are always known (unconditional branches never
mispredict), and conditional direction is predicted from a global history
register XOR-folded with the branch PC into a pattern history table of
2-bit saturating counters (gshare).  Westmere recovers from a
misprediction in a fixed number of cycles, so the penalty is a constant.
"""

from __future__ import annotations


class BranchPredictor:
    """gshare: global history XOR PC -> 2-bit counter table."""

    __slots__ = ("history_bits", "table_size", "mispredict_penalty", "_mask",
                 "_history", "_history_mask", "_pht", "predictions",
                 "mispredictions")

    def __init__(self, config):
        self.history_bits = config.history_bits
        self.table_size = config.table_size
        if self.table_size & (self.table_size - 1):
            raise ValueError("PHT size must be a power of two")
        self.mispredict_penalty = config.mispredict_penalty
        self._mask = self.table_size - 1
        self._history = 0
        self._history_mask = (1 << self.history_bits) - 1
        # 2-bit counters, initialized weakly taken.
        self._pht = bytearray([2]) * self.table_size
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, pc, taken):
        """Predict the branch at ``pc``, update state with the actual
        outcome ``taken``, and return True iff the prediction was
        correct."""
        idx = ((pc >> 2) ^ self._history) & self._mask
        counter = self._pht[idx]
        prediction = counter >= 2
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if counter < 3:
                self._pht[idx] = counter + 1
        elif counter > 0:
            self._pht[idx] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask
        return correct
