"""Log-2 bucketed histograms for latency-like quantities.

Values land in power-of-two buckets: bucket 0 holds exact zeros, bucket
``i`` (``i >= 1``) holds values in ``[2**(i-1), 2**i - 1]`` — i.e. the
bucket index is the value's bit length.  This is the classic shape for
memory-latency distributions: cheap to record (one integer bit-length
and one list increment, safe for hot paths) and wide enough that any
value fits without configuration.
"""

from __future__ import annotations

_MAX_BUCKET = 63


def bucket_bounds(index):
    """Inclusive ``(lo, hi)`` value range of bucket ``index``."""
    if index <= 0:
        return (0, 0)
    return (1 << (index - 1), (1 << index) - 1)


def bucket_label(index):
    """Human-readable range label for bucket ``index``."""
    lo, hi = bucket_bounds(index)
    if index >= _MAX_BUCKET:
        return "%d+" % lo
    return "%d" % lo if lo == hi else "%d-%d" % (lo, hi)


class Log2Histogram:
    """A log-2 bucketed histogram of non-negative integers."""

    __slots__ = ("name", "count", "total", "min", "max", "_counts")

    def __init__(self, name=""):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._counts = [0] * (_MAX_BUCKET + 1)

    def record(self, value, n=1):
        """Record ``value`` ``n`` times.  Values are truncated to int;
        negatives are rejected (latencies cannot be negative)."""
        value = int(value)
        if value < 0:
            raise ValueError("Log2Histogram values must be >= 0, got %d"
                             % value)
        index = value.bit_length()
        if index > _MAX_BUCKET:
            index = _MAX_BUCKET
        self._counts[index] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def buckets(self):
        """Yield ``(lo, hi, count)`` for every non-empty bucket."""
        for index, n in enumerate(self._counts):
            if n:
                lo, hi = bucket_bounds(index)
                yield lo, hi, n

    def merge(self, other):
        """Add ``other``'s samples into this histogram."""
        for index, n in enumerate(other._counts):
            self._counts[index] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def to_dict(self):
        """Serialize to a plain dict (JSON-safe)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {bucket_label(i): n
                        for i, n in enumerate(self._counts) if n},
        }

    def __len__(self):
        return self.count

    def __repr__(self):
        return ("Log2Histogram(%r, count=%d, mean=%.1f)"
                % (self.name, self.count, self.mean))
