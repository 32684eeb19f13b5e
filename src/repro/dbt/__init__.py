"""Dynamic-binary-translation substrate (the Pin stand-in).

Provides the translation cache (decode-once basic-block descriptors) and
the instrumentation layer that turns functional execution streams into
timed streams, including fast-forwarding and magic ops.  Trace capture
and replay live in :mod:`repro.dbt.tracing`.
"""

from repro.dbt.instrumentation import InstrumentedStream, MagicOp
from repro.dbt.translation_cache import TranslationCache

__all__ = ["InstrumentedStream", "MagicOp", "TranslationCache"]
