"""Dynamic-binary-translation substrate (the Pin stand-in).

Provides the translation cache (decode-once basic-block descriptors) and
the instrumentation layer that turns functional execution streams into
timed streams, including fast-forwarding.
"""

from repro.dbt.instrumentation import InstrumentedStream
from repro.dbt.translation_cache import TranslationCache

__all__ = ["InstrumentedStream", "TranslationCache"]
