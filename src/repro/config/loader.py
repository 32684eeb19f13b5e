"""Config serialization: SystemConfig <-> plain dicts / JSON files.

zsim drives simulations from .cfg files; the equivalent here is a JSON
document mirroring the dataclass tree.  Unknown keys are rejected and
scalar values are type-checked against the dataclass annotations (typos
and ``"8"``-for-``8`` string slips in config files must fail loudly,
with the full dotted path in the message), nested sections are
optional, and presets can be used as bases::

    cfg = load_config("chip.json", base=westmere())

All rejections raise :class:`~repro.errors.ConfigError` (a ValueError
subclass, so pre-existing ``except ValueError`` callers still catch).
"""

from __future__ import annotations

import dataclasses
import json

from repro.errors import ConfigError
from repro.config.system import (
    BoundWeaveConfig,
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    DDR3Timing,
    MemoryConfig,
    NetworkConfig,
    SystemConfig,
)

_SECTION_TYPES = {
    "core": CoreConfig,
    "l1i": CacheConfig,
    "l1d": CacheConfig,
    "l2": CacheConfig,
    "l3": CacheConfig,
    "network": NetworkConfig,
    "memory": MemoryConfig,
    "boundweave": BoundWeaveConfig,
    "bpred": BranchPredictorConfig,
    "timing": DDR3Timing,
}


def config_to_dict(config):
    """Serialize any config dataclass to a plain dict (a None section,
    as in a chip without an L2, is kept; any other None is elided)."""
    def prune(node):
        if isinstance(node, dict):
            return {k: prune(v) for k, v in node.items()
                    if v is not None or k in _SECTION_TYPES}
        return node
    return prune(dataclasses.asdict(config))


# Scalar annotation -> accepted runtime types.  Annotations are strings
# (system.py uses ``from __future__ import annotations``), so the map is
# keyed by annotation text.  int is acceptable where float is declared
# (JSON has one number type); bool is NOT acceptable as int/float even
# though it subclasses int — ``"hash_sets": 1`` and ``"ways": true`` are
# both config bugs.
_SCALARS = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


def _check_scalar(path, key, annotation, value):
    """Type-check one scalar field; raises ConfigError on mismatch."""
    accepted = _SCALARS.get(annotation)
    if accepted is None or value is None:
        return
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and annotation != "bool"):
        raise ConfigError(
            "%s.%s: expected %s, got %s (%r)"
            % (path, key, annotation, type(value).__name__, value))


def _build(cls, data, path):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError("Config section %r must be an object, got %r"
                          % (path, type(data).__name__))
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError("Unknown config key %r in section %r "
                              "(valid: %s)"
                              % (key, path, ", ".join(sorted(fields))))
        section_cls = _SECTION_TYPES.get(key)
        if section_cls is not None:
            if isinstance(value, section_cls):
                kwargs[key] = value       # pre-built section instance
                continue
            if value is not None and not isinstance(value, dict):
                raise ConfigError(
                    "%s.%s: expected an object, got %s (%r)"
                    % (path, key, type(value).__name__, value))
            kwargs[key] = _build(section_cls, value,
                                 "%s.%s" % (path, key))
        else:
            _check_scalar(path, key, fields[key].type, value)
            kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data, base=None):
    """Build a :class:`SystemConfig` from a dict.

    With ``base``, the dict's keys override the base config (sections
    merge shallowly: giving ``{"l3": {...}}`` replaces the whole L3
    section).
    """
    if not isinstance(data, dict):
        raise ConfigError("Config must be a JSON object, got %s"
                          % type(data).__name__)
    if base is not None:
        merged = config_to_dict(base)
        for key, value in data.items():
            if isinstance(value, dict) and isinstance(merged.get(key),
                                                      dict):
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value
        data = merged
    # hetero_cores is a core_id -> CoreConfig mapping; JSON keys are
    # strings, so coerce.
    data = dict(data)
    hetero = data.pop("hetero_cores", None)
    config = _build(SystemConfig, data, "system")
    if hetero:
        if not all(str(k).lstrip("-").isdecimal() for k in hetero):
            raise ConfigError("hetero_cores keys must be core ids, got %r"
                              % sorted(map(str, hetero)))
        config.hetero_cores = {
            int(core_id): (_build(CoreConfig, core_cfg,
                                  "hetero_cores[%s]" % core_id)
                           if isinstance(core_cfg, dict) else core_cfg)
            for core_id, core_cfg in hetero.items()}
    return config.validate()


def load_config(path, base=None):
    """Load a :class:`SystemConfig` from a JSON file.  Any rejection,
    including an unreadable file or malformed JSON, is a ConfigError
    naming the file."""
    try:
        with open(path) as handle:
            return config_from_dict(json.load(handle), base=base)
    except (OSError, ValueError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
