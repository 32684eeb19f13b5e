"""System configuration: dataclasses plus Table 2 / Table 3 presets."""

from repro.config.loader import (config_from_dict, config_to_dict,
                                 load_config, save_config)
from repro.config.presets import small_test_system, tiled_chip, westmere
from repro.config.system import (BoundWeaveConfig, BranchPredictorConfig,
                                 CacheConfig, CoreConfig, DDR3Timing,
                                 MemoryConfig, NetworkConfig, SystemConfig)

__all__ = [
    "BoundWeaveConfig", "BranchPredictorConfig", "CacheConfig",
    "CoreConfig", "DDR3Timing", "MemoryConfig", "NetworkConfig",
    "SystemConfig", "config_from_dict", "config_to_dict", "load_config",
    "save_config", "small_test_system", "tiled_chip", "westmere",
]
