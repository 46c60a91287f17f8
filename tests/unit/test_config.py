"""Unit tests for machine configuration."""

import pytest

from repro.core.config import (
    NAMED_CONFIGS,
    MachineConfig,
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.errors import ConfigError


def test_defaults_validate():
    MachineConfig().validate()


def test_default_is_paper_design_point():
    config = MachineConfig()
    assert config.storage == "register_cache"
    assert config.cache_entries == 64
    assert config.cache_assoc == 2
    assert config.insertion == "use_based"
    assert config.replacement == "use_based"
    assert config.indexing == "filtered_rr"
    assert config.max_use == 7
    assert config.unknown_default == 1
    assert config.fill_default == 0


def test_read_latency_per_scheme():
    assert MachineConfig().read_latency == 1
    assert monolithic_config(3).read_latency == 3
    assert two_level_config().read_latency == 1


def test_effective_write_latencies_default_to_read():
    config = monolithic_config(4)
    assert config.effective_rf_write_latency == 4
    assert MachineConfig(
        backing_read_latency=3
    ).effective_backing_write_latency == 3


def test_two_level_l1_size():
    assert two_level_config(cache_entries=64).two_level_l1_size == 96


def test_replace_returns_validated_copy():
    config = MachineConfig()
    bigger = config.replace(cache_entries=128)
    assert bigger.cache_entries == 128
    assert config.cache_entries == 64  # original untouched


def test_replace_rejects_invalid():
    with pytest.raises(ConfigError):
        MachineConfig().replace(cache_entries=-1)


def test_invalid_storage_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(storage="banked").validate()


def test_non_multiple_assoc_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(cache_entries=10, cache_assoc=4).validate()


def test_zero_assoc_is_fully_associative():
    MachineConfig(cache_assoc=0).validate()


def test_bad_max_use_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(max_use=0).validate()


@pytest.mark.parametrize(
    "field", ["fetch_width", "dispatch_width", "issue_width", "retire_width"]
)
def test_zero_width_rejected(field):
    with pytest.raises(ConfigError, match="widths"):
        MachineConfig(**{field: 0}).validate()


def test_negative_defaults_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(unknown_default=-1).validate()


def test_named_config_presets():
    assert lru_config().insertion == "always"
    assert lru_config().replacement == "lru"
    assert non_bypass_config().insertion == "non_bypass"
    assert use_based_config().insertion == "use_based"
    assert monolithic_config().storage == "monolithic"
    assert two_level_config().storage == "two_level"
    assert set(NAMED_CONFIGS) == {
        "use_based", "lru", "non_bypass", "monolithic", "two_level",
    }


def test_preset_overrides_apply():
    config = lru_config(cache_entries=32, backing_read_latency=4)
    assert config.cache_entries == 32
    assert config.backing_read_latency == 4
    assert config.insertion == "always"


def test_frozen_config():
    config = MachineConfig()
    with pytest.raises(Exception):
        config.cache_entries = 1
