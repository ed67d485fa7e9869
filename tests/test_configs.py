"""Configuration object validation."""

import dataclasses

import pytest

from rateless_dmt import RatelessConfig


def test_antenna_config_bounds():
    cfg = RatelessConfig(3, 2, L=1)
    assert cfg.min_antennas == 2
    for m, n in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            RatelessConfig(m, n, L=1)


def test_rateless_config_bounds():
    cfg = RatelessConfig(2, 2, L=4)
    assert (cfg.M, cfg.N, cfg.L) == (2, 2, 4)
    assert [f.name for f in dataclasses.fields(cfg)] == ["M", "N", "L"]
    with pytest.raises(ValueError):
        RatelessConfig(1, 1, L=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.L = 3
