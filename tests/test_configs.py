"""Configuration object validation."""

import pytest

from rateless_dmt import AntennaConfig, RatelessConfig


def test_antenna_config_bounds():
    cfg = AntennaConfig(3, 2)
    assert cfg.min_antennas == 2
    for m, n in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            AntennaConfig(m, n)


def test_rateless_config_bounds():
    cfg = RatelessConfig(AntennaConfig(2, 2), L=4, T=8)
    assert (cfg.M, cfg.N, cfg.L, cfg.T) == (2, 2, 4, 8)
    with pytest.raises(ValueError):
        RatelessConfig(AntennaConfig(1, 1), L=0)
    with pytest.raises(ValueError):
        RatelessConfig(AntennaConfig(1, 1), L=1, T=0)

