"""System dimension configuration objects."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts of the MIMO link: M transmit, N receive."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError(f"antenna counts must be >= 1, got M={self.M}, N={self.N}")

    @property
    def min_antennas(self) -> int:
        return min(self.M, self.N)


@dataclass(frozen=True)
class RatelessConfig:
    """Codeword structure: L blocks per codeword, T channel uses per block.

    T is validated metadata only: it cancels from the stopping rule, so
    no computation reads it.
    """

    antennas: AntennaConfig
    L: int
    T: int = 1

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")

    @property
    def M(self) -> int:
        return self.antennas.M

    @property
    def N(self) -> int:
        return self.antennas.N

    @property
    def min_antennas(self) -> int:
        return self.antennas.min_antennas

