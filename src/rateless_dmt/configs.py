"""System dimension configuration objects."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RatelessConfig:
    """The link and the code: M transmit and N receive antennas, L blocks per codeword."""

    M: int
    N: int
    L: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError(f"antenna counts must be >= 1, got M={self.M}, N={self.N}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")

    @property
    def min_antennas(self) -> int:
        return min(self.M, self.N)
