"""Exact diversity-multiplexing tradeoff curves in rational arithmetic.

Everything here is evaluated with ``fractions.Fraction`` so curve values
are bit-exact: no floating round-off enters until the CLI renders the
CSV. Floats are accepted as inputs but are converted verbatim (0.5 is
fine, 0.1 is the binary float); pass Fraction or str for exact decimal
grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .configs import RatelessConfig

SCHEMES = ("rateless", "conventional", "parallel_identical", "parallel_iid")

DEFAULT_POINTS_PER_SEGMENT = 512


@dataclass(frozen=True)
class GainPoint:
    """One (multiplexing gain r, diversity gain d) point."""

    r: Fraction
    d: Fraction

    def __post_init__(self):
        if self.r < 0 or self.d < 0:
            raise ValueError(f"gains must be >= 0, got r={self.r}, d={self.d}")


@dataclass(frozen=True)
class DmtCurve:
    """A tradeoff curve sampled over a grid of per-level gains r_n.

    ``segment_index[i]`` is the block count l governing point i; 0 means
    the point is not governed by a rate-level segment (non-rateless
    schemes, and the zero-diversity tail).
    """

    scheme: str
    r_n_grid: tuple[Fraction, ...]
    points: tuple[GainPoint, ...]
    segment_index: tuple[int, ...]

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.points) != len(self.r_n_grid):
            raise ValueError("points and r_n_grid must have equal length")
        if len(self.segment_index) != len(self.points):
            raise ValueError("segment_index and points must have equal length")
        for a, b in zip(self.r_n_grid, self.r_n_grid[1:]):
            if not a < b:
                raise ValueError("r_n grid must be strictly increasing")


def tradeoff_f(M: int, N: int, k) -> Fraction:
    """Piecewise-linear diversity function of an M x N link through (k, (M-k)(N-k)).

    Exact for any rational k >= 0; clamps to 0 beyond min(M, N).
    """
    k = Fraction(k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k >= min(M, N):
        return Fraction(0)
    i = int(k)  # floor, k is nonnegative
    corner = Fraction((M - i) * (N - i))
    slope = 2 * i + 1 - M - N
    return corner + (k - i) * slope


def rateless_segment(cfg: RatelessConfig, r_n) -> Optional[int]:
    """Rate-level segment l in 1..L containing r_n, or None past min(M, N).

    Segments are left-closed, right-open: l covers
    [(l-1) * min(M,N) / L, l * min(M,N) / L).
    """
    r_n = Fraction(r_n)
    if r_n < 0:
        raise ValueError(f"r_n must be >= 0, got {r_n}")
    m = cfg.min_antennas
    if r_n >= m:
        return None
    return int(r_n * cfg.L / m) + 1


def default_r_n_grid(
    cfg: RatelessConfig, points_per_segment: int = DEFAULT_POINTS_PER_SEGMENT
) -> tuple[Fraction, ...]:
    """Evenly spaced r_n values, points_per_segment per rate-level segment.

    Each segment [a, b) contributes a + j * (b - a) / points_per_segment
    for j = 0..points_per_segment-1; segment boundaries belong to the
    right segment, so the sawtooth discontinuities show up as adjacent
    grid points on either side of every break. The zero-diversity point
    r_n = min(M, N) is appended.
    """
    if points_per_segment < 1:
        raise ValueError("points_per_segment must be >= 1")
    m = cfg.min_antennas
    step = Fraction(m, cfg.L * points_per_segment)
    grid = [j * step for j in range(cfg.L * points_per_segment)]
    grid.append(Fraction(m))
    return tuple(grid)


def dmt_curves(cfg: RatelessConfig, r_n_grid: Sequence) -> tuple[DmtCurve, ...]:
    """The tradeoff curves of all four schemes over one r_n grid, in SCHEMES order.

    Every column is built from f(r_n). On rateless segment l the effective
    gain is r = L r_n / l with d = f(l r / L) = f(r_n); the zero-diversity
    tail r_n = min(M, N) is pinned to (min(M, N), 0) and tagged segment 0.
    The conventional curve is (r_n, f(r_n)). The parallel-channel
    baselines sit at r = L r_n, with d = f(r_n) for one shared fading
    matrix and L f(r_n) for independent ones. A grid point past min(M, N)
    raises ValueError.
    """
    grid = tuple(Fraction(g) for g in r_n_grid)  # DmtCurve rejects an unsorted grid
    M, N, L, m = cfg.M, cfg.N, cfg.L, Fraction(cfg.min_antennas)
    if any(r_n > m for r_n in grid):
        raise ValueError(f"r_n must lie in [0, {m}], got {max(grid)}")
    segments = tuple(rateless_segment(cfg, r_n) or 0 for r_n in grid)
    f = [tradeoff_f(M, N, r_n) for r_n in grid]
    columns = (
        [GainPoint(r=L * r_n / seg if seg else m, d=d) for r_n, seg, d in zip(grid, segments, f)],
        [GainPoint(r=r_n, d=d) for r_n, d in zip(grid, f)],
        [GainPoint(r=L * r_n, d=d) for r_n, d in zip(grid, f)],
        [GainPoint(r=L * r_n, d=L * d) for r_n, d in zip(grid, f)],
    )
    untagged = (0,) * len(grid)
    return tuple(
        DmtCurve(scheme, grid, tuple(points), segments if scheme == "rateless" else untagged)
        for scheme, points in zip(SCHEMES, columns)
    )
