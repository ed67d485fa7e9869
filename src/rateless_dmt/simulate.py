"""Monte Carlo engine for the rateless protocol over Rayleigh block fading.

One fading matrix is drawn per codeword and held for all L blocks. The
receiver accumulates mutual information block by block and decodes at the
first block l where l * I_b >= L * R; if no block qualifies the codeword
is in outage. Decoding itself is not simulated here: information outage
is the error proxy, which is the operative event once blocks are long
enough. Everything is driven by the jump-ahead streams in
:mod:`rateless_dmt.rng`, so results are bit-identical for any chunking or
thread count.

Each trial's fading draw is reduced once to SNR-free statistics of H
(:func:`channel_stats`): the coefficients of det(I + a H H*) as a
polynomial in a, which at full rank come from a real bidiagonal matrix
whose Gram matrix has the eigenvalue law of H H*; H itself is never
formed. Every SNR of a sweep decides the stop rule from those same
coefficients, by one threshold per (SNR, l) (:func:`still_short`). The
SNR cells of one sweep thus share their draws (common random numbers),
and a cell's counts do not depend on its position in the grid or on the
other SNRs in it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import rng
from .configs import RatelessConfig

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SnrPoint:
    """Average SNR per receive antenna in dB; the linear value is derived from it.

    Valid when the linear SNR 10^(dB/10) is a finite positive float, so
    4000 dB (overflow), -4000 dB (underflow), inf and nan are rejected.
    """

    eta_db: float

    def __post_init__(self):
        try:
            linear = self.eta_linear
        except OverflowError:
            raise ValueError(f"{self.eta_db} dB overflows") from None
        if not (math.isfinite(linear) and linear > 0):
            raise ValueError(f"{self.eta_db} dB is not a finite positive SNR")

    @classmethod
    def from_db(cls, eta_db: float) -> "SnrPoint":
        """Same as SnrPoint(eta_db); kept only because perfbench/run.py calls it."""
        return cls(eta_db)

    @cached_property
    def eta_linear(self) -> float:
        return 10.0 ** (self.eta_db / 10.0)

    @property
    def log2_eta(self) -> float:
        return math.log2(self.eta_linear)


@dataclass(frozen=True, eq=False)
class SnrRecord:
    """The stop counts of one SNR point and rate R; every estimate derives from them.

    stop_hist counts the trials that stopped at blocks 1..L, then the
    outages. p_hat[l] = Pr(still short after block l) for l = 0..L, so
    p_hat[0] is 1 and p_hat is nonincreasing; the standard errors are the
    binomial sqrt(p (1 - p) / n). Records compare and hash by identity, as
    the codebook types do, since stop_hist is an array.
    """

    eta: SnrPoint
    R: float
    stop_hist: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.stop_hist.ndim != 1 or np.any(self.stop_hist < 0) or self.trials < 1:
            raise ValueError("stop_hist must be 1-D nonnegative counts with >= 1 trial")

    @property
    def trials(self) -> int:
        return int(self.stop_hist.sum())

    @property
    def L(self) -> int:
        return len(self.stop_hist) - 1

    @cached_property
    def p_hat(self) -> np.ndarray:
        return (self.trials - np.concatenate(([0], np.cumsum(self.stop_hist[:-1])))) / self.trials

    @property
    def stderr(self) -> np.ndarray:
        return binomial_stderr(self.p_hat, self.trials)

    @property
    def r_bar(self) -> float:
        return effective_rate(self.R, self.L, self.p_hat)

    @property
    def r_hat(self) -> float:
        """r_bar / log2(eta), NaN at 0 dB where log2(eta) = 0."""
        return self.r_bar / self.eta.log2_eta if self.eta.log2_eta else math.nan


def rank_one_outage(M: int, N: int, eta: SnrPoint, rate: float) -> tuple[float, float]:
    """Exact (p, -log2 p) for p = Pr(log2 det(I + (eta/M) H H*) < rate) when min(M, N) = 1.

    ||h||^2 ~ Gamma(k, 1) with k = max(M, N), so p = Pr(||h||^2 < x) at x = M (2^rate - 1) / eta.
    Below x = k this sums the lower tail e^-x sum_{j>=k} x^j/j!; from x = k on it is 1 minus
    the upper tail e^-x sum_{j<k} x^j/j!, and -log2 p goes through log1p, exact where p rounds to 1.
    """
    if min(M, N) != 1:
        raise ValueError(f"rank-one outage needs min(M, N) = 1, got {M}x{N}")
    if not rate >= 0:  # so nan fails too
        raise ValueError(f"rate must be >= 0, got {rate}")
    k = max(M, N)
    x = M * (2.0**rate - 1.0) / eta.eta_linear
    term = math.exp(-x)  # e^-x x^j / j!, from j = 0 up
    upper = 0.0
    for j in range(1, k + 1):
        upper += term
        term *= x / j
    if x >= k:
        return 1.0 - upper, -math.log1p(-upper) / _LN2
    p, j = 0.0, k
    while term > 1e-17 * p:  # the terms only shrink past j = k > x
        p += term
        j += 1
        term *= x / j
    return p, (-math.log2(p) if p > 0.0 else math.inf)


def siso_outage_closed_form(eta: SnrPoint, rate_threshold: float) -> float:
    """SISO outage probability; perfbench/run.py imports this name."""
    return rank_one_outage(1, 1, eta, rate_threshold)[0]


def fading_width(M: int, N: int) -> int:
    """Uniforms per trial that :func:`channel_stats` reads: 2MN at rank one, else K m."""
    K, m = min(M, N), max(M, N)
    return 2 * M * N if K == 1 else K * m


def channel_stats(u: np.ndarray, M: int, N: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """The SNR-free statistics of each trial's N x M fading, from its :func:`fading_width` uniforms.

    Returns e_1..e_K, shape (K, trials), K = min(M, N): the coefficients of det(I + a G) =
    1 + sum_k e_k a^k for a G with the law of H H*. At rank one e_1 = ||h||^2 sums the entries'
    -log1p(-u1), half their squared Box-Muller radii. Otherwise G = B B* for the real
    lower-bidiagonal B of Dumitriu & Edelman (2002, beta = 2), whose eigenvalues have the
    complex Wishart law of H H* (or H* H, with the same det(I + a G)), m = max(M, N):
    b_i^2 = B_ii^2 ~ Gamma(m - i, 1) and c_i^2 = B_i+1,i^2 ~ Gamma(K - 1 - i, 1), each a sum of
    -log1p(-u) terms. The uniforms run: diagonal, then subdiagonal, each in row order. With
    D_0 = F_0 = 1 and c_-1 = 0, the leading minors D_k of I + a G follow
    F_k+1 = D_k + a c_k-1^2 F_k and D_k+1 = F_k+1 + a b_k^2 D_k, run here once as polynomials
    in a; D_K is the determinant. Every step adds or multiplies nonnegative numbers. At full rank
    the uniforms are first transposed into `scratch`, if given, of at least K m trials floats.
    """
    n = len(u)
    K, m = min(M, N), max(M, N)
    if K == 1:
        return -np.log1p(-u[:, 0::2]).sum(axis=1).reshape(1, n)
    x = (np.empty(K * m * n) if scratch is None else scratch[: K * m * n]).reshape(K * m, n)
    for t in range(0, n, 1024):  # one row per uniform: a transpose by blocks that stay in cache
        x[:, t : t + 1024] = u[t : t + 1024].T
    np.log1p(np.negative(x, out=x), out=x)  # minus the Exp(1) terms
    terms = [m - j for j in range(K)] + [K - 1 - j for j in range(K - 1)]
    sq = [-x[i : i + r].sum(axis=0) for i, r in zip(np.cumsum([0, *terms]), terms)]  # b_i^2, c_i^2
    d, f = [sq[0]], []  # coefficients 1..k of D_k and 1..k-1 of F_k, whose constant terms are 1
    for k in range(1, K):
        c, b = sq[K + k - 1], sq[k]
        f = [d[0] + c] + [dj + c * fj for dj, fj in zip(d[1:], f)]
        d = [f[0] + b] + [fj + b * dj for fj, dj in zip(f[1:], d)] + [b * d[-1]]
    return np.array(d)


def stop_levels(a: float, R: float, L: int) -> list[float]:
    """Per block l = 1..L, the level t_l / a, t_l = 2^(L R / l) - 1, of :func:`still_short` at a = eta / M.

    2.0**y - 1 is exact at integer y, so a tie decodes (expm1 rounds above 2^11 - 1); 2^1024 is inf.
    """
    ys = [L * R / l for l in range(1, L + 1)]
    return [(math.expm1(y * _LN2) if y < 1 else 2.0**y - 1 if y < 1024 else math.inf) / a for y in ys]


def still_short(stats: np.ndarray, a: float, levels: Sequence[float], scratch=None) -> list[np.ndarray]:
    """Per block l = 1..L, the trials still short of the message: l I_b < L R, Zheng & Tse's (2003) outage.

    That is Q = (det(I + a G) - 1) / a = e_1 + a (e_2 + ... + a e_K) of :func:`channel_stats`, formed
    in `scratch` if given, below the l-th of `levels`. Ties decode, T cancels, and the masks nest.
    """
    Q = stats[-1]
    for e in stats[-2::-1]:  # Horner, in scratch from its first step
        Q = np.add(np.multiply(Q, a, out=scratch), e, out=scratch)
    return [Q < level for level in levels]


def stop_counts(
    cfg: RatelessConfig,
    points: Sequence[tuple[SnrPoint, float]],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
    decoder=None,
) -> np.ndarray:
    """The Monte Carlo kernel: one stop-histogram row per (eta, R) point.

    A row counts the trials stopping at blocks 1..L, then the outages.
    Trial t of a seed always reads the same window of the seed's one
    stream, whatever the call, and draws its :func:`fading_width` fading
    uniforms once; its SNR-free statistics then serve every point and
    every l, so the points share the draw (common random numbers), and a
    point's row does not depend on the other points or their order. A
    decoder riding along takes exactly one point, and each trial draws its
    `decoder.width` own uniforms after the fading draw; this function alone
    cuts the two blocks and calls decoder(own, stats, short) per chunk with
    the own block, the fading's :func:`channel_stats` and the still-short
    masks, so a decoder sees the channel only through those statistics.
    Its counts end the row.
    The counts do not depend on the chunk size or the worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not points or (decoder is not None and len(points) != 1):
        raise ValueError("need at least one (eta, R) point, and exactly one with a decoder")
    for _, R in points:
        if not R >= 0:  # so nan fails too
            raise ValueError(f"R must be >= 0, got {R}")
    M, N, L = cfg.M, cfg.N, cfg.L
    n_h = fading_width(M, N)
    width = n_h + (decoder.width if decoder else 0)
    # stream 0: the key of every simulate output, golden file and perfbench outage digest
    key = rng.stream_key(seed, 0)
    rules = [(eta.eta_linear / M, stop_levels(eta.eta_linear / M, R, L)) for eta, R in points]
    # one uniform buffer and one scratch buffer (the transpose, then Horner) per worker thread, reused
    # by its chunks: fresh chunk-sized buffers are often handed back to the OS and faulted in again
    local = threading.local()

    def one_chunk(t0: int, n: int) -> np.ndarray:
        if not hasattr(local, "u"):
            local.u, local.x = np.empty(min(chunk, trials) * width), np.empty(min(chunk, trials) * n_h)
        u = rng.trial_uniforms(key, width, t0, n, out=local.u)
        fading, own = u[:, :n_h], u[:, n_h:]
        stats = channel_stats(fading, M, N, local.x)
        rows = []
        for a, levels in rules:
            short = still_short(stats, a, levels, local.x[:n])
            # nested masks: the drop in the short count at block l is the trials that stop there
            stops = -np.diff(np.array([n, *(np.count_nonzero(s) for s in short), 0], dtype=np.int64))
            rows.append(stops if decoder is None else np.concatenate((stops, decoder(own, stats, short))))
        return np.stack(rows)

    # integer sums, so the result is exact in any order
    return np.sum(rng.map_chunks(one_chunk, trials, chunk=chunk, workers=workers), axis=0)


def binomial_stderr(p, n: int):
    """Standard error sqrt(p (1 - p) / n) of a binomial proportion p over n trials."""
    return np.sqrt(p * (1.0 - p) / n)


def effective_rate(R: float, L: int, p: Sequence[float]) -> float:
    """Average per-message rate r_bar = R * L / sum_{l=0}^{L-1} p(l) from p(0..L)."""
    if len(p) < L:
        raise ValueError(f"p has {len(p)} entries, need at least L={L}")
    return R * L / float(np.sum(p[:L]))


def diversity_slope(etas: Sequence[SnrPoint], neg_log2_p: Sequence[float]) -> float:
    """OLS slope of -log2(p) against log2(eta).

    Takes the exponents rather than the probabilities, so points where p
    itself rounds to 1 (e.g. the exponent of :func:`rank_one_outage`)
    still fit. At least two finite points with distinct SNR are required.
    """
    if len(etas) != len(neg_log2_p):
        raise ValueError("etas and neg_log2_p must have equal length")
    if len(etas) < 2:
        raise ValueError("need at least two points")
    x = np.array([e.log2_eta for e in etas])
    y = np.asarray(neg_log2_p, dtype=float)
    if np.any(~np.isfinite(y)):
        raise ValueError("neg_log2_p values must be finite")
    if len(np.unique(x)) != len(x):
        raise ValueError("SNR points must be distinct")
    return float(np.polyfit(x, y, 1)[0])


def run_rateless_experiment(
    cfg: RatelessConfig,
    r_n: float,
    eta_grid: Sequence[SnrPoint],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
) -> list[SnrRecord]:
    """Full protocol sweep: per SNR, estimate p(l), stop counts, and rates.

    The rate scales with SNR as R = r_n * log2(eta). One kernel call covers
    the whole grid: every SNR evaluates the same fading draw of each trial
    (common random numbers), so the cells of a sweep are correlated, and
    each record equals the one-point :func:`stop_counts` row at its SNR
    and rate, whatever its grid position.
    """
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    if not float(r_n) >= 0:  # so nan fails too
        raise ValueError(f"r_n must be >= 0, got {r_n}")
    points = [(eta, float(r_n) * eta.log2_eta) for eta in eta_grid]
    rows = stop_counts(cfg, points, trials, seed, workers=workers, chunk=chunk)
    return [SnrRecord(eta=eta, R=R, stop_hist=row) for (eta, R), row in zip(points, rows)]
