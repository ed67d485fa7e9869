"""Monte Carlo engine for the rateless protocol over Rayleigh block fading.

One fading matrix is drawn per codeword and held for all L blocks. The
receiver accumulates mutual information block by block and decodes at the
first block l where l * I_b >= L * R; if no block qualifies the codeword
is in outage. Decoding itself is not simulated here: information outage
is the error proxy, which is the operative event once blocks are long
enough. Everything is driven by the counter-based substreams in
:mod:`rateless_dmt.rng`, so results are bit-identical for any chunking or
thread count.

Each trial's fading draw is reduced once to SNR-free statistics of H
(:func:`channel_stats`), and every SNR of a sweep evaluates I_b from those
same statistics (:func:`block_info`). The SNR cells of one sweep thus share
their draws (common random numbers), and a cell's counts do not depend on
its position in the grid or on the other SNRs in it.
"""

from __future__ import annotations

import math
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
    if rate < 0:
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


def channel_stats(u: np.ndarray, M: int, N: int) -> np.ndarray:
    """The SNR-free statistics of each trial's N x M fading matrix, from its 2MN Box-Muller uniforms.

    Returns the planes of the K x K Gram matrix G = X X*, K = min(M, N), with X = H when
    N <= M and X = H^T otherwise: det(I + a G) = det(I_N + a H H*) either way (Sylvester's
    identity). Shape (K, K, trials), packed: Re G_ij at [i, j] for i >= j, Im G_ij at [j, i]
    for i > j. For rank one (K = 1), G = ||h||^2 is the sum of the entries' -log1p(-u1),
    half their squared Box-Muller radii, so no angle, normal or complex array is formed.
    """
    n = len(u)
    if min(M, N) == 1:
        return -np.log1p(-u[:, 0::2]).sum(axis=1).reshape(1, 1, n)
    x = rng.complex_normals(u).reshape(n, N, M)
    if N > M:
        x = x.transpose(0, 2, 1)
    # one contiguous (K, J, trials) plane per part, so each entry of G sums whole rows
    xr = np.ascontiguousarray(x.real.transpose(1, 2, 0))
    xi = np.ascontiguousarray(x.imag.transpose(1, 2, 0))
    K = len(xr)
    g = np.empty((K, K, n))
    for i in range(K):
        for j in range(i + 1):
            g[i, j] = np.einsum("mt,mt->t", xr[i], xr[j]) + np.einsum("mt,mt->t", xi[i], xi[j])
            if j < i:
                g[j, i] = np.einsum("mt,mt->t", xi[i], xr[j]) - np.einsum("mt,mt->t", xr[i], xi[j])
    return g


def block_info(stats: np.ndarray, eta_linear: float, M: int) -> np.ndarray:
    """Per-trial I_b = log2 det(I + (eta / M) G) from the Gram planes of :func:`channel_stats`.

    A square-root-free Cholesky (A = L D L*) of A = I + (eta / M) G, unrolled over the packed
    planes. A >= I, so every pivot D_j is >= 1, and log det A sums log1p(D_j - 1).
    """
    w = (eta_linear / M) * stats  # A - I, packed like stats; its diagonal ends as the D_j - 1
    K = len(w)
    for j in range(K - 1):
        inv = 1.0 / (1.0 + w[j, j])
        for i in range(j + 1, K):
            for c in range(j + 1, i + 1):
                # Schur complement: A_ic -= A_ij conj(A_cj) / D_j, real and imaginary planes
                w[i, c] -= (w[i, j] * w[c, j] + w[j, i] * w[j, c]) * inv
                if c < i:
                    w[c, i] -= (w[j, i] * w[c, j] - w[i, j] * w[j, c]) * inv
    logdet = np.log1p(w[0, 0])
    for j in range(1, K):
        logdet += np.log1p(w[j, j])
    return logdet / _LN2


def still_short(ib: np.ndarray, R: float, L: int) -> list[np.ndarray]:
    """Per block l = 1..L, which trials are still short of the message: l * I_b < L * R.

    Ties count as decodable. The block length T cancels from both sides
    and deliberately does not appear. Since I_b >= 0 the masks are nested:
    a trial short after block l was short after every earlier block.
    """
    return [l * ib < L * R for l in range(1, L + 1)]


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
    stream, whatever the call, and draws 2MN uniforms for its fading
    matrix once; its SNR-free statistics then serve every point and
    every l, so the points share the draw (common random numbers), and a
    point's row does not depend on the other points or their order. A
    decoder riding along takes exactly one point; it reserves
    `decoder.lead` uniforms before the fading draw and `decoder.trail`
    after, is called per chunk as decoder(u, short) with the uniforms and
    the still-short masks, and its count vector is appended to the row.
    The counts do not depend on the chunk size or the worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not points or (decoder is not None and len(points) != 1):
        raise ValueError("need at least one (eta, R) point, and exactly one with a decoder")
    for _, R in points:
        if R < 0:
            raise ValueError(f"R must be >= 0, got {R}")
    M, N, L = cfg.M, cfg.N, cfg.L
    lead, trail = (decoder.lead, decoder.trail) if decoder else (0, 0)
    n_h = 2 * M * N
    # stream 0: the key of every simulate output, golden file and perfbench outage digest
    key = rng.stream_key(seed, 0)

    def one_chunk(t0: int, n: int) -> np.ndarray:
        u = rng.trial_uniforms(key, lead + n_h + trail, t0, n)
        stats = channel_stats(u[:, lead : lead + n_h], M, N)
        rows = []
        for eta, R in points:
            short = still_short(block_info(stats, eta.eta_linear, M), R, L)
            # nested masks: the drop in the short count at block l is the trials that stop there
            left = np.array([n, *(np.count_nonzero(s) for s in short), 0], dtype=np.int64)
            stops = -np.diff(left)
            rows.append(stops if decoder is None else np.concatenate((stops, decoder(u, short))))
        return np.stack(rows)

    # integer sums, so the result is exact in any order
    return np.sum(rng.map_chunks(one_chunk, trials, chunk=chunk, workers=workers), axis=0)


def binomial_stderr(p, n: int):
    """Standard error sqrt(p (1 - p) / n) of a binomial proportion p over n trials."""
    return np.sqrt(p * (1.0 - p) / n)


def outage_record(
    cfg: RatelessConfig,
    eta: SnrPoint,
    R: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
) -> SnrRecord:
    """Monte Carlo p(l) for l = 0..L, stop histogram and effective rate at one SNR and rate R.

    The one-point call of :func:`stop_counts`. One fading draw per trial
    is shared across all l, so the estimates are exactly nonincreasing in
    l. Calls with the same seed reuse the same fading draws, which couples
    comparisons across SNR or rate through common random numbers; the
    record equals the row of any :func:`run_rateless_experiment` sweep of
    the seed that holds this SNR and rate.
    """
    (stops,) = stop_counts(cfg, [(eta, R)], trials, seed, workers=workers, chunk=chunk)
    return SnrRecord(eta=eta, R=R, stop_hist=stops)


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
    each record equals the one-point :func:`outage_record` at its SNR and
    rate, whatever its grid position.
    """
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    if float(r_n) < 0:
        raise ValueError(f"r_n must be >= 0, got {r_n}")
    points = [(eta, float(r_n) * eta.log2_eta) for eta in eta_grid]
    rows = stop_counts(cfg, points, trials, seed, workers=workers, chunk=chunk)
    return [SnrRecord(eta=eta, R=R, stop_hist=row) for (eta, R), row in zip(points, rows)]
