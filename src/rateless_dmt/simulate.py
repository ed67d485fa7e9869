"""Monte Carlo engine for the rateless protocol over Rayleigh block fading.

One fading matrix is drawn per codeword and held for all L blocks. The
receiver accumulates mutual information block by block and decodes at the
first block l where l * I_b >= L * R; if no block qualifies the codeword
is in outage. Decoding itself is not simulated here: information outage
is the error proxy, which is the operative event once blocks are long
enough. Everything is driven by the counter-based substreams in
:mod:`rateless_dmt.rng`, so results are bit-identical for any chunking or
thread count.
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


@dataclass(frozen=True)
class SnrRecord:
    """The stop counts of one SNR point and rate R; every estimate derives from them.

    stop_hist counts the trials that stopped at blocks 1..L, then the
    outages. p_hat[l] = Pr(still short after block l) for l = 0..L, so
    p_hat[0] is 1 and p_hat is nonincreasing; the standard errors are the
    binomial sqrt(p (1 - p) / n).
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


def block_info(h: np.ndarray, eta_linear: float, M: int, N: int) -> np.ndarray:
    """Per-trial log2 det(I_N + (eta / M) H H*), one trial per row of N*M entries.

    Gaussian inputs with equal power per transmit antenna; each row holds
    the N x M matrix H in row-major order.
    """
    if M == 1 and N == 1:
        return np.log1p(eta_linear * np.abs(h[:, 0]) ** 2) / _LN2
    h = h.reshape(len(h), N, M)
    gram = np.eye(N, dtype=complex) + (eta_linear / M) * (h @ h.conj().transpose(0, 2, 1))
    return np.linalg.slogdet(gram)[1] / _LN2


def still_short(ib: np.ndarray, R: float, L: int) -> list[np.ndarray]:
    """Per block l = 1..L, which trials are still short of the message: l * I_b < L * R.

    Ties count as decodable. The block length T cancels from both sides
    and deliberately does not appear. Since I_b >= 0 the masks are nested:
    a trial short after block l was short after every earlier block.
    """
    return [l * ib < L * R for l in range(1, L + 1)]


def stop_counts(
    cfg: RatelessConfig,
    eta: SnrPoint,
    R: float,
    trials: int,
    seed: int,
    *,
    stream: int = 0,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
    decoder=None,
) -> np.ndarray:
    """The Monte Carlo kernel: the stop histogram, trials stopping at blocks 1..L then outages.

    Every trial of substream (seed, stream) draws 2MN uniforms for its
    fading matrix, and that one draw serves all l. A decoder riding along
    reserves `decoder.lead` uniforms before them and `decoder.trail` after;
    it is called per chunk as decoder(u, h, short) with the uniforms, the
    channel entries and the still-short masks, and its count vector is
    appended to the L + 1 stop counts. The counts do not depend on the
    chunk size or the worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    M, N, L = cfg.M, cfg.N, cfg.L
    lead, trail = (decoder.lead, decoder.trail) if decoder else (0, 0)
    n_h = 2 * M * N
    key = rng.stream_key(seed, stream)
    eta_lin = eta.eta_linear

    def one_chunk(t0: int, n: int) -> np.ndarray:
        u = rng.trial_uniforms(key, lead + n_h + trail, t0, n)
        h = rng.complex_normals(u[:, lead : lead + n_h])
        short = still_short(block_info(h, eta_lin, M, N), R, L)
        # nested masks: the drop in the short count at block l is the trials that stop there
        left = np.array([n, *(np.count_nonzero(s) for s in short), 0], dtype=np.int64)
        stops = -np.diff(left)
        if decoder is None:
            return stops
        return np.concatenate((stops, decoder(u, h, short)))

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
    stream: int = 0,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
) -> SnrRecord:
    """Monte Carlo p(l) for l = 0..L, stop histogram and effective rate at one SNR and rate R.

    One fading draw per trial is shared across all l, so the estimates
    are exactly nonincreasing in l. Calls with the same seed and stream
    reuse the same fading draws, which couples comparisons across SNR or
    rate through common random numbers.
    """
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    stops = stop_counts(cfg, eta, R, trials, seed, stream=stream, workers=workers, chunk=chunk)
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

    The rate scales with SNR as R = r_n * log2(eta). Each SNR point uses
    its own substream tagged by grid position, so records are independent
    of evaluation order.
    """
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    if float(r_n) < 0:
        raise ValueError(f"r_n must be >= 0, got {r_n}")
    return [
        outage_record(
            cfg, eta, float(r_n) * eta.log2_eta, trials, seed, stream=i, workers=workers, chunk=chunk
        )
        for i, eta in enumerate(eta_grid)
    ]
