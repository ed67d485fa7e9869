"""Scalar reference oracles for the batched Monte Carlo kernel.

Each function handles one trial with plain Python control flow and an
explicit matrix, so it shares no code path with `rateless_dmt.simulate`.
The kernel tests feed both the same stream uniforms and compare per-trial
results. `block_info` and `log_domain_short` are the batched exception:
they decide the stop rule in the log domain, l * I_b < L * R, a second
route to the masks the kernel decides on det(I + a G).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from rateless_dmt import SnrPoint, rank_one_outage

_LN2 = math.log(2.0)


def block_mutual_info(H: np.ndarray, eta: SnrPoint, M: Optional[int] = None) -> float:
    """Per-channel-use mutual information log2 det(I + (eta / M) H H*) of one N x M matrix.

    Gaussian inputs with equal power per transmit antenna. M defaults to
    the matrix width; passing a mismatching M is an error. A tall H goes
    through det(I_M + (eta / M) H* H), the same value by Sylvester's
    identity: slogdet of the larger, nearly singular I_N + (eta / M) H H*
    loses digits as eta grows (5e-11 relative at 60 dB, 1x4).
    """
    if M is None:
        M = H.shape[1]
    elif M != H.shape[1]:
        raise ValueError(f"M={M} does not match H shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel matrix has non-finite entries")
    if H.shape == (1, 1):
        return math.log1p(eta.eta_linear * abs(H[0, 0]) ** 2) / math.log(2.0)
    return factor_mutual_info(H.conj().T if H.shape[0] > M else H, eta, M)


def factor_mutual_info(X: np.ndarray, eta: SnrPoint, M: int) -> float:
    """log2 det(I + (eta / M) X X*) by slogdet, for a channel X or a factor T of its Gram matrix.

    M is the transmit antenna count that splits the power, whatever X's width.
    """
    gram = np.eye(X.shape[0], dtype=complex) + (eta.eta_linear / M) * (X @ X.conj().T)
    _, logdet = np.linalg.slogdet(gram)
    return float(logdet) / math.log(2.0)


def bartlett_factor(u, M: int, N: int) -> np.ndarray:
    """The K x K real lower-bidiagonal factor B of one trial, K = min(M, N) >= 2, m = max(M, N).

    B B* has the eigenvalue law of the complex Wishart H H* (Dumitriu & Edelman, 2002). Reads the
    row of fading uniforms left to right, each exactly once: for i = 0..K-1 the m - i uniforms
    whose -log(1 - u) sum to B_ii^2; then, for i = 0..K-2, the K - 1 - i that sum to B_i+1,i^2.
    """
    K, m = min(M, N), max(M, N)
    if K < 2:
        raise ValueError(f"the bidiagonal draw needs min(M, N) >= 2, got {M}x{N}")
    it = iter(float(x) for x in u)
    B = np.zeros((K, K))
    for i, j, terms in [(i, i, m - i) for i in range(K)] + [(i + 1, i, K - 1 - i) for i in range(K - 1)]:
        B[i, j] = math.sqrt(sum(-math.log1p(-next(it)) for _ in range(terms)))
    if next(it, None) is not None:
        raise ValueError(f"{len(u)} uniforms is more than a {M}x{N} bidiagonal draw reads")
    return B


def rateless_stop(I_b: float, R: float, L: int) -> Optional[int]:
    """First block l in 1..L with l * I_b >= L * R; None for outage.

    Ties count as decodable. The block length T cancels from both sides
    and deliberately does not appear.
    """
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    for l in range(1, L + 1):
        if l * I_b >= L * R:
            return l
    return None


def block_info(stats: np.ndarray, eta_linear: float, M: int) -> np.ndarray:
    """Per-trial I_b = log2 det(I + a G), a = eta / M, from the coefficients of `channel_stats`.

    Horner: det(I + a G) - 1 = a (e_1 + a (e_2 + ... + a e_K)), nonnegative terms only.
    """
    a = eta_linear / M
    x = a * stats[-1]
    for e in stats[-2::-1]:
        x += e
        x *= a
    return np.log1p(x) / _LN2


def log_domain_short(ib: np.ndarray, R: float, L: int) -> list[np.ndarray]:
    """Per block l = 1..L, which trials are short in the log domain: l * I_b < L * R, ties decode."""
    return [l * ib < L * R for l in range(1, L + 1)]


def siso_outage_profile(eta: SnrPoint, R: float, L: int) -> np.ndarray:
    """Closed-form p(0..L) for the SISO stopping rule at rate R."""
    p = np.ones(L + 1)
    for l in range(1, L + 1):
        p[l] = rank_one_outage(1, 1, eta, L * R / l)[0]
    return p
