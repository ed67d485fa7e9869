"""Scalar reference oracles for the batched Monte Carlo kernel.

Each function handles one trial with plain Python control flow and an
explicit matrix, so it shares no code path with `rateless_dmt.simulate`.
The kernel tests feed both the same Philox uniforms and compare per-trial
results.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from rateless_dmt import SnrPoint, rank_one_outage


def block_mutual_info(H: np.ndarray, eta: SnrPoint, M: Optional[int] = None) -> float:
    """Per-channel-use mutual information log2 det(I + (eta / M) H H*) of one N x M matrix.

    Gaussian inputs with equal power per transmit antenna. M defaults to
    the matrix width; passing a mismatching M is an error.
    """
    if M is None:
        M = H.shape[1]
    elif M != H.shape[1]:
        raise ValueError(f"M={M} does not match H shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel matrix has non-finite entries")
    if H.shape == (1, 1):
        return math.log1p(eta.eta_linear * abs(H[0, 0]) ** 2) / math.log(2.0)
    gram = np.eye(H.shape[0], dtype=complex) + (eta.eta_linear / M) * (H @ H.conj().T)
    _, logdet = np.linalg.slogdet(gram)
    return float(logdet) / math.log(2.0)


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


def siso_outage_profile(eta: SnrPoint, R: float, L: int) -> np.ndarray:
    """Closed-form p(0..L) for the SISO stopping rule at rate R."""
    p = np.ones(L + 1)
    for l in range(1, L + 1):
        p[l] = rank_one_outage(1, 1, eta, L * R / l)[0]
    return p
