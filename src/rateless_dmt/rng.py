"""Counter-based randomness so Monte Carlo trials are order-independent.

Every trial owns a fixed window of the Philox counter space: trial t of a
stream consumes uniforms from counter blocks [t * B, (t + 1) * B) where
B = ceil(uniforms_per_trial / 4) and each 256-bit counter block yields 4
doubles. Because the mapping from (key, trial index) to raw uniforms is
static, any chunking, any thread count, and any execution order reproduce
bit-identical results. Gaussians come from the trigonometric Box-Muller
transform, which consumes exactly one uniform per normal, and Gamma(k, 1)
variates from k uniforms as sums of -log1p(-u); the variable consumption of
ziggurat or rejection samplers would break the per-trial alignment.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np
from numpy.random import Generator, Philox

UNIFORMS_PER_BLOCK = 4

DEFAULT_CHUNK = 1 << 16

_SQRT_HALF = np.sqrt(0.5)

T = TypeVar("T")


def stream_key(*entropy: int) -> np.ndarray:
    """Derive a 128-bit Philox key from integer entropy (seed, stream tags)."""
    return np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint64)


def blocks_per_trial(uniforms_per_trial: int) -> int:
    if uniforms_per_trial < 1:
        raise ValueError("uniforms_per_trial must be >= 1")
    return -(-uniforms_per_trial // UNIFORMS_PER_BLOCK)


def trial_uniforms(
    key: np.ndarray, uniforms_per_trial: int, start_trial: int, n_trials: int
) -> np.ndarray:
    """Uniforms in [0, 1) for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, uniforms_per_trial); row t - start_trial is
    exactly what a standalone generator seeded at trial t would produce.
    """
    b = blocks_per_trial(uniforms_per_trial)
    gen = Generator(Philox(key=key, counter=int(start_trial) * b))
    raw = gen.random(n_trials * b * UNIFORMS_PER_BLOCK)
    return raw.reshape(n_trials, b * UNIFORMS_PER_BLOCK)[:, :uniforms_per_trial]


def complex_normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller: map 2k uniforms per row to k circularly-symmetric CN(0, 1) samples."""
    if u.shape[-1] % 2:
        raise ValueError("need an even number of uniforms per row")
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    # 1 - u1 lies in (0, 1], so the log never sees zero.
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * np.pi) * u2
    return (radius * np.cos(angle) + 1j * (radius * np.sin(angle))) * _SQRT_HALF


def chunk_ranges(total: int, chunk: int = DEFAULT_CHUNK) -> Iterator[tuple[int, int]]:
    """Split range(total) into (start, length) runs of at most `chunk`."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    start = 0
    while start < total:
        n = min(chunk, total - start)
        yield start, n
        start += n


def map_chunks(
    fn: Callable[[int, int], T],
    total: int,
    chunk: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> list[T]:
    """Apply fn(start, length) over the chunk grid, results in chunk order.

    Chunk results come back in a fixed order regardless of workers, so a
    reduction over the returned list is scheduling-independent.
    """
    ranges = list(chunk_ranges(total, chunk))
    if workers <= 1 or len(ranges) <= 1:
        return [fn(t0, n) for t0, n in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))

