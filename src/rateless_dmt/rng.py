"""Jump-ahead randomness so Monte Carlo trials are order-independent.

Every stream is one PCG64DXSM generator (O'Neill 2014), and every trial
owns a fixed window of its outputs: trial t of a stream of width w reads
outputs [t * w, (t + 1) * w), one double each, reached by advancing the
generator t * w steps in O(log t) time. Because the mapping from (stream,
trial index) to raw uniforms is static, any chunking, any thread count,
and any execution order reproduce bit-identical results. Gaussians come
from the trigonometric Box-Muller transform, which consumes exactly one
uniform per normal, and Gamma(k, 1) variates from k uniforms as sums of
-log1p(-u); the variable consumption of ziggurat or rejection samplers
would break the per-trial alignment.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np
from numpy.random import Generator, PCG64DXSM, SeedSequence

DEFAULT_CHUNK = 1 << 16

_SQRT_HALF = np.sqrt(0.5)

T = TypeVar("T")


def stream_key(*entropy: int) -> SeedSequence:
    """The seed of one PCG64DXSM stream, from integer entropy (seed, stream tags)."""
    return SeedSequence(entropy)


def trial_uniforms(
    key: SeedSequence, uniforms_per_trial: int, start_trial: int, n_trials: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniforms in [0, 1) for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, uniforms_per_trial); row t - start_trial is
    exactly what a draw of trial t alone would produce. With `out`, a 1-D
    float64 buffer of at least n_trials * uniforms_per_trial entries (a
    shorter one raises ValueError), the draw fills its head and returns a
    view of it, so a caller can reuse one buffer across chunks instead of
    faulting in fresh pages.
    """
    if uniforms_per_trial < 1:
        raise ValueError("uniforms_per_trial must be >= 1")
    shape = (n_trials, uniforms_per_trial)
    if out is not None:
        out = out[: n_trials * uniforms_per_trial].reshape(shape)
    bits = PCG64DXSM(key)
    bits.advance(int(start_trial) * uniforms_per_trial)
    return Generator(bits).random(shape, out=out)


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

