"""SISO permutation codes and their use as rateless codes.

A codebook maps each of 2^bits messages to one constellation point per
block; block 1 uses the points verbatim and every other block applies a
permutation. Decoding works on whatever prefix of blocks the stopping
rule releases, so permutations are scored by the minimum pairwise
product distance of every prefix, longest prefix first. Each block is
one channel use, so a code of `bits` bits runs at R = bits / L bits per
channel use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import rng, simulate
from .configs import RatelessConfig
from .simulate import SnrPoint, SnrRecord, binomial_stderr

MAX_BITS = 8

DEFAULT_SEARCH_BUDGET = 200_000

_HILL_CLIMB_RESTARTS = 16


@dataclass(frozen=True, eq=False)
class Constellation:
    """A normalized set of 2^bits distinct complex signal points."""

    points: np.ndarray
    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if len(self.points) != 2**self.bits:
            raise ValueError(
                f"expected {2 ** self.bits} points for bits={self.bits}, got {len(self.points)}"
            )
        if not np.all(np.isfinite(self.points)):
            raise ValueError("constellation points must be finite")
        if len(np.unique(self.points)) != len(self.points):
            raise ValueError("constellation points must be distinct")
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"mean energy must be 1 within 1e-12, got {energy!r}")

    @property
    def size(self) -> int:
        return len(self.points)


def build_qam(bits: int) -> Constellation:
    """Unit-energy QAM alphabet of 2^bits points.

    Even bit counts give the square grid; odd bit counts give the
    2^((bits+1)/2) x 2^((bits-1)/2) rectangular grid, which degenerates
    to the +-1 pair at bits = 1.
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")
    w = 2 ** ((bits + 1) // 2)
    h = 2 ** (bits // 2)
    xs = np.arange(-(w - 1), w, 2)
    ys = np.arange(-(h - 1), h, 2)
    grid = xs[None, :] + 1j * ys[:, None]
    points = grid.ravel()
    scale = 1.0 / math.sqrt(np.mean(np.abs(points) ** 2))
    return Constellation(points=points * scale, bits=bits)


@dataclass(frozen=True, eq=False)
class PermutationCode:
    """L per-block permutations of one constellation; block 1 is identity."""

    constellation: Constellation
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.perms) < 1:
            raise ValueError("need at least one block")
        n = self.constellation.size
        identity = tuple(range(n))
        if self.perms[0] != identity:
            raise ValueError("perms[0] must be the identity permutation")
        for k, perm in enumerate(self.perms):
            if tuple(sorted(perm)) != identity:
                raise ValueError(f"perms[{k}] is not a permutation of 0..{n - 1}")

    @property
    def L(self) -> int:
        return len(self.perms)

    @property
    def bits(self) -> int:
        return self.constellation.bits

    @property
    def n_messages(self) -> int:
        return self.constellation.size

    @cached_property
    def symbol_table(self) -> np.ndarray:
        """Shape (L, n_messages): symbol sent in block l for each message."""
        pts = self.constellation.points
        return np.stack([pts[np.asarray(perm)] for perm in self.perms])


def identity_code(L: int, bits: int) -> PermutationCode:
    """The repetition baseline: every block transmits the same point."""
    n = 2**bits
    return PermutationCode(
        constellation=build_qam(bits), perms=tuple(tuple(range(n)) for _ in range(L))
    )


def prefix_min_products(code: PermutationCode) -> tuple[float, ...]:
    """Minimum pairwise product distance of each prefix, l = 1..L.

    Entry l - 1 is min over message pairs of prod_{k <= l} |x_k - x'_k|.
    """
    i, j = np.triu_indices(code.n_messages, k=1)
    return tuple(reversed(_objective(code.constellation.points, code.perms, i, j)))


def _objective(points: np.ndarray, perms: Sequence[Sequence[int]], i, j) -> tuple[float, ...]:
    """Per-prefix minima ordered longest prefix first, for lexicographic max."""
    prod = np.ones(len(i))
    minima = []
    for perm in perms:
        row = points[np.asarray(perm)]
        prod = prod * np.abs(row[i] - row[j])
        minima.append(float(prod.min()))
    return tuple(reversed(minima))


def search_permutation_code(
    L: int,
    bits: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
) -> tuple[PermutationCode, tuple[float, ...]]:
    """Find permutations maximizing prefix product distances.

    The score of a candidate is the tuple of per-prefix minimum product
    distances, compared lexicographically from the full prefix down to
    block 1. Exhaustive enumeration runs when (2^bits)!^(L-1) candidate
    tuples fit the evaluation budget; otherwise seeded random restarts
    with pairwise-swap hill climbing. Ties go to the lexicographically
    smallest permutation tuple, so the result does not depend on
    evaluation order. Returns the code and its :func:`prefix_min_products`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    const = build_qam(bits)
    n = const.size
    identity = tuple(range(n))
    i, j = np.triu_indices(n, k=1)
    points = const.points

    best_perms = (identity,) * L
    best_obj = _objective(points, best_perms, i, j)

    def consider(perms: tuple[tuple[int, ...], ...], obj: tuple[float, ...]):
        nonlocal best_perms, best_obj
        if obj > best_obj or (obj == best_obj and perms < best_perms):
            best_perms, best_obj = perms, obj

    n_candidates = math.factorial(n) ** (L - 1)
    if n_candidates <= budget:
        for tail in itertools.product(itertools.permutations(range(n)), repeat=L - 1):
            perms = (identity,) + tail
            consider(perms, _objective(points, perms, i, j))
    else:
        per_restart = max(1, budget // _HILL_CLIMB_RESTARTS)
        swaps = list(itertools.product(range(1, L), itertools.combinations(range(n), 2)))
        for restart in range(_HILL_CLIMB_RESTARTS):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, restart))))
            tail = [tuple(gen.permutation(n)) for _ in range(L - 1)]
            perms = (identity,) + tuple(tail)
            obj = _objective(points, perms, i, j)
            consider(perms, obj)
            evals = 1
            improved = True
            while improved and evals < per_restart:
                improved = False
                for k, (a, b) in swaps:
                    cand = list(perms[k])
                    cand[a], cand[b] = cand[b], cand[a]
                    cand_perms = perms[:k] + (tuple(cand),) + perms[k + 1 :]
                    cand_obj = _objective(points, cand_perms, i, j)
                    evals += 1
                    if cand_obj > obj:
                        perms, obj = cand_perms, cand_obj
                        improved = True
                    if evals >= per_restart:
                        break
            consider(perms, obj)

    code = PermutationCode(constellation=const, perms=best_perms)
    return code, prefix_min_products(code)


def ml_decode(table: np.ndarray, y: np.ndarray, h: np.ndarray, sqrt_eta: float) -> np.ndarray:
    """Batched maximum-likelihood decoding over the prefix of blocks in `table`.

    table has shape (l, n_messages); row t of y (at least l columns) was
    received through gain h[t]. Minimizes the summed squared distance to
    sqrt(eta) * h * x over all messages; ties resolve to the smallest
    message index.
    """
    scale = (sqrt_eta * h)[:, None]
    d2 = np.zeros((len(h), table.shape[1]))
    for k, row in enumerate(table):
        d2 += np.abs(y[:, k][:, None] - scale * row[None, :]) ** 2
    return np.argmin(d2, axis=1)


@dataclass(frozen=True, eq=False)
class CodeTrialResult(SnrRecord):
    """An :class:`SnrRecord` of code trials plus the decoding errors per stopping block.

    err_counts[l - 1] counts decoding errors among trials that stopped at
    block l. joint_err[l - 1] estimates Pr(decoding error and stop at block
    l); the final entry also carries the outage mass, since an undecoded
    message is a failure, so p_e = sum(joint_err) is the overall error
    probability. cond_err_nonoutage is the error rate among trials that
    decoded.
    """

    err_counts: np.ndarray = field(repr=False)

    @property
    def errors(self) -> "CodeTrialResult":
        """The result itself; its one reader, perfbench/run.py:oracle_cells, reads
        res.errors.joint_err, .stop_hist and .trials."""
        return self

    @cached_property
    def joint_err(self) -> np.ndarray:
        fail_counts = self.err_counts.copy()
        fail_counts[-1] += self.stop_hist[-1]
        return fail_counts / self.trials

    @property
    def joint_stderr(self) -> np.ndarray:
        return binomial_stderr(self.joint_err, self.trials)

    @property
    def p_e(self) -> float:
        return float(np.sum(self.joint_err))

    @property
    def p_e_stderr(self) -> float:
        return float(binomial_stderr(self.p_e, self.trials))

    @property
    def cond_err_nonoutage(self) -> float:
        decoded_trials = int(np.sum(self.stop_hist[:-1]))
        return float(np.sum(self.err_counts)) / decoded_trials if decoded_trials else math.nan


class _PrefixErrors:
    """Decoder hook for :func:`simulate.stop_counts`: errors per stopping block.

    Trial layout in the substream: one uniform for the message, two for
    the fading draw, 2L for the block noises. The layout is independent
    of the codebook, so runs with equal seeds share all randomness; that
    is what makes paired code comparisons tight.
    """

    lead = 1

    def __init__(self, code: PermutationCode, eta: SnrPoint):
        self.table = code.symbol_table
        self.trail = 2 * code.L
        self.sqrt_eta = math.sqrt(eta.eta_linear)

    def __call__(self, u: np.ndarray, short: list[np.ndarray]) -> np.ndarray:
        L, n_msgs = self.table.shape
        msg = np.minimum((u[:, 0] * n_msgs).astype(np.int64), n_msgs - 1)
        z = rng.complex_normals(u[:, 1:])  # the fading draw, then the block noises
        h, noise = z[:, 0], z[:, 1:]
        y = self.sqrt_eta * h[:, None] * self.table[:, msg].T + noise
        err_counts = np.zeros(L, dtype=np.int64)
        undecided = np.ones(len(u), dtype=bool)
        for l in range(1, L + 1):
            sel = undecided & ~short[l - 1]  # stops at block l
            undecided = short[l - 1]
            if np.any(sel):
                decoded = ml_decode(self.table[:l], y[sel], h[sel], self.sqrt_eta)
                err_counts[l - 1] = np.count_nonzero(decoded != msg[sel])
        return err_counts


def run_rateless_code_trials(
    code: PermutationCode,
    eta: SnrPoint,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    chunk: int = rng.DEFAULT_CHUNK,
) -> CodeTrialResult:
    """Simulate the full rateless protocol with actual ML decoding.

    The rate is the codebook's own, R = bits / L. Per trial: draw h,
    accumulate Gaussian-input mutual information to pick the stopping
    block, then ML-decode the received prefix. Outage trials never decode
    and count as errors in the final joint term. Every call of a seed
    draws trial t from the same uniforms, so runs at other SNRs or with
    other codebooks see the same messages, fading and noise.
    """
    L = code.L
    R = code.bits / L
    cfg = RatelessConfig(1, 1, L)
    # bound the per-chunk distance matrix to ~32 MB for large codebooks
    chunk = min(chunk, max(1 << 12, (1 << 22) // code.n_messages))
    (counts,) = simulate.stop_counts(
        cfg, [(eta, R)], trials, seed,
        workers=workers, chunk=chunk, decoder=_PrefixErrors(code, eta),
    )
    return CodeTrialResult(eta=eta, R=R, stop_hist=counts[: L + 1], err_counts=counts[L + 1 :])


def codebook_text(code: PermutationCode) -> str:
    """Canonical plain-text form: L, bits, `re,im` point lines, L perm lines."""
    lines = [str(code.L), str(code.bits)]
    for p in code.constellation.points:
        lines.append(f"{float(p.real)!r},{float(p.imag)!r}")
    for perm in code.perms:
        lines.append(" ".join(str(i) for i in perm))
    return "\n".join(lines) + "\n"


def save_codebook(code: PermutationCode, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(codebook_text(code))


def parse_codebook(text: str) -> PermutationCode:
    """Parse the plain-text codebook format; errors carry the line number."""
    lines = text.splitlines()

    def need(idx: int) -> str:
        if idx >= len(lines):
            raise ValueError(f"line {idx + 1}: unexpected end of codebook")
        return lines[idx]

    def parse_int(idx: int, label: str) -> int:
        raw = need(idx).strip()
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"line {idx + 1}: expected integer {label}, got {raw!r}") from None

    L = parse_int(0, "L")
    bits = parse_int(1, "bits")
    if L < 1 or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"line 1: invalid dimensions L={L}, bits={bits}")
    n = 2**bits
    points = np.empty(n, dtype=complex)
    for k in range(n):
        idx = 2 + k
        raw = need(idx).strip()
        parts = raw.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {idx + 1}: expected `re,im`, got {raw!r}")
        try:
            points[k] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {idx + 1}: malformed point {raw!r}") from None
    perms = []
    for k in range(L):
        idx = 2 + n + k
        raw = need(idx).strip()
        try:
            perm = tuple(int(tok) for tok in raw.split())
        except ValueError:
            raise ValueError(f"line {idx + 1}: malformed permutation {raw!r}") from None
        if len(perm) != n:
            raise ValueError(f"line {idx + 1}: permutation has {len(perm)} entries, expected {n}")
        perms.append(perm)
    extra = 2 + n + L
    if any(line.strip() for line in lines[extra:]):
        raise ValueError(f"line {extra + 1}: trailing content after codebook")
    try:
        return PermutationCode(constellation=Constellation(points=points, bits=bits), perms=tuple(perms))
    except ValueError as exc:
        raise ValueError(f"line 1: invalid codebook: {exc}") from None


def load_codebook(path: str) -> PermutationCode:
    with open(path, "r", newline="") as f:
        return parse_codebook(f.read())
