"""SISO permutation codes and their use as rateless codes.

A codebook maps each of 2^bits messages to one point of the 2^bits-point
QAM grid per block; block 1 sends message m as grid point m and every
other block applies a permutation. Decoding works on whatever prefix of
blocks the stopping rule releases, so permutations are scored by the
minimum pairwise product distance of every prefix, longest prefix first.
Each block is one channel use, so a code of `bits` bits runs at
R = bits / L bits per channel use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from . import rng, simulate
from .configs import RatelessConfig
from .simulate import SnrPoint, SnrRecord, binomial_stderr

MAX_BITS = 8

DEFAULT_SEARCH_BUDGET = 200_000

_HILL_CLIMB_RESTARTS = 16

# ml_decode: a row's top score must beat the runner-up by this share of sum_i |A_i| max|B_i|
# over the score's terms A_i B_i, plus sum_k |y_k|^2; float64 rounding is about 1e-15 of that.
_SCREEN_MARGIN = 1e-9

# Scores per screened block: 512 KiB of float64
_SCREEN_BLOCK = 1 << 16

# _PrefixErrors counts a trial correct, undecoded, when its noise energy is below
# (1 - delta) eta |h|^2 rho_l^2: every other message is then farther from y than the sent one
# by more than delta / 2 |s|^2 d2_min, and d2_min >= 4 c^2 >= max|x|^2 / 112.5 on every grid.
# That is about 4e6 / l times the rounding of ml_decode's sums (1e-15 of |s|^2 l max|x|^2) and
# of the energies (1e-16 of themselves): the noise's from its radius uniforms, and the gain
# |h|^2 = e_1 of simulate.channel_stats.
_BALL_MARGIN = 1e-6


@cache
def build_qam(bits: int) -> np.ndarray:
    """Unit-energy QAM alphabet of 2^bits points, one read-only array per size.

    Even bit counts give the square grid; odd bit counts give the
    2^((bits+1)/2) x 2^((bits-1)/2) rectangular grid, which degenerates
    to the +-1 pair at bits = 1. Point k sits at column k mod w, row
    k // w, with w = 2^((bits+1)/2) levels on the real axis.
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
    points = points * scale
    points.setflags(write=False)
    return points


@dataclass(frozen=True, eq=False)
class PermutationCode:
    """L per-block permutations of the 2^bits-point QAM grid; block 1 is identity."""

    bits: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in 1..{MAX_BITS}, got {self.bits}")
        if len(self.perms) < 1:
            raise ValueError("need at least one block")
        n = self.n_messages
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
    def n_messages(self) -> int:
        return 2**self.bits

    @cached_property
    def symbol_table(self) -> np.ndarray:
        """Shape (L, n_messages): symbol sent in block l for each message."""
        pts = build_qam(self.bits)
        return np.stack([pts[np.asarray(perm)] for perm in self.perms])

    @cached_property
    def packing_sq(self) -> np.ndarray:
        """Shape (L,): the squared packing radius rho_l^2 = d2_min / 4 of each prefix l = 1..L.

        d2_min of prefix l is the min over message pairs of sum_{k <= l} |x_k - x'_k|^2.
        """
        d2 = np.zeros((self.n_messages, self.n_messages))  # every ordered pair, over blocks 1..l
        np.fill_diagonal(d2, np.inf)  # a message paired with itself
        out = np.empty(self.L)
        for l, x in enumerate(self.symbol_table):
            d2 += np.abs(x[:, None] - x) ** 2
            out[l] = d2.min()
        return out / 4


def identity_code(L: int, bits: int) -> PermutationCode:
    """The repetition baseline: every block transmits the same point."""
    n = 2**bits
    return PermutationCode(bits=bits, perms=tuple(tuple(range(n)) for _ in range(L)))


def prefix_min_products(code: PermutationCode) -> tuple[float, ...]:
    """Minimum pairwise product distance of each prefix, l = 1..L.

    Entry l - 1 is min over message pairs of prod_{k <= l} |x_k - x'_k|.
    """
    i, j = np.triu_indices(code.n_messages, k=1)
    return tuple(reversed(_objective(build_qam(code.bits), code.perms, i, j)))


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
    points = build_qam(bits)
    n = len(points)
    identity = tuple(range(n))
    i, j = np.triu_indices(n, k=1)

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

    code = PermutationCode(bits=bits, perms=best_perms)
    return code, prefix_min_products(code)


def ml_decode(code: PermutationCode, l: int, y: np.ndarray, h: np.ndarray, sqrt_eta: float) -> np.ndarray:
    """Batched maximum-likelihood decoding of `code` from its first l blocks.

    Row t of y (at least l columns) was received through gain h[t].
    Minimizes the summed squared distance to s * x, s = sqrt(eta) * h, over
    all messages; ties resolve to the smallest message index.

    Every block shares the gain s, so the minimizer maximizes the
    correlation score sum_k Re(conj(s) y_k conj(x_k)) - |s|^2 E / 2, with
    E = sum_k |x_k|^2, scored for all messages by one real matrix product,
    (rows x (2l+1)) @ ((2l+1) x n_messages), in cache-sized blocks. A row's
    decision stands only when its top score beats every other score by
    `_SCREEN_MARGIN` of the row's magnitude scale, far above the rounding
    of the distance sums and of the product, which can depend on the batch
    shape. Every other row (exact ties and h = 0 among them) is re-decoded
    by the elementwise distance sums. So each row decodes as the distance
    sums alone would decode it, in any batch, chunk or worker count. Code
    trials whose noise lies inside the prefix's packing ball never reach
    this function (see :class:`_PrefixErrors`).
    """
    table = code.symbol_table[:l]
    s = sqrt_eta * h
    a = np.conj(s)[:, None] * y[:, :l]
    g = np.abs(s) ** 2
    energy = np.sum(np.abs(table) ** 2, axis=0)
    # sum_i |A_i| max|B_i|, column by column (a matrix product over so few terms is slower);
    # |y|^2 bounds the rounding of the distance sums themselves, which matters when |s| << |y|
    scale = 0.5 * np.max(energy) * g
    for k, x in enumerate(table):
        scale += np.abs(a[:, k].real) * np.max(np.abs(x.real)) + np.abs(y[:, k]) ** 2
        scale += np.abs(a[:, k].imag) * np.max(np.abs(x.imag))
    decoded, gap = _screen(a, g, table, energy)
    unclear = ~(gap > _SCREEN_MARGIN * scale)
    if np.any(unclear):
        decoded[unclear] = np.argmin(_distance_sums(table, y[unclear], s[unclear]), axis=1)
    return decoded


def _screen(a, g, table, energy) -> tuple[np.ndarray, np.ndarray]:
    """Each row's top-scoring message by one real matrix product, and its lead on the runner-up."""
    lhs = np.concatenate((a.real, a.imag, (-0.5 * g)[:, None]), axis=1)
    rhs = np.concatenate((table.real, table.imag, energy[None, :]))
    decoded = np.empty(len(a), dtype=np.int64)
    gap = np.empty(len(a))
    step = _SCREEN_BLOCK // table.shape[1]  # a cache-sized block of scores at a time
    for r0 in range(0, len(a), step):
        scores = lhs[r0 : r0 + step] @ rhs
        rows = np.arange(len(scores))
        best = np.argmax(scores, axis=1)
        top = scores[rows, best]
        scores[rows, best] = -np.inf
        runner_up = scores[rows, np.argmax(scores, axis=1)]  # argmax is faster than max on short rows
        decoded[r0 : r0 + step] = best
        gap[r0 : r0 + step] = top - runner_up
    return decoded, gap


def _distance_sums(table: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k |y_k - s x_k|^2 for every row and message, summed block by block."""
    d2 = np.zeros((len(s), table.shape[1]))
    for k, row in enumerate(table):
        d2 += np.abs(y[:, k][:, None] - s[:, None] * row[None, :]) ** 2
    return d2


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

    ML decoding of a SISO code sees the channel only through |h|: turning y
    by the phase of h leaves the law of the circular noise unchanged. So the
    hook reads e_1 = |h|^2 from the kernel's `stats` and decodes with the
    real gain h = sqrt(e_1). Its own uniforms are one for the message, then
    2L for the noises, whatever the codebook, so equal seeds share all
    randomness and paired code comparisons stay tight. A trial that stops at
    block l and whose noise lies inside the prefix's packing ball,
    sum_{k <= l} |n_k|^2 < (1 - `_BALL_MARGIN`) eta e_1 rho_l^2, decodes
    correctly whatever its message and angles; the noise energies are
    -log1p(-u) of the Box-Muller radius uniforms, so such a trial is counted
    with no normals and no decoding. Only a trial that stops at block l
    outside its ball converts its first 2l noise uniforms; an outage
    converts none.
    """

    def __init__(self, code: PermutationCode, eta: SnrPoint):
        self.code = code
        self.width = 1 + 2 * code.L
        self.sqrt_eta = math.sqrt(eta.eta_linear)
        self.balls = (1 - _BALL_MARGIN) * eta.eta_linear * code.packing_sq

    def __call__(self, own, stats, short) -> np.ndarray:
        table = self.code.symbol_table
        L, n_msgs = table.shape
        err_counts = np.zeros(L, dtype=np.int64)
        left = np.ones(len(own), dtype=bool)
        for l in range(1, L + 1):
            stop = np.flatnonzero(left & ~short[l - 1])  # stops at block l
            left = short[l - 1]
            noise = -np.log1p(-own[stop, 1 : 2 * l : 2]).sum(axis=1)
            stop = stop[~(noise < self.balls[l - 1] * stats[0, stop])]  # h = 0 never passes
            if not len(stop):
                continue
            h = np.sqrt(stats[0, stop])
            y = rng.complex_normals(own[stop, 1 : 2 * l + 1])  # the noise, then y in place
            sent = np.minimum((own[stop, 0] * n_msgs).astype(np.int64), n_msgs - 1)
            y += self.sqrt_eta * h[:, None] * table[:l, sent].T
            decoded = ml_decode(self.code, l, y, h, self.sqrt_eta)
            err_counts[l - 1] = np.count_nonzero(decoded != sent)
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
    # bound the recheck's float64 distance matrix (chunk x 2^bits, should every row of a
    # chunk be a near-tie) to 32 MiB; the screen itself works in 512 KiB blocks
    chunk = min(chunk, max(1 << 12, (1 << 22) // code.n_messages))
    (counts,) = simulate.stop_counts(
        cfg, [(eta, R)], trials, seed,
        workers=workers, chunk=chunk, decoder=_PrefixErrors(code, eta),
    )
    return CodeTrialResult(eta=eta, R=R, stop_hist=counts[: L + 1], err_counts=counts[L + 1 :])


def codebook_text(code: PermutationCode) -> str:
    """Canonical plain-text form: L, bits, the `build_qam(bits)` grid as `re,im` lines, L perm lines."""
    lines = [str(code.L), str(code.bits)]
    for p in build_qam(code.bits):
        lines.append(f"{float(p.real)!r},{float(p.imag)!r}")
    for perm in code.perms:
        lines.append(" ".join(str(i) for i in perm))
    return "\n".join(lines) + "\n"


def save_codebook(code: PermutationCode, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(codebook_text(code))


def parse_codebook(text: str) -> PermutationCode:
    """Parse the plain-text codebook format; errors carry the line number.

    Point line k must hold exactly point k of `build_qam(bits)`, as
    :func:`codebook_text` writes it.
    """
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
    if L < 1:
        raise ValueError(f"line 1: L must be >= 1, got {L}")
    bits = parse_int(1, "bits")
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"line 2: bits must be in 1..{MAX_BITS}, got {bits}")
    grid = build_qam(bits)
    n = len(grid)
    for k, expected in enumerate(grid):
        idx = 2 + k
        raw = need(idx).strip()
        parts = raw.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {idx + 1}: expected `re,im`, got {raw!r}")
        try:
            point = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {idx + 1}: malformed point {raw!r}") from None
        if point != expected:
            raise ValueError(f"line {idx + 1}: expected point {k} of the {n}-point QAM grid, got {raw!r}")
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
        try:  # the code's own checks, on every line so far: a fault is on this line
            code = PermutationCode(bits=bits, perms=tuple(perms))
        except ValueError as exc:
            raise ValueError(f"line {idx + 1}: invalid codebook: {exc}") from None
    extra = 2 + n + L
    if any(line.strip() for line in lines[extra:]):
        raise ValueError(f"line {extra + 1}: trailing content after codebook")
    return code


def load_codebook(path: str) -> PermutationCode:
    with open(path, "r", newline="") as f:
        return parse_codebook(f.read())
