"""Correctness gate: Monte Carlo cells against closed forms, plus byte checks.

Each cell is an event count out of n trials with an exact oracle
probability p. It passes unless an exact two-sided binomial test rejects
it at FAMILY_ALPHA / (number of cells): one false alarm in 1e5 runs, however
many cells a run checks. A plain 3 SE rule per cell would false-alarm in
about one run of twenty at twenty cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

FAMILY_ALPHA = 1e-5


def binom_two_sided_p(k: int, n: int, p: float) -> float:
    """Twice the smaller exact binomial tail at k, capped at 1."""
    if not 0.0 < p < 1.0:
        return 1.0 if k == round(n * p) else 0.0
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def pmf(j: int) -> float:
        return math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)

    # walk away from the mean, where the terms only shrink
    steps = range(k, n + 1) if k >= n * p else range(k, -1, -1)
    tail = 0.0
    for j in steps:
        term = pmf(j)
        tail += term
        if term <= 1e-17 * tail:
            break
    return min(1.0, 2.0 * tail)


def erlang_cdf(k: int, x: float) -> float:
    """Pr(Gamma(k, 1) < x), summed on the side that does not cancel."""
    if x <= 0.0:
        return 0.0
    if x < k:
        # e^-x sum_{j >= k} x^j / j!
        term = math.exp(-x) * x**k / math.factorial(k)
        total, j = 0.0, k
        while True:
            total += term
            j += 1
            term *= x / j
            if term <= 1e-18 * total:
                return total
    return 1.0 - math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))


def rank_one_outage(M: int, N: int, eta_linear: float, rate: float) -> float:
    """Pr(log2 det(I + (eta/M) H H*) < rate) when min(M, N) = 1.

    The determinant is 1 + (eta/M) ||h||^2 with ||h||^2 ~ Gamma(max(M, N), 1).
    """
    if min(M, N) != 1:
        raise ValueError(f"rank-one oracle needs min(M, N) = 1, got {M}x{N}")
    return erlang_cdf(max(M, N), M * (2.0**rate - 1.0) / eta_linear)


@dataclass(frozen=True)
class Cell:
    name: str
    count: int
    trials: int
    oracle: float


@dataclass
class Gate:
    """Named pass/fail checks; `failed / attempted` is the run's check_fail_frac."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    def cells(self, cells: list[Cell]) -> None:
        """Exact binomial test per cell, Bonferroni-corrected over the list."""
        level = FAMILY_ALPHA / max(1, len(cells))
        for c in cells:
            pval = binom_two_sided_p(c.count, c.trials, c.oracle)
            detail = f"{c.count}/{c.trials} = {c.count / c.trials:.6g} vs oracle {c.oracle:.6g}, p-value {pval:.3g}"
            self.check(c.name, pval >= level, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def read_rows(path) -> list[dict]:
    """Data rows of a CLI CSV (after the `#` header lines) as dicts."""
    with open(path, newline="") as f:
        rows = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(rows))
