"""The verdict rule of `verify`: the exact binomial test and the cell helper."""

from fractions import Fraction
from math import comb

import pytest

from rateless_dmt.verify import FAMILY_ALPHA, binom_two_sided_p, exact_cells


def _exact_two_sided(k, n, p):
    """Twice the smaller binomial tail at k, capped at 1, in rational arithmetic."""
    p = Fraction(p)
    pmf = [comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    return min(Fraction(1), 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
@pytest.mark.parametrize("p", [0.001, 0.05, 0.3, 0.5, 0.9])
def test_binom_two_sided_p_matches_exact_tail_sums(n, p):
    for k in range(n + 1):
        assert binom_two_sided_p(k, n, p) == pytest.approx(float(_exact_two_sided(k, n, p)), rel=1e-9)


def test_binom_two_sided_p_degenerate_oracle():
    assert binom_two_sided_p(0, 100, 0.0) == 1.0
    assert binom_two_sided_p(1, 100, 0.0) == 0.0
    assert binom_two_sided_p(100, 100, 1.0) == 1.0


def test_zero_events_pass_a_tiny_oracle_and_fail_a_large_one():
    # a standard-error rule divides by zero here and fails both
    ok, _ = exact_cells([("thin", 0, 10**6, 1e-9)], 1.0)
    assert ok
    ok, detail = exact_cells([("thin", 0, 10**6, 1e-4)], 1.0)
    assert not ok and "failed thin" in detail


def test_cells_are_tested_at_the_bonferroni_level_raised_to_tol_scale():
    n, p = 10**4, 0.1
    k = next(k for k in range(int(n * p), n) if binom_two_sided_p(k, n, p) < FAMILY_ALPHA)
    assert binom_two_sided_p(k, n, p) >= FAMILY_ALPHA / 2
    edge, fine = ("edge", k, n, p), ("fine", 1010, n, p)
    assert not exact_cells([edge], 1.0)[0]  # one cell: the level is FAMILY_ALPHA
    assert exact_cells([edge, fine], 1.0)[0]  # two cells: FAMILY_ALPHA / 2 each
    assert exact_cells([edge], 2.0)[0]  # tol_scale above 1 loosens
    assert not exact_cells([fine], 1e-9)[0]  # near-zero tol_scale fails every cell
