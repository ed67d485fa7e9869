"""Exact-arithmetic tests for the tradeoff curves."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rateless_dmt import (
    DmtCurve,
    GainPoint,
    RatelessConfig,
    default_r_n_grid,
    dmt_curves,
    rateless_segment,
    tradeoff_f,
)
from rateless_dmt.cli import main
from rateless_dmt.tradeoff import SCHEMES

antenna_counts = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))

rateless_configs = st.builds(
    RatelessConfig,
    M=st.integers(min_value=1, max_value=6),
    N=st.integers(min_value=1, max_value=6),
    L=st.integers(min_value=1, max_value=8),
)

gains = st.fractions(min_value=0, max_value=8, max_denominator=64)


def _rateless(cfg, r_n):
    """The rateless point of dmt_curves at one r_n."""
    return dmt_curves(cfg, [r_n])[0].points[0]


def test_f_integer_corners_and_interpolation():
    assert tradeoff_f(2, 2, 0) == 4
    assert tradeoff_f(2, 2, F(1, 2)) == F(5, 2)
    assert tradeoff_f(3, 3, 3) == 0
    assert tradeoff_f(3, 3, F(21, 5)) == 0  # clamp beyond min(M, N)
    assert tradeoff_f(3, 3, F(3, 2)) == F(5, 2)
    assert tradeoff_f(2, 3, F(1, 2)) == 4 == tradeoff_f(3, 2, F(1, 2))


def test_f_rejects_negative():
    with pytest.raises(ValueError):
        tradeoff_f(2, 2, F(-1, 2))


def test_conventional_values_and_domain():
    # a fixed-rate scheme at multiplexing gain r has diversity f(r)
    assert tradeoff_f(2, 2, 1) == 1
    assert tradeoff_f(3, 3, 0) == 9
    assert tradeoff_f(3, 3, F(3, 2)) == F(5, 2)
    assert tradeoff_f(2, 2, F(5, 2)) == 0


@given(antenna_counts, gains, gains)
def test_f_nonincreasing(mn, k1, k2):
    lo, hi = min(k1, k2), max(k1, k2)
    assert tradeoff_f(*mn, lo) >= tradeoff_f(*mn, hi)


@given(antenna_counts, gains, gains)
def test_f_midpoint_convex(mn, k1, k2):
    mid = (k1 + k2) / 2
    assert tradeoff_f(*mn, mid) <= (tradeoff_f(*mn, k1) + tradeoff_f(*mn, k2)) / 2


@given(antenna_counts)
def test_f_endpoints(mn):
    M, N = mn
    assert tradeoff_f(M, N, 0) == M * N
    assert tradeoff_f(M, N, min(M, N)) == 0


@given(antenna_counts, gains)
def test_f_exact_under_denominator_scaling(mn, k):
    scaled = F(3 * k.numerator, 3 * k.denominator)
    assert tradeoff_f(*mn, scaled) == tradeoff_f(*mn, k)


def test_segment_examples():
    assert rateless_segment(RatelessConfig(2, 2, L=2), F(1, 2)) == 1
    assert rateless_segment(RatelessConfig(3, 3, L=4), F(3, 4)) == 2
    assert rateless_segment(RatelessConfig(3, 3, L=4), 3) is None


@given(rateless_configs, gains)
def test_segment_intervals_left_closed(cfg, r_n):
    seg = rateless_segment(cfg, r_n)
    m = cfg.min_antennas
    if r_n >= m:
        assert seg is None
    else:
        assert 1 <= seg <= cfg.L
        assert F(seg - 1, cfg.L) * m <= r_n < F(seg, cfg.L) * m


def test_point_examples():
    pt = _rateless(RatelessConfig(2, 2, L=2), F(1, 2))
    assert (pt.r, pt.d) == (1, F(5, 2))
    pt = _rateless(RatelessConfig(3, 3, L=4), 1)
    assert (pt.r, pt.d) == (2, 4)
    pt = _rateless(RatelessConfig(1, 1, L=2), 0)
    assert (pt.r, pt.d) == (0, 1)


def test_tail_reporting_clamps_to_min_antennas():
    cfg = RatelessConfig(3, 3, L=4)
    pt = _rateless(cfg, 3)
    assert rateless_segment(cfg, 3) is None
    assert pt.r == 3 == cfg.min_antennas and pt.d == 0
    # past min(M, N) there is no curve point at all
    for r_n in (F(7, 2), 100):
        assert rateless_segment(cfg, r_n) is None
        with pytest.raises(ValueError):
            dmt_curves(cfg, [r_n])


@given(rateless_configs, gains)
def test_segment_diversity_identity(cfg, r_n):
    # On every segment l * r / L collapses back to r_n, so d = f(r_n).
    if rateless_segment(cfg, r_n) is not None:
        pt = _rateless(cfg, r_n)
        assert pt.d == tradeoff_f(cfg.M, cfg.N, r_n)
        assert pt.r < cfg.min_antennas  # only the tail is pinned to min(M, N)


@given(rateless_configs)
def test_segment_gain_interval_endpoints(cfg):
    m = cfg.min_antennas
    for l in range(1, cfg.L + 1):
        left = F(l - 1, cfg.L) * m
        assert _rateless(cfg, left).r == F(l - 1, l) * m
        # approach the right edge: (l b_l - epsilon) maps toward min(M, N)
        eps = F(1, 10**9)
        right = F(l, cfg.L) * m - eps
        if right >= left:
            r = _rateless(cfg, right).r
            assert F(l - 1, l) * m <= r < m


@given(rateless_configs, gains)
def test_first_segment_multiplies_gain_by_L(cfg, r_n):
    m = cfg.min_antennas
    if r_n < F(m, cfg.L):
        rateless, _, identical, _ = dmt_curves(cfg, [r_n])
        pt = rateless.points[0]
        assert pt.r == cfg.L * r_n
        assert pt.d == tradeoff_f(cfg.M, cfg.N, r_n)
        # and coincides with the shared-matrix parallel baseline at gain r
        assert pt == identical.points[0]


def test_parallel_examples():
    # the parallel baselines sit at r = L r_n
    c22 = RatelessConfig(2, 2, L=2)
    _, _, identical, iid = dmt_curves(c22, [0, F(1, 2), 2])
    assert [(p.r, p.d) for p in identical.points] == [(0, 4), (1, F(5, 2)), (4, 0)]
    assert (iid.points[1].r, iid.points[1].d) == (1, 5)
    c13 = RatelessConfig(1, 1, L=3)
    iid = dmt_curves(c13, [0, 1])[3]
    assert [(p.r, p.d) for p in iid.points] == [(0, 3), (3, 0)]
    with pytest.raises(ValueError):
        dmt_curves(c22, [F(5, 2)])  # r = 5 is past L min(M, N) = 4


@given(rateless_configs, gains)
def test_parallel_iid_is_L_times_identical(cfg, r_n):
    _, _, identical, iid = dmt_curves(cfg, [r_n * cfg.min_antennas / 8])  # r_n within [0, min(M, N)]
    assert iid.points[0].r == identical.points[0].r
    assert iid.points[0].d == cfg.L * identical.points[0].d


def test_curve_small_grid_values():
    cfg = RatelessConfig(2, 2, L=2)
    rateless, conventional, _, _ = dmt_curves(cfg, [0, F(1, 2), F(999, 1000)])
    assert [(p.r, p.d) for p in rateless.points] == [
        (0, 4),
        (1, F(5, 2)),
        (F(999, 500), tradeoff_f(cfg.M, cfg.N, F(999, 1000))),
    ]
    assert [(p.r, p.d) for p in conventional.points][0] == (0, 4)
    assert rateless.segment_index == (1, 1, 1)


def test_curve_four_segments_sweep_toward_min():
    cfg = RatelessConfig(3, 3, L=4)
    grid = default_r_n_grid(cfg, points_per_segment=64)
    rateless = dmt_curves(cfg, grid)[0]
    by_segment = {}
    for seg, pt in zip(rateless.segment_index, rateless.points):
        if seg > 0:
            by_segment.setdefault(seg, []).append(pt.r)
    assert sorted(by_segment) == [1, 2, 3, 4]
    for seg, rs in by_segment.items():
        assert rs == sorted(rs)
        assert all(r < 3 for r in rs)
        assert max(rs) > F(11, 4)  # each segment sweeps up toward min(M, N) = 3


def test_degenerate_single_block_curve_matches_conventional():
    cfg = RatelessConfig(2, 3, L=1)
    grid = default_r_n_grid(cfg, points_per_segment=32)
    rateless, conventional, _, _ = dmt_curves(cfg, grid)
    for a, b in zip(rateless.points, conventional.points):
        assert (a.r, a.d) == (b.r, b.d)


def test_dmt_curves_cover_all_schemes_in_order():
    cfg = RatelessConfig(2, 2, L=2)
    grid = [0, F(1, 2), 2]
    curves = dmt_curves(cfg, grid)
    assert tuple(c.scheme for c in curves) == SCHEMES
    rateless, conventional, identical, iid = curves
    assert rateless.segment_index == (1, 1, 0)
    assert conventional.segment_index == identical.segment_index == iid.segment_index == (0, 0, 0)
    assert [(p.r, p.d) for p in identical.points] == [(0, 4), (1, F(5, 2)), (4, 0)]
    assert [(p.r, p.d) for p in iid.points] == [(0, 8), (1, 5), (4, 0)]


def test_curve_rejects_unsorted_grid():
    cfg = RatelessConfig(2, 2, L=2)
    with pytest.raises(ValueError):
        dmt_curves(cfg, [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        dmt_curves(cfg, [F(1, 2), F(1, 4)])


def test_default_grid_contains_segment_boundaries():
    cfg = RatelessConfig(3, 3, L=4)
    grid = default_r_n_grid(cfg)
    for b in (0, F(3, 4), F(3, 2), F(9, 4), 3):
        assert b in grid
    assert len(grid) == 4 * 512 + 1
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_gain_point_rejects_negative():
    with pytest.raises(ValueError):
        GainPoint(r=F(-1), d=F(0))


def test_curve_type_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DmtCurve(scheme="nope", r_n_grid=(F(0),), points=(GainPoint(F(0), F(1)),), segment_index=(0,))
    with pytest.raises(ValueError):
        DmtCurve(
            scheme="rateless",
            r_n_grid=(F(0), F(1)),
            points=(GainPoint(F(0), F(1)),),
            segment_index=(0,),
        )


def test_csv_export_format_and_exact_columns(tmp_path):
    # the grid steps by 1/6, so it holds r_n = 1/3 and 1/2
    argv = ["dmt", "--M", "2", "--N", "2", "--L", "2", "--exact", "--per-segment", "6"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dmt_curves.csv").read_text().splitlines()
    assert lines[1] == "# M=2"
    assert lines[6] == "r_n,l,r,d,scheme,r_n_exact,r_exact,d_exact"
    row = lines[9].split(",")  # r_n = 1/3 of the rateless curve
    assert row[0] == "0.333333333333"
    assert row[1] == "1"
    assert row[4] == "rateless"
    assert F(row[5]) == F(1, 3) and F(row[6]) == F(2, 3)
    # exact columns reconstruct the rational values bit-for-bit
    assert F(row[7]) == tradeoff_f(2, 2, F(1, 3))
    assert any(line.endswith("parallel_iid,1/2,1,5") for line in lines)
    assert len(lines) == 7 + 4 * 13  # metadata, header, 13 grid points per scheme
