"""Channel Monte Carlo: the kernel against scalar oracles, stopping rule, rates, slopes."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import block_mutual_info, rateless_stop, siso_outage_profile

from rateless_dmt import (
    RatelessConfig,
    SnrPoint,
    diversity_slope,
    effective_rate,
    outage_record,
    rank_one_outage,
    rng,
    run_rateless_code_trials,
    run_rateless_experiment,
)
from rateless_dmt.cli import main
from rateless_dmt.simulate import (
    SnrRecord,
    block_info,
    channel_stats,
    still_short,
    stop_counts,
)
from rateless_dmt.verify import exact_cells

SISO_L2 = RatelessConfig(1, 1, L=2)


def _linear(x):
    """SnrPoint from a linear SNR."""
    return SnrPoint(10.0 * math.log10(x))


def test_snr_point_conversions_and_validation():
    p = SnrPoint(30.0)
    assert p.eta_linear == pytest.approx(1000.0)
    assert p.eta_db == 30.0 and p.log2_eta == pytest.approx(math.log2(1000.0))
    q = _linear(1000.0)
    assert q.eta_db == pytest.approx(30.0) and q.eta_linear == pytest.approx(1000.0)
    # the linear SNR must be a finite positive float: 4000 dB overflows, -4000 dB underflows
    for db in (4000.0, -4000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^{db} dB (overflows|is not a finite positive SNR)$"):
            SnrPoint(db)


def test_block_mutual_info_scalar_cases():
    eta3 = _linear(3.0)
    assert block_mutual_info(np.array([[1.0 + 0j]]), eta3) == pytest.approx(2.0)
    assert block_mutual_info(np.array([[0.0 + 0j]]), SnrPoint(50.0)) == 0.0


def test_block_mutual_info_identity_2x2_against_det_oracle():
    eta2 = _linear(2.0)
    assert block_mutual_info(np.eye(2, dtype=complex), eta2, M=2) == pytest.approx(2.0)
    # independent oracle: explicit 2x2 determinant of I + (eta/2) H H*
    gen = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        h = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) * math.sqrt(0.5)
        a = np.eye(2, dtype=complex) + (eta2.eta_linear / 2) * (h @ h.conj().T)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        expected = math.log2(abs(det))
        got = block_mutual_info(h, eta2, M=2)
        assert got == pytest.approx(expected, rel=1e-10)


def test_block_mutual_info_validates_inputs():
    with pytest.raises(ValueError):
        block_mutual_info(np.eye(2, dtype=complex), SnrPoint(0.0), M=3)
    with pytest.raises(ValueError):
        block_mutual_info(np.array([[np.nan + 0j]]), SnrPoint(0.0))


def test_stop_rule_examples():
    assert rateless_stop(2.0, 1.0, 2) == 1
    assert rateless_stop(1.2, 1.0, 2) == 2
    assert rateless_stop(0.9, 1.0, 2) is None  # outage
    assert rateless_stop(0.0, 0.0, 3) == 1  # tie at zero rate decodes
    # the kernel's rule agrees: still short after l blocks <=> stop block > l
    for ib, R, L in ((2.0, 1.0, 2), (1.2, 1.0, 2), (0.9, 1.0, 2), (0.0, 0.0, 3)):
        short = still_short(np.array([ib]), R, L)
        stop = rateless_stop(ib, R, L)
        assert [bool(s[0]) for s in short] == [stop is None or stop > l for l in range(1, L + 1)]


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-20, max_value=20),
)
def test_stop_rule_scale_invariance(ib_num, r_num, L, exp):
    # dyadic inputs and power-of-two scaling keep every comparison exact
    ib = ib_num / 64.0
    r = r_num / 64.0
    c = 2.0**exp
    assert rateless_stop(ib, r, L) == rateless_stop(c * ib, c * r, L)


def test_stop_rule_has_no_block_length_parameter():
    for fn in (rateless_stop, still_short, stop_counts, run_rateless_code_trials):
        assert "T" not in inspect.signature(fn).parameters, fn.__name__


# (M, N, L): SISO, square, both rank-one orientations, a longer codeword, and both
# orientations of the min-size Gram matrix (H H* for N < M, H* H for N > M)
KERNEL_SHAPES = [(1, 1, 2), (2, 2, 2), (1, 4, 2), (4, 1, 2), (4, 4, 4), (2, 3, 2), (3, 2, 2)]


class _CodeLayout:
    """Decoder stub reserving the code-trial uniforms: one before the fading draw, 2L after."""

    lead = 1

    def __init__(self, L):
        self.trail = 2 * L

    def __call__(self, u, short):
        return np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("layout", ["outage", "code"])
@pytest.mark.parametrize("M, N, L", KERNEL_SHAPES)
def test_kernel_matches_scalar_reference_per_trial(M, N, L, layout):
    # same Philox uniforms into the batched kernel and the scalar oracles
    cfg = RatelessConfig(M, N, L)
    eta = SnrPoint(10.0)
    trials, seed = 400, 21
    decoder = _CodeLayout(L) if layout == "code" else None
    lead, trail = (decoder.lead, decoder.trail) if decoder else (0, 0)
    u = rng.trial_uniforms(rng.stream_key(seed, 0), lead + 2 * M * N + trail, 0, trials)
    h = rng.complex_normals(u[:, lead : lead + 2 * M * N])
    ref_ib = np.array([block_mutual_info(row.reshape(N, M), eta) for row in h])
    # a rate that puts the message size in the middle of the I_b spread
    R = 0.75 * float(np.median(ref_ib))

    ib = block_info(channel_stats(u[:, lead : lead + 2 * M * N], M, N), eta.eta_linear, M)
    np.testing.assert_allclose(ib, ref_ib, rtol=1e-12, atol=1e-12)
    stop = 1 + np.sum(still_short(ib, R, L), axis=0)  # L + 1 means outage
    ref_stop = [rateless_stop(x, R, L) or L + 1 for x in ref_ib]
    assert stop.tolist() == ref_stop
    ref_hist = np.bincount(ref_stop, minlength=L + 2)[1:]
    assert np.count_nonzero(ref_hist) >= 2  # the comparison sees more than one outcome

    # the full kernel, chunked and threaded, lands on the same histogram
    (stops,) = stop_counts(cfg, [(eta, R)], trials, seed, chunk=64, workers=2, decoder=decoder)
    assert stops.tolist() == ref_hist.tolist()


def _siso_p(eta, thr):
    return rank_one_outage(1, 1, eta, thr)[0]


def test_siso_closed_form_values_and_quadrature_oracle():
    eta10 = _linear(10.0)
    assert _siso_p(eta10, 1.0) == pytest.approx(0.0951625819640404, abs=1e-12)
    assert _siso_p(eta10, 2.0) == pytest.approx(0.2591817793182821, abs=1e-12)
    assert _siso_p(eta10, 0.0) == 0.0
    # quadrature oracle: integrate the unit-mean exponential density
    for thr in (0.5, 1.0, 3.0):
        c = (2.0**thr - 1.0) / eta10.eta_linear
        x = np.linspace(0.0, c, 20_001)
        assert _siso_p(eta10, thr) == pytest.approx(np.trapezoid(np.exp(-x), x), abs=1e-9)


def test_siso_neg_log2_matches_probability_form_then_stays_finite():
    eta = SnrPoint(40.0)
    p, neglog = rank_one_outage(1, 1, eta, 2.0)
    assert neglog == pytest.approx(-math.log2(p), rel=1e-12)
    # far past float resolution of 1 - p: probability saturates, exponent does not
    big = SnrPoint(80.0)
    assert rank_one_outage(1, 1, big, 1.5 * big.log2_eta) == (1.0, 0.0)
    assert rank_one_outage(1, 1, eta, 0.0)[1] == math.inf


@pytest.mark.parametrize("M,N", [(1, 2), (1, 4), (3, 1), (4, 1)])
def test_rank_one_outage_matches_gamma_quadrature(M, N):
    k = max(M, N)
    eta = SnrPoint(10.0)
    # thresholds x = M (2^rate - 1) / eta on both sides of x = k, where the sum switches tails
    for x_target in (0.05 * k, 0.5 * k, 0.9 * k, k, 1.5 * k, 4.0 * k):
        rate = math.log2(1.0 + x_target * eta.eta_linear / M)
        p, neglog = rank_one_outage(M, N, eta, rate)
        g = np.linspace(0.0, x_target, 200_001)
        density = g ** (k - 1) * np.exp(-g) / math.factorial(k - 1)
        assert p == pytest.approx(np.trapezoid(density, g), abs=1e-9)
        if 0.0 < p < 1.0:
            assert 2.0**-neglog == pytest.approx(p, rel=1e-12)
    with pytest.raises(ValueError):
        rank_one_outage(2, 2, eta, 1.0)
    with pytest.raises(ValueError):
        rank_one_outage(M, N, eta, -0.5)


def _short(rec, l):
    """Trials still short after block l: the events behind p_hat[l]."""
    return int(rec.stop_hist[l:].sum())


def _assert_exact(cells):
    ok, detail = exact_cells(cells, tol_scale=1.0)
    assert ok, detail


def test_outage_profile_estimates_match_closed_form():
    eta = SnrPoint(10.0)
    rec = outage_record(SISO_L2, eta, R=1.0, trials=400_000, seed=101)
    oracle = siso_outage_profile(eta, 1.0, 2)
    _assert_exact([(f"p({l})", _short(rec, l), rec.trials, oracle[l]) for l in (1, 2)])


def test_outage_profile_zero_rate_never_fails():
    rec = outage_record(SISO_L2, SnrPoint(0.0), R=0.0, trials=10_000, seed=1)
    assert rec.p_hat[0] == 1.0
    assert np.all(rec.p_hat[1:] == 0.0)
    assert math.isnan(rec.r_hat)  # r_bar / log2(eta) is undefined at 0 dB


def test_outage_profile_monotone_in_l_and_eta():
    cfg = RatelessConfig(2, 2, L=4)
    seed = 77
    prev = None
    for db in (0.0, 5.0, 10.0):
        rec = outage_record(cfg, SnrPoint(db), R=2.0, trials=20_000, seed=seed)
        assert np.all(np.diff(rec.p_hat) <= 0)
        if prev is not None:
            # same seed: common fading draws couple the comparison
            assert np.all(rec.p_hat <= prev.p_hat)
        prev = rec


def test_outage_profile_deterministic_across_workers():
    eta = SnrPoint(12.0)
    a = outage_record(SISO_L2, eta, 1.0, 50_000, seed=3, workers=1)
    b = outage_record(SISO_L2, eta, 1.0, 50_000, seed=3, workers=4, chunk=999)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.array_equal(a.stop_hist, b.stop_hist)


def test_outage_profile_type_rejects_bad_vectors():
    eta = SnrPoint(10.0)
    rec = SnrRecord(eta, 1.0, np.array([5, 3, 2]))
    assert rec.trials == 10 and rec.L == 2
    assert rec.p_hat.tolist() == [1.0, 0.5, 0.2]
    assert rec.r_bar == pytest.approx(1.0 * 2 / 1.5)  # R L / (p(0) + p(1))
    assert rec.r_hat == pytest.approx(rec.r_bar / math.log2(10.0))
    # a negative count is the only way to p(0) != 1 or an increasing p
    for bad in (np.array([-1, 5, 6]), np.array([5, -1, 6]), np.array([0, 0, 0]), np.ones((2, 2), int)):
        with pytest.raises(ValueError):
            SnrRecord(eta, 1.0, bad)


def test_records_compare_and_hash_by_identity():
    # stop_hist is an array, so field-wise == and hash() would raise; identity, as for the codebook types
    rec = outage_record(SISO_L2, SnrPoint(10.0), 1.0, 1000, seed=1)
    twin = SnrRecord(rec.eta, rec.R, rec.stop_hist.copy())
    assert rec == rec
    assert rec != twin
    assert len({rec, rec}) == 1


def test_effective_rate_examples():
    assert effective_rate(1.0, 2, [1.0, 0.0]) == pytest.approx(2.0)
    assert effective_rate(1.0, 2, [1.0, 1.0]) == pytest.approx(1.0)
    assert effective_rate(1.0, 3, [1.0, 0.5, 0.25]) == pytest.approx(12.0 / 7.0)


@given(
    st.floats(min_value=0.0, max_value=8.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=7),
)
def test_effective_rate_bounds(R, tail):
    # any probabilities in [0, 1] after p(0) = 1 keep R <= r_bar <= L R
    p = [1.0] + sorted(tail, reverse=True)
    L = len(p)
    r_bar = effective_rate(R, L, p)
    assert R <= r_bar + 1e-12 * max(1.0, R)
    assert r_bar <= L * R + 1e-12 * max(1.0, L * R)


def _slope(pts):
    return diversity_slope([eta for eta, _ in pts], [-math.log2(p) for _, p in pts])


def test_diversity_slope_exact_power_law():
    pts = [(_linear(10.0**k), 10.0 ** (-2 * k)) for k in (2, 3, 4)]
    assert _slope(pts) == pytest.approx(2.0, abs=1e-9)


def test_diversity_slope_constant_probability():
    pts = [(SnrPoint(d), 0.25) for d in (10.0, 20.0, 30.0)]
    assert _slope(pts) == pytest.approx(0.0, abs=1e-12)


def test_diversity_slope_closed_form_siso_quarter_gain():
    etas = [SnrPoint(d) for d in range(40, 81, 10)]
    pts = [(e, _siso_p(e, 0.25 * e.log2_eta)) for e in etas]
    assert 0.70 <= _slope(pts) <= 0.78  # finite-SNR bias below the limit 0.75


def test_diversity_slope_validates():
    etas = [SnrPoint(10.0), SnrPoint(20.0)]
    expected = (2.0 - 1.0) / (etas[1].log2_eta - etas[0].log2_eta)
    assert diversity_slope(etas, [1.0, 2.0]) == pytest.approx(expected)
    with pytest.raises(ValueError):
        diversity_slope(etas, [1.0])
    with pytest.raises(ValueError):
        diversity_slope(etas, [1.0, math.inf])  # p = 0
    with pytest.raises(ValueError):
        diversity_slope([etas[0], etas[0]], [1.0, 2.0])


def test_experiment_single_block_reduces_to_plain_outage():
    cfg = RatelessConfig(1, 1, L=1)
    etas = [SnrPoint(10.0)]
    (rec,) = run_rateless_experiment(cfg, 0.25, etas, trials=200_000, seed=5)
    _assert_exact([("p(1)", _short(rec, 1), rec.trials, _siso_p(etas[0], rec.R))])
    assert rec.stop_hist.sum() == rec.trials


@pytest.mark.parametrize("M, N", [(1, 1), (1, 4), (4, 1)])
def test_experiment_every_sweep_cell_matches_rank_one_oracle(M, N):
    # every (SNR, l) cell, past grid position 0 too, against the exact law; 0 dB has R = 0
    cfg = RatelessConfig(M, N, L=3)
    etas = [SnrPoint(db) for db in (0.0, 5.0, 10.0, 20.0)]
    records = run_rateless_experiment(cfg, 0.25, etas, trials=50_000, seed=17)
    _assert_exact([
        (f"{rec.eta.eta_db:g}dB p({l})", _short(rec, l), rec.trials,
         rank_one_outage(M, N, rec.eta, cfg.L * rec.R / l)[0])
        for rec in records
        for l in range(1, cfg.L + 1)
    ])


def test_experiment_effective_gain_doubles_at_low_gain():
    (rec,) = run_rateless_experiment(
        SISO_L2, 0.25, [SnrPoint(60.0)], trials=100_000, seed=11
    )
    assert abs(rec.r_hat - 0.5) <= 0.05 * 0.5


def test_experiment_saturated_gain_trend():
    # r_n past min(M, N): every level saturates, effective gain falls to r_n
    etas = [SnrPoint(d) for d in (40.0, 80.0, 120.0)]
    r_hats = []
    for eta in etas:
        R = 1.5 * eta.log2_eta
        p = siso_outage_profile(eta, R, 2)
        r_hats.append(effective_rate(R, 2, p) / eta.log2_eta)
    assert np.all(np.diff(np.abs(np.array(r_hats) - 1.5)) <= 0)
    assert r_hats[-1] == pytest.approx(1.5, rel=1e-6)
    (rec,) = run_rateless_experiment(SISO_L2, 1.5, [SnrPoint(40.0)], 50_000, seed=2)
    assert rec.p_hat[1] > 0.999  # first level undecodable at high SNR


def test_experiment_records_and_csv_are_deterministic(tmp_path):
    argv = ["simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25", "--eta-db", "20,30"]
    argv += ["--trials", "30000", "--seed", "9"]
    outs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
        outs.append((out / "simulate_results.csv").read_text())
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[3] == "# eta_db_list=20,30"
    assert lines[9] == "eta_db,l,p_hat,stderr,trials,r_bar,r_hat,seed"
    assert len(lines) == 10 + 2 * 3  # two SNR points, l = 0..2 each


def test_experiment_rejects_bad_args():
    with pytest.raises(ValueError):
        run_rateless_experiment(SISO_L2, 0.25, [], 100, seed=0)
    with pytest.raises(ValueError):
        run_rateless_experiment(SISO_L2, -0.1, [SnrPoint(10.0)], 100, seed=0)
    with pytest.raises(ValueError):
        outage_record(SISO_L2, SnrPoint(10.0), 1.0, 0, seed=0)
    with pytest.raises(ValueError):
        outage_record(SISO_L2, SnrPoint(10.0), -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        stop_counts(SISO_L2, [], 100, seed=0)
    two = [(SnrPoint(10.0), 1.0), (SnrPoint(20.0), 1.0)]
    with pytest.raises(ValueError):
        stop_counts(SISO_L2, two, 100, seed=0, decoder=_CodeLayout(2))  # a decoder takes one point
