"""Channel Monte Carlo: the kernel against scalar oracles, stopping rule, rates, slopes."""

import inspect
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    bartlett_factor,
    block_info,
    block_mutual_info,
    factor_mutual_info,
    log_domain_short,
    rateless_stop,
    siso_outage_profile,
)

from rateless_dmt import (
    RatelessConfig,
    SnrPoint,
    diversity_slope,
    effective_rate,
    rank_one_outage,
    rng,
    run_rateless_code_trials,
    run_rateless_experiment,
)
from rateless_dmt.cli import main
from rateless_dmt.simulate import (
    SnrRecord,
    channel_stats,
    fading_width,
    still_short,
    stop_counts,
    stop_levels,
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
    # the kernel's rule agrees: still short after l blocks <=> stop block > l. At 0 dB a SISO
    # link has a = 1, so the trial with e_1 = 2^I_b - 1 has exactly that I_b
    a = SnrPoint(0.0).eta_linear
    assert a == 1.0
    for ib, R, L in ((2.0, 1.0, 2), (1.2, 1.0, 2), (0.9, 1.0, 2), (0.0, 0.0, 3)):
        short = still_short(np.array([[2.0**ib - 1.0]]), a, stop_levels(a, R, L))
        stop = rateless_stop(ib, R, L)
        assert [bool(s[0]) for s in short] == [stop is None or stop > l for l in range(1, L + 1)]


def test_stop_rule_exact_ties_decode():
    # det(I + a G) = 2^k exactly at a = 1, with L R / l = k exactly (dyadic R): the trial stops
    # at l. expm1(k ln 2) rounds above 2^k - 1 at k = 11 and 21, so a level taken from it fails
    a = SnrPoint(0.0).eta_linear
    assert a == 1.0 and all(math.expm1(k * math.log(2.0)) > 2.0**k - 1 for k in (11, 21))
    L = 4
    for k in range(1, 53):
        stats = np.array([[2.0**k - 1.0]])
        for l in range(1, L + 1):
            R = k * l / L
            assert L * R / l == k
            stop = 1 + int(np.sum(still_short(stats, a, stop_levels(a, R, L))))
            assert stop == l, (k, l)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_stop_rule_zero_and_infinite_rates_and_overflow(K):
    # R = 0 never leaves a trial short and R = inf always does; a det(I + a G) whose a e_1
    # overflows decodes, as l * I_b = inf did in the log domain
    a = SnrPoint(100.0).eta_linear  # 1e10
    e = np.array([[0.0, 1e-300, 1.0, 1e300]] + [[0.0, 1e-300, 1.0, 2.0]] * (K - 1))
    L = 3
    assert not np.any(still_short(e, a, stop_levels(a, 0.0, L)))
    assert np.all(still_short(e, a, stop_levels(a, math.inf, L)))
    R = 5.0
    short = still_short(e, a, stop_levels(a, R, L))
    with np.errstate(over="ignore"):
        ib = block_info(e, a, 1)
    assert ib[-1] == math.inf
    assert [s.tolist() for s in short] == [s.tolist() for s in log_domain_short(ib, R, L)]
    assert [bool(s[-1]) for s in short] == [False] * L


def test_stop_rule_matches_log_domain_oracle():
    # 2^18 trials per shape, 0-60 dB, a rate per level on both sides of min(M, N) / L: the
    # determinant-domain masks equal the log-domain ones with no mismatch
    trials, chunk = 1 << 18, 1 << 16
    for M, N, L in KERNEL_SHAPES:
        key = rng.stream_key(2029, 0)
        for t0 in range(0, trials, chunk):
            stats = channel_stats(rng.trial_uniforms(key, fading_width(M, N), t0, chunk), M, N)
            scratch = np.empty(chunk)
            for db in (0.0, 10.0, 30.0, 60.0):
                eta = SnrPoint(db)
                a = eta.eta_linear / M
                ib = block_info(stats, eta.eta_linear, M)
                for r_n in (0.25, 0.75, 1.5):
                    R = r_n * eta.log2_eta
                    short = still_short(stats, a, stop_levels(a, R, L), scratch)
                    for got, ref in zip(short, log_domain_short(ib, R, L), strict=True):
                        assert np.array_equal(got, ref), (M, N, L, db, r_n, t0)


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


# (M, N, L): SISO, square, both rank-one orientations, a longer codeword, both orientations
# of the min-size Gram matrix (H H* for N < M, H* H for N > M), and 3x3, the smallest shape
# with a subdiagonal sum of two uniforms and a coefficient between e_1 and e_K
KERNEL_SHAPES = [(1, 1, 2), (2, 2, 2), (1, 4, 2), (4, 1, 2), (4, 4, 4), (2, 3, 2), (3, 2, 2), (3, 3, 4)]


class _CodeLayout:
    """Decoder stub drawing the code-trial uniforms: 1 + 2L of its own after the fading draw.

    It asserts that each call gets 1 + 2L own columns and the K rows of channel_stats for the
    same chunk, and keeps both, so a test can check them against the trials' uniforms.
    """

    def __init__(self, M, N, L):
        self.width = 1 + 2 * L
        self.K, self.L = min(M, N), L
        self.seen = []

    def __call__(self, own, stats, short):
        n = len(own)
        assert own.shape == (n, self.width) and stats.shape == (self.K, n)
        assert [len(s) for s in short] == [n] * self.L
        self.seen.append(np.hstack((own, stats.T)))
        return np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("layout", ["outage", "code"])
@pytest.mark.parametrize("M, N, L", KERNEL_SHAPES)
def test_kernel_matches_scalar_reference_per_trial(M, N, L, layout):
    # the same trial uniforms into the batched kernel and the scalar oracles
    cfg = RatelessConfig(M, N, L)
    eta = SnrPoint(10.0)
    trials, seed = 400, 21
    decoder = _CodeLayout(M, N, L) if layout == "code" else None
    width = fading_width(M, N)
    u = rng.trial_uniforms(rng.stream_key(seed, 0), width + (decoder.width if decoder else 0), 0, trials)
    fading = u[:, :width]
    stats = channel_stats(fading, M, N)
    for snr in (SnrPoint(60.0), eta):  # the ill-conditioned end of the range, then the test point
        if min(M, N) == 1:  # rank one reads the channel itself
            channels = rng.complex_normals(fading)
            ref_ib = np.array([block_mutual_info(row.reshape(N, M), snr) for row in channels])
        else:  # full rank reads its bidiagonal factor, one explicit matrix per trial
            ref_ib = np.array([factor_mutual_info(bartlett_factor(row, M, N), snr, M) for row in fading])
        ib = block_info(stats, snr.eta_linear, M)  # the log-domain oracle of the stop rule
        np.testing.assert_allclose(ib, ref_ib, rtol=1e-12, atol=1e-12)
    # a rate that puts the message size in the middle of the I_b spread
    R = 0.75 * float(np.median(ref_ib))

    a = eta.eta_linear / M
    stop = 1 + np.sum(still_short(stats, a, stop_levels(a, R, L)), axis=0)  # L + 1 means outage
    ref_stop = [rateless_stop(x, R, L) or L + 1 for x in ref_ib]
    assert stop.tolist() == ref_stop
    ref_hist = np.bincount(ref_stop, minlength=L + 2)[1:]
    assert np.count_nonzero(ref_hist) >= 2  # the comparison sees more than one outcome

    # the full kernel, chunked and threaded, lands on the same histogram
    (stops,) = stop_counts(cfg, [(eta, R)], trials, seed, chunk=64, workers=2, decoder=decoder)
    assert stops.tolist() == ref_hist.tolist()
    if decoder:  # every chunk's own block and statistics, in any chunk order, are the trials'
        seen = np.concatenate(decoder.seen)
        expected = np.hstack((u[:, width:], stats.T))
        assert np.array_equal(seen[np.lexsort(seen.T)], expected[np.lexsort(expected.T)])


def test_fading_width_is_the_bartlett_count_at_full_rank():
    # rank one keeps 2MN; full rank reads sum_{i<K} (m - i) on the diagonal and
    # sum_{i<K-1} (K - 1 - i) below it, K m in all
    widths = {(1, 1): 2, (1, 4): 8, (4, 1): 8, (2, 2): 4, (2, 3): 6, (3, 2): 6, (3, 3): 9, (4, 4): 16}
    assert {shape: fading_width(*shape) for shape in widths} == widths
    for M, N in widths:
        if min(M, N) > 1:  # the reference reads exactly that many, each once
            assert bartlett_factor(np.full(fading_width(M, N), 0.5), M, N).shape == (min(M, N),) * 2
            with pytest.raises(ValueError, match="more than"):
                bartlett_factor(np.full(fading_width(M, N) + 1, 0.5), M, N)


# full-rank shapes of the bidiagonal draw: square, both orientations of a 2 x 3 link, 3x3 and 4x4
FULL_RANK = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def _z_bound(statistics):
    """Two-sided z bound of a law test, Bonferroni over its `statistics` z values, family 1e-6."""
    return NormalDist().inv_cdf(1 - 1e-6 / (2 * statistics))


# the log det and trace test and the two-sample test each judge 2 statistics on every shape
_Z_LAW = _z_bound(2 * len(FULL_RANK))
_EULER_GAMMA = 0.5772156649015329


def _digamma(k):
    """psi(k) = -gamma + H_{k-1} at a positive integer k."""
    return -_EULER_GAMMA + sum(1.0 / j for j in range(1, k))


def _trigamma(k):
    """psi'(k) = pi^2 / 6 - sum_{j<k} 1 / j^2 at a positive integer k."""
    return math.pi**2 / 6 - sum(1.0 / j**2 for j in range(1, k))


@pytest.mark.parametrize("M, N", FULL_RANK)
def test_bartlett_draw_has_exact_wishart_log_det_and_trace(M, N):
    # G = X X* for K x m CN(0, 1) entries: ln det G sums independent ln Gamma(m - i, 1), so its
    # mean is sum psi(m - i) and its variance sum psi'(m - i); tr G sums K m unit exponentials.
    # det(I + a G) = 1 + sum_k e_k a^k, so e_K = det G and e_1 = tr G.
    K, m = min(M, N), max(M, N)
    trials = 1 << 16
    u = rng.trial_uniforms(rng.stream_key(2021, 0), fading_width(M, N), 0, trials)
    e = channel_stats(u, M, N)
    se = math.sqrt(sum(_trigamma(m - i) for i in range(K)) / trials)
    z_logdet = (np.log(e[-1]).mean() - sum(_digamma(m - i) for i in range(K))) / se
    z_trace = (e[0].mean() - K * m) / math.sqrt(K * m / trials)
    assert abs(z_logdet) < _Z_LAW and abs(z_trace) < _Z_LAW, (z_logdet, z_trace)


# shapes with coefficients strictly between e_1 and e_K, and the count of those coefficients
_MIDDLE = [(M, N) for M, N in FULL_RANK if min(M, N) > 2]
_Z_MIDDLE = _z_bound(sum(min(M, N) - 2 for M, N in _MIDDLE))


@pytest.mark.parametrize("M, N", _MIDDLE)
def test_bidiagonal_draw_has_exact_wishart_coefficient_means(M, N):
    # e_k is the sum of the k x k principal minors of G; each has mean m! / (m - k)!, the product
    # of its k independent Gamma(m - i, 1) Bartlett pivots, and there are C(K, k) of them.
    # e_1 and e_K are the trace and determinant judged above, so only 1 < k < K is tested here.
    K, m = min(M, N), max(M, N)
    trials = 1 << 16
    u = rng.trial_uniforms(rng.stream_key(2021, 0), fading_width(M, N), 0, trials)
    e = channel_stats(u, M, N)
    z = {}
    for k in range(2, K):
        mean = math.comb(K, k) * math.perm(m, k)
        z[k] = (e[k - 1].mean() - mean) / (e[k - 1].std(ddof=1) / math.sqrt(trials))
    assert all(abs(v) < _Z_MIDDLE for v in z.values()), z


def _gaussian_info(gen, trials, M, N, eta):
    """I_b of `trials` independent N x M Gaussian channels, by slogdet of I + (eta / M) H H*."""
    h = (gen.standard_normal((trials, N, M)) + 1j * gen.standard_normal((trials, N, M))) * math.sqrt(0.5)
    a = np.eye(N) + (eta.eta_linear / M) * (h @ h.conj().transpose(0, 2, 1))
    return np.linalg.slogdet(a)[1] / math.log(2.0)


@pytest.mark.parametrize("M, N", FULL_RANK)
def test_bartlett_stop_counts_match_gaussian_channels(M, N):
    # two samples: the kernel's stop counts against brute-force Gaussian H from PCG64, a generator
    # it never uses. At 5 dB and a rate whose first-block outage is near 1/2 by a pilot draw, the
    # trials still short after each block must agree within the Bonferroni z bound.
    cfg, eta, trials = RatelessConfig(M, N, L=2), SnrPoint(5.0), 1 << 17
    gen = np.random.Generator(np.random.PCG64(2021))
    R = float(np.median(_gaussian_info(gen, 1 << 12, M, N, eta))) / 2
    ref = _gaussian_info(gen, trials, M, N, eta)
    (stops,) = stop_counts(cfg, [(eta, R)], trials, seed=2021)
    for l in (1, 2):
        a, b = int(stops[l:].sum()), int(np.count_nonzero(l * ref < 2 * R))
        p = (a + b) / (2 * trials)
        z = (a - b) / math.sqrt(2 * trials * p * (1 - p))
        assert abs(z) < _Z_LAW, (l, a, b, z)


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
    rec = SnrRecord(eta, 1.0, stop_counts(SISO_L2, [(eta, 1.0)], 400_000, seed=101)[0])
    oracle = siso_outage_profile(eta, 1.0, 2)
    _assert_exact([(f"p({l})", _short(rec, l), rec.trials, oracle[l]) for l in (1, 2)])


def test_outage_profile_zero_rate_never_fails():
    eta = SnrPoint(0.0)
    rec = SnrRecord(eta, 0.0, stop_counts(SISO_L2, [(eta, 0.0)], 10_000, seed=1)[0])
    assert rec.p_hat[0] == 1.0
    assert np.all(rec.p_hat[1:] == 0.0)
    assert math.isnan(rec.r_hat)  # r_bar / log2(eta) is undefined at 0 dB


def test_outage_profile_monotone_in_l_and_eta():
    cfg = RatelessConfig(2, 2, L=4)
    seed = 77
    prev = None
    for db in (0.0, 5.0, 10.0):
        eta = SnrPoint(db)
        rec = SnrRecord(eta, 2.0, stop_counts(cfg, [(eta, 2.0)], 20_000, seed=seed)[0])
        assert np.all(np.diff(rec.p_hat) <= 0)
        if prev is not None:
            # same seed: common fading draws couple the comparison
            assert np.all(rec.p_hat <= prev.p_hat)
        prev = rec


def test_outage_profile_deterministic_across_workers():
    point = [(SnrPoint(12.0), 1.0)]
    a = stop_counts(SISO_L2, point, 50_000, seed=3, workers=1)
    b = stop_counts(SISO_L2, point, 50_000, seed=3, workers=4, chunk=999)
    assert np.array_equal(a, b)


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
    eta = SnrPoint(10.0)
    rec = SnrRecord(eta, 1.0, stop_counts(SISO_L2, [(eta, 1.0)], 1000, seed=1)[0])
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
    # r_n = 0.25 at L = 2: p(2) and p(1) at thresholds 0.25 and 0.5 log2(eta)
    etas = [SnrPoint(d) for d in range(40, 81, 10)]
    for frac, lo, hi in ((0.25, 0.70, 0.78), (0.5, 0.45, 0.53)):
        pts = [(e, _siso_p(e, frac * e.log2_eta)) for e in etas]
        assert lo <= _slope(pts) <= hi  # finite-SNR bias below the limits 0.75 and 0.5


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
    eta = SnrPoint(60.0)
    (rec,) = run_rateless_experiment(SISO_L2, 0.25, [eta], trials=100_000, seed=11)
    assert abs(rec.r_hat - 0.5) <= 0.05 * 0.5
    exact = effective_rate(rec.R, 2, [1.0, _siso_p(eta, 2 * rec.R)]) / eta.log2_eta
    assert abs(exact - 0.5) <= 0.05 * 0.5


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
    # r_n = 0.75 >= min(M, N) / L saturates only the first level: p(1) stops decaying, r_hat falls to r_n
    etas = [SnrPoint(d) for d in range(40, 81, 10)]
    slope = diversity_slope(etas, [rank_one_outage(1, 1, e, 1.5 * e.log2_eta)[1] for e in etas])
    assert abs(slope) <= 0.05
    eta, R = etas[-1], 0.75 * etas[-1].log2_eta
    r_hat = effective_rate(R, 2, [1.0, _siso_p(eta, 2 * R)]) / eta.log2_eta
    assert abs(r_hat - 0.75) <= 0.10 * 0.75


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
        stop_counts(SISO_L2, [(SnrPoint(10.0), 1.0)], 0, seed=0)
    with pytest.raises(ValueError):
        stop_counts(SISO_L2, [(SnrPoint(10.0), -1.0)], 100, seed=0)
    with pytest.raises(ValueError):
        stop_counts(SISO_L2, [], 100, seed=0)
    two = [(SnrPoint(10.0), 1.0), (SnrPoint(20.0), 1.0)]
    with pytest.raises(ValueError):
        stop_counts(SISO_L2, two, 100, seed=0, decoder=_CodeLayout(1, 1, 2))  # a decoder takes one point


_RATE_ENTRY_POINTS = {
    "stop_counts": lambda rate: stop_counts(SISO_L2, [(SnrPoint(10.0), rate)], 1000, seed=1)[0],
    "run_rateless_experiment": lambda rate: run_rateless_experiment(SISO_L2, rate, [SnrPoint(10.0)], 1000, 1)[0],
    "rank_one_outage": lambda rate: rank_one_outage(1, 1, SnrPoint(10.0), rate),
}


@pytest.mark.parametrize("entry", sorted(_RATE_ENTRY_POINTS))
def test_nan_rate_is_rejected_and_infinite_rate_is_all_outage(entry):
    # nan < 0 is false, so a guard R < 0 let nan through as if every trial decoded at block 1
    call = _RATE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=r"must be >= 0, got nan$"):
        call(math.nan)
    result = call(math.inf)
    if entry == "stop_counts":
        assert result.tolist() == [0, 0, 1000]
    elif entry == "run_rateless_experiment":
        assert result.stop_hist.tolist() == [0, 0, 1000] and result.p_hat.tolist() == [1.0, 1.0, 1.0]
    else:
        assert result[0] == 1.0
