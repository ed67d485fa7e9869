"""Permutation codes: alphabet, search, decoding, trials, serialization."""

import itertools
import math

import numpy as np
import pytest

from reference import rateless_stop

from rateless_dmt import (
    SnrPoint,
    rng,
    build_qam,
    identity_code,
    prefix_min_products,
    run_rateless_code_trials,
    rank_one_outage,
    search_permutation_code,
)
from rateless_dmt.permcode import (
    CodeTrialResult,
    Constellation,
    PermutationCode,
    codebook_text,
    load_codebook,
    ml_decode,
    parse_codebook,
    save_codebook,
)
from rateless_dmt.verify import exact_cells


def _decode(code, y, h, eta):
    """ML message for one received prefix y through the batched decoder."""
    table = code.symbol_table[: len(y)]
    sqrt_eta = math.sqrt(eta.eta_linear)
    return int(ml_decode(table, np.asarray(y)[None, :], np.array([h]), sqrt_eta)[0])


def test_qam_4_points():
    c = build_qam(2)
    a = 1.0 / math.sqrt(2.0)
    expected = {complex(sx * a, sy * a) for sx in (-1, 1) for sy in (-1, 1)}
    assert set(np.round(c.points, 12)) == {complex(round(p.real, 12), round(p.imag, 12)) for p in expected}


def test_qam_bpsk():
    c = build_qam(1)
    assert sorted(c.points, key=lambda p: p.real) == [(-1 + 0j), (1 + 0j)]


@pytest.mark.parametrize("bits", range(1, 9))
def test_qam_unit_energy_and_distinct(bits):
    c = build_qam(bits)
    assert len(c.points) == 2**bits
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12
    assert len(np.unique(c.points)) == len(c.points)


def test_qam_rejects_out_of_range_bits():
    for bits in (0, 9):
        with pytest.raises(ValueError):
            build_qam(bits)


def test_constellation_invariants():
    with pytest.raises(ValueError):
        Constellation(points=np.array([1.0 + 0j, 1.0 + 0j]), bits=1)
    with pytest.raises(ValueError):
        Constellation(points=np.array([2.0 + 0j, -2.0 + 0j]), bits=1)  # energy 4
    with pytest.raises(ValueError):
        Constellation(points=np.array([1.0 + 0j]), bits=0)
    with pytest.raises(ValueError, match="finite"):
        Constellation(points=np.array([complex(math.nan, 0.0), 1.0 + 0j]), bits=1)


def test_code_type_invariants():
    c = build_qam(1)
    with pytest.raises(ValueError):
        PermutationCode(constellation=c, perms=((1, 0),))  # block 1 must be identity
    with pytest.raises(ValueError):
        PermutationCode(constellation=c, perms=((0, 1), (0, 0)))


def _min_distance(points):
    """Minimum pairwise distance of a constellation."""
    return min(abs(a - b) for a, b in itertools.combinations(points, 2))


def _exhaustive_best_full_prefix(points, L2_perms):
    i, j = np.triu_indices(len(points), k=1)
    d1 = np.abs(points[i] - points[j])
    best = -1.0
    for perm in L2_perms:
        pp = points[np.asarray(perm)]
        best = max(best, float(np.min(d1 * np.abs(pp[i] - pp[j]))))
    return best


def test_search_two_point_alphabet_ties_to_identity():
    code, per_prefix = search_permutation_code(L=2, bits=1)
    assert code.perms == ((0, 1), (0, 1))
    # oracle: both permutations of two points give the same products
    pts = code.constellation.points
    swap = abs(pts[1] - pts[0]) * abs(pts[0] - pts[1])
    assert per_prefix[1] == pytest.approx(swap)


def test_search_4qam_all_permutations_tie():
    # Exhaustive oracle: with 4 nearest-neighbor pairs and only 2 diagonal
    # pair slots, every permutation leaves some nearest pair mapped to a
    # nearest pair, and no product can drop below d_min^2 either, so all
    # 24 candidates share the same full-prefix minimum. Tie-break returns
    # the identity.
    code, per_prefix = search_permutation_code(L=2, bits=2)
    pts = code.constellation.points
    all_perms = list(itertools.permutations(range(4)))
    i, j = np.triu_indices(4, k=1)
    d1 = np.abs(pts[i] - pts[j])
    minima = set()
    for perm in all_perms:
        pp = pts[np.asarray(perm)]
        minima.add(round(float(np.min(d1 * np.abs(pp[i] - pp[j]))), 12))
    assert len(minima) == 1
    assert code.perms == (tuple(range(4)), tuple(range(4)))
    assert per_prefix[1] == pytest.approx(2.0)
    assert per_prefix[0] == pytest.approx(math.sqrt(2.0))
    assert int(np.argmin(per_prefix)) == 0  # the one-block prefix is the weakest


def test_search_8qam_strictly_improves_on_identity():
    code, per_prefix = search_permutation_code(L=2, bits=3)
    ident = identity_code(2, 3)
    best = _exhaustive_best_full_prefix(
        code.constellation.points, itertools.permutations(range(8))
    )
    assert per_prefix[1] == pytest.approx(best)
    assert per_prefix[1] > prefix_min_products(ident)[1] + 0.2


def test_search_single_block_returns_constellation_distance():
    code, per_prefix = search_permutation_code(L=1, bits=3)
    assert code.perms == (tuple(range(8)),)
    # one candidate, (8!)^0, so even a budget of 1 enumerates it
    assert search_permutation_code(L=1, bits=3, budget=1)[0].perms == code.perms
    assert per_prefix == (pytest.approx(_min_distance(code.constellation.points)),)
    assert prefix_min_products(code) == per_prefix


def test_search_randomized_mode_is_deterministic():
    # 16! candidates forces hill climbing; same seed, same winner
    a, per_prefix_a = search_permutation_code(L=2, bits=4, budget=20_000, seed=5)
    b, per_prefix_b = search_permutation_code(L=2, bits=4, budget=20_000, seed=5)
    assert a.perms == b.perms
    assert per_prefix_a == per_prefix_b == prefix_min_products(a)
    assert per_prefix_a[1] > prefix_min_products(identity_code(2, 4))[1]


def test_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        search_permutation_code(L=2, bits=2, budget=0)


def test_encode_repetition_and_searched():
    # column m of the symbol table is the codeword of message m
    ident = identity_code(2, 2)
    pts = ident.constellation.points
    for m in range(4):
        assert np.array_equal(ident.symbol_table[:, m], np.array([pts[m], pts[m]]))
    searched, _ = search_permutation_code(2, 3)
    x = searched.symbol_table[:, 0]
    assert x[0] == searched.constellation.points[0]
    assert x[1] == searched.constellation.points[searched.perms[1][0]]


def test_codewords_differ_in_every_block():
    code, _ = search_permutation_code(2, 3)
    for m1 in range(8):
        for m2 in range(m1 + 1, 8):
            diff = code.symbol_table[:, m1] - code.symbol_table[:, m2]
            assert np.all(np.abs(diff) > 0)


def test_block_energy_constraint():
    for code in (identity_code(3, 2), search_permutation_code(2, 3)[0]):
        table = code.symbol_table
        for l in range(code.L):
            assert abs(np.mean(np.abs(table[l]) ** 2) - 1.0) <= 1e-12


def test_prefix_injectivity_where_product_distance_positive():
    for L, bits in ((2, 1), (2, 2), (3, 2), (2, 3)):
        code, per_prefix = search_permutation_code(L, bits)
        for l, dmin in enumerate(per_prefix, start=1):
            if dmin > 0:
                table = code.symbol_table[:l]
                prefixes = {tuple(np.round(table[:, m], 12)) for m in range(code.n_messages)}
                assert len(prefixes) == code.n_messages


def test_noiseless_decode_every_message_every_prefix():
    eta = SnrPoint(20.0)
    h = -0.4 + 1.1j
    for L, bits in ((1, 2), (2, 2), (3, 2), (2, 3)):
        code, _ = search_permutation_code(L, bits)
        for m in range(code.n_messages):
            x = code.symbol_table[:, m]
            for l in range(1, L + 1):
                assert _decode(code, math.sqrt(eta.eta_linear) * h * x[:l], h, eta) == m


def test_decode_zero_channel_ties_to_message_zero():
    code, _ = search_permutation_code(2, 2)
    assert _decode(code, np.array([0.1 + 0j, -0.2 + 0j]), 0.0, SnrPoint(10.0)) == 0


def _brute_force_decode(code, y, h, eta):
    """Plain-Python ML oracle: scalar loop, blocks summed in reverse order."""
    scale = math.sqrt(eta.eta_linear) * h
    best, best_d = 0, math.inf
    for cand in range(code.n_messages):
        d = 0.0
        for k in reversed(range(len(y))):
            d += abs(y[k] - scale * code.symbol_table[k, cand]) ** 2
        if d < best_d:
            best, best_d = cand, d
    return best


def test_decode_agrees_with_plain_python_oracle():
    code, _ = search_permutation_code(2, 3)
    gen = np.random.Generator(np.random.PCG64(123))
    for _ in range(1000):
        l = int(gen.integers(1, 3))
        eta = SnrPoint(float(gen.uniform(0, 35)))
        h = complex(gen.normal(), gen.normal()) * math.sqrt(0.5)
        m = int(gen.integers(8))
        y = math.sqrt(eta.eta_linear) * h * code.symbol_table[:l, m]
        y = y + (gen.normal(size=l) + 1j * gen.normal(size=l)) * math.sqrt(0.5)
        best = _brute_force_decode(code, y, h, eta)
        assert _decode(code, y, h, eta) == best


def test_trials_stop_probabilities_match_closed_form():
    # every SNR of the seed draws the same trials; each (SNR, l) cell is judged on its own
    code, _ = search_permutation_code(2, 2)
    cells = []
    for db in (10.0, 20.0, 30.0):
        eta = SnrPoint(db)
        res = run_rateless_code_trials(code, eta, 200_000, seed=31)
        for l in (1, 2):
            oracle = rank_one_outage(1, 1, eta, 2.0 / l)[0]
            cells.append((f"{db:g}dB p({l})", int(res.stop_hist[l:].sum()), res.trials, oracle))
        assert res.stop_hist.sum() == 200_000
        assert res.p_e == pytest.approx(float(np.sum(res.joint_err)))
    ok, detail = exact_cells(cells, tol_scale=1.0)
    assert len(cells) == 6 and ok, detail


def test_error_decomposition_derives_estimates_from_counts():
    # 10 trials: stops 5, 3, then 2 outages; 1 error at block 1 and 2 at block 2
    eta = SnrPoint(10.0)
    err = CodeTrialResult(eta, 1.0, stop_hist=np.array([5, 3, 2]), err_counts=np.array([1, 2]))
    assert err.trials == 10
    assert err.joint_err.tolist() == [0.1, 0.4]  # outages count as final-block failures
    assert err.p_e == pytest.approx(0.5)
    assert err.p_e_stderr == pytest.approx(math.sqrt(0.25 / 10))
    assert err.cond_err_nonoutage == pytest.approx(3 / 8)
    assert math.isnan(CodeTrialResult(eta, 1.0, np.array([0, 0, 4]), np.array([0, 0])).cond_err_nonoutage)
    assert err == err and len({err, err}) == 1  # compared and hashed by identity, like SnrRecord


def test_trials_high_snr_concentrates_on_first_block():
    code, _ = search_permutation_code(2, 2)
    res = run_rateless_code_trials(code, SnrPoint(60.0), 50_000, seed=8)
    assert res.stop_hist[0] > 0.999 * 50_000
    assert res.p_e < 1e-3
    assert res.r_bar == pytest.approx(2.0, rel=1e-3)


def test_trials_rate_comes_from_codebook():
    for L, bits in ((2, 2), (2, 3), (3, 2)):
        code = identity_code(L, bits)
        res = run_rateless_code_trials(code, SnrPoint(20.0), 1000, seed=0)
        assert res.R == bits / L


def test_trials_stop_and_errors_match_scalar_reference():
    # code-trial layout per trial: message uniform, two for h, 2L for the noises
    code, _ = search_permutation_code(2, 3)
    L, n = code.L, code.n_messages
    eta = SnrPoint(12.0)
    R = code.bits / L
    trials, seed = 3000, 13
    res = run_rateless_code_trials(code, eta, trials, seed, chunk=500, workers=2)

    u = rng.trial_uniforms(rng.stream_key(seed, 0), 3 + 2 * L, 0, trials)
    stop_hist = np.zeros(L + 1, dtype=np.int64)
    fails = np.zeros(L, dtype=np.int64)
    for row in u:
        m = min(int(row[0] * n), n - 1)
        h = complex(rng.complex_normals(row[1:3])[0])
        noise = rng.complex_normals(row[3:])
        stop = rateless_stop(math.log2(1.0 + eta.eta_linear * abs(h) ** 2), R, L)
        if stop is None:
            stop_hist[L] += 1
            fails[L - 1] += 1
            continue
        stop_hist[stop - 1] += 1
        y = math.sqrt(eta.eta_linear) * h * code.symbol_table[:stop, m] + noise[:stop]
        fails[stop - 1] += _brute_force_decode(code, y, h, eta) != m
    assert res.stop_hist.tolist() == stop_hist.tolist()
    assert np.count_nonzero(stop_hist) == L + 1 and fails[0] > 0
    assert np.array_equal(res.joint_err, fails / trials)


def test_paired_comparison_searched_never_worse_and_beats_repetition_at_8qam():
    searched, _ = search_permutation_code(2, 3)
    ident = identity_code(2, 3)
    for db in (15.0, 20.0):
        eta = SnrPoint(db)
        res_s = run_rateless_code_trials(searched, eta, 200_000, seed=41)
        res_i = run_rateless_code_trials(ident, eta, 200_000, seed=41)
        # common random numbers: identical fading, noise, and messages
        assert np.array_equal(res_s.p_hat, res_i.p_hat)
        slack = 3.0 * math.hypot(res_s.p_e_stderr, res_i.p_e_stderr)
        assert res_s.p_e <= res_i.p_e + slack
        assert res_s.p_e < res_i.p_e  # decisive at this sample size


def test_conditional_error_decreases_with_snr():
    code, _ = search_permutation_code(2, 2)
    vals, prefix1 = [], []
    for db in (10.0, 20.0, 30.0, 40.0):
        res = run_rateless_code_trials(code, SnrPoint(db), 200_000, seed=17)
        vals.append(res.cond_err_nonoutage)
        prefix1.append(res.err_counts[0] / res.stop_hist[0])  # error given a stop at block 1
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(a > b for a, b in zip(prefix1, prefix1[1:]))


def test_decoding_error_rate_sits_below_final_outage():
    code, _ = search_permutation_code(2, 2)
    eta = SnrPoint(30.0)
    res = run_rateless_code_trials(code, eta, 200_000, seed=23)
    assert res.cond_err_nonoutage < rank_one_outage(1, 1, eta, 1.0)[0]


def test_blanked_tail_blocks_leave_prefix_decoding_intact():
    # fading family where blocks past l vanish: the prefix still decodes
    code, _ = search_permutation_code(2, 2)
    eta = SnrPoint(30.0)
    h = 0.9 - 0.1j
    for m in range(4):
        live = math.sqrt(eta.eta_linear) * h * code.symbol_table[:1, m]  # block 2 gain is zero
        assert _decode(code, live, h, eta) == m


def test_codebook_round_trip_is_bit_exact():
    for code in (search_permutation_code(2, 2)[0], search_permutation_code(2, 3)[0]):
        text = codebook_text(code)
        again = parse_codebook(text)
        assert codebook_text(again) == text
        assert again.perms == code.perms
        assert np.array_equal(again.constellation.points, code.constellation.points)


def test_codebook_file_round_trip(tmp_path):
    code, _ = search_permutation_code(2, 2)
    path = tmp_path / "book.txt"
    save_codebook(code, str(path))
    loaded = load_codebook(str(path))
    save_codebook(loaded, str(tmp_path / "book2.txt"))
    assert path.read_bytes() == (tmp_path / "book2.txt").read_bytes()


@pytest.mark.parametrize(
    "mutation, lineno",
    [
        (lambda lines: lines.__setitem__(0, "x"), 1),
        (lambda lines: lines.__setitem__(2, "nope"), 3),
        (lambda lines: lines.__setitem__(6, "0 1 2"), 7),
        (lambda lines: lines.__setitem__(6, "0 1 2 q"), 7),
        (lambda lines: lines.append("extra"), 9),
        (lambda lines: lines.__delitem__(7), 8),
        pytest.param(lambda lines: lines.__setitem__(3, "nan,0.0"), 1, id="nan-point"),
    ],
)
def test_codebook_parse_errors_carry_line_numbers(mutation, lineno):
    code, _ = search_permutation_code(2, 2)
    lines = codebook_text(code).splitlines()
    mutation(lines)
    with pytest.raises(ValueError, match=f"line {lineno}"):
        parse_codebook("\n".join(lines))
