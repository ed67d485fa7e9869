"""Permutation codes: alphabet, search, decoding, trials, serialization."""

import itertools
import math

import numpy as np
import pytest

from reference import rateless_stop

from rateless_dmt import (
    SnrPoint,
    permcode,
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
from rateless_dmt.rng import complex_normals
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


def _random_perm_code(L, bits, seed):
    """A PermutationCode with uniformly random tail permutations, built without search."""
    gen = np.random.Generator(np.random.PCG64(seed))
    n = 2**bits
    perms = (tuple(range(n)),) + tuple(tuple(int(i) for i in gen.permutation(n)) for _ in range(L - 1))
    return PermutationCode(constellation=build_qam(bits), perms=perms)


_LARGE_CODES = {
    "identity_L2_b8": lambda: identity_code(2, 8),
    "random_L3_b6": lambda: _random_perm_code(3, 6, seed=5),
}


@pytest.mark.parametrize("name", sorted(_LARGE_CODES))
def test_decode_batch_matches_rows_alone_and_brute_force(name):
    # the batched screen may round differently by batch shape; the decisions may not
    code = _LARGE_CODES[name]()
    gen = np.random.Generator(np.random.PCG64(99))
    rows = 4096
    for db in (0.0, 20.0, 40.0, 60.0, 80.0):
        eta = SnrPoint(db)
        sqrt_eta = math.sqrt(eta.eta_linear)
        h = (gen.normal(size=rows) + 1j * gen.normal(size=rows)) * math.sqrt(0.5)
        msg = gen.integers(code.n_messages, size=rows)
        noise = (gen.normal(size=(rows, code.L)) + 1j * gen.normal(size=(rows, code.L))) * math.sqrt(0.5)
        y = sqrt_eta * h[:, None] * code.symbol_table[:, msg].T + noise
        for l in range(1, code.L + 1):
            table = code.symbol_table[:l]
            batch = ml_decode(table, y, h, sqrt_eta)
            alone = [int(ml_decode(table, y[t : t + 1], h[t : t + 1], sqrt_eta)[0]) for t in range(rows)]
            assert batch.tolist() == alone, (db, l)
            for t in range(0, rows, 64):
                assert batch[t] == _brute_force_decode(code, y[t, :l], h[t], eta), (db, l, t)


def _nearest_neighbour(code, a, l):
    d2 = np.sum(np.abs(code.symbol_table[:l] - code.symbol_table[:l, a : a + 1]) ** 2, axis=0)
    d2[a] = math.inf
    return int(np.argmin(d2))


@pytest.mark.parametrize("name", sorted(_LARGE_CODES))
def test_decode_rechecks_ties_and_zero_gain_rows(name, monkeypatch):
    # h = 0 scores every message zero; a received midpoint between two nearest codewords is
    # an exact tie. Both must fall to the elementwise recheck and decode alike in any batch.
    code = _LARGE_CODES[name]()
    gen = np.random.Generator(np.random.PCG64(7))
    sqrt_eta = math.sqrt(SnrPoint(30.0).eta_linear)
    rows = 256
    h = (gen.normal(size=rows) + 1j * gen.normal(size=rows)) * math.sqrt(0.5)
    y = (gen.normal(size=(rows, code.L)) + 1j * gen.normal(size=(rows, code.L))) * math.sqrt(0.5)
    y += sqrt_eta * h[:, None] * code.symbol_table[:, gen.integers(code.n_messages, size=rows)].T
    zero_rows = [3, 100, 201]
    h[zero_rows] = 0.0
    rechecked = []
    distance_sums = permcode._distance_sums

    def spy(table, received, s):
        rechecked.extend(row.tobytes() for row in received)
        return distance_sums(table, received, s)

    monkeypatch.setattr(permcode, "_distance_sums", spy)
    for l in range(1, code.L + 1):
        table = code.symbol_table[:l]
        ties = {}
        for t, a in zip((10, 50, 150, 250), (0, 1, code.n_messages // 2, code.n_messages - 1)):
            b = _nearest_neighbour(code, a, l)
            y[t, :l] = sqrt_eta * h[t] * (table[:, a] + table[:, b]) / 2
            ties[t] = {a, b}
        rechecked.clear()
        batch = ml_decode(table, y, h, sqrt_eta)
        assert {y[t].tobytes() for t in [*zero_rows, *ties]} <= set(rechecked)
        for t in zero_rows:
            assert batch[t] == 0
        for t, pair in ties.items():
            assert int(batch[t]) in pair
        for t in [*zero_rows, *ties]:
            assert ml_decode(table, y[t : t + 1], h[t : t + 1], sqrt_eta)[0] == batch[t]


def _spy(monkeypatch, name):
    """Record the arguments of each call of permcode.<name>, and pass the call through."""
    calls = []
    real = getattr(permcode, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permcode, name, spy)
    return calls


@pytest.mark.parametrize("bits", range(1, permcode.MAX_BITS + 1))
def test_block_one_slicing_matches_distance_sums_on_every_grid(bits, monkeypatch):
    # odd bits give rectangular grids, and bits = 1 an imaginary axis of one level
    const = build_qam(bits)
    code = PermutationCode(constellation=const, perms=(tuple(range(const.size)),))
    table = code.symbol_table
    xs = np.unique(const.points.real)
    ys = np.unique(const.points.imag)
    assert len(xs) * len(ys) == const.size and len(xs) >= len(ys)
    # every decision boundary between adjacent levels, on each axis, at every level of the other
    edges = [complex(b, y) for b in (xs[1:] + xs[:-1]) / 2 for y in ys]
    edges += [complex(x, b) for b in (ys[1:] + ys[:-1]) / 2 for x in xs]
    # and just off each, by far less than the recheck's margin but far more than rounding
    edges += [e + 1e-12 * (1 + 1j) for e in edges]
    gen = np.random.Generator(np.random.PCG64(bits))
    distance_sums = permcode._distance_sums
    slicer = _spy(monkeypatch, "_slice_qam")
    screen = _spy(monkeypatch, "_screen")
    rechecked = _spy(monkeypatch, "_distance_sums")
    for db in (0.0, 20.0, 40.0, 60.0, 80.0):
        eta = SnrPoint(db)
        sqrt_eta = math.sqrt(eta.eta_linear)
        rows = 256 + len(edges)
        h = (gen.normal(size=rows) + 1j * gen.normal(size=rows)) * math.sqrt(0.5)
        sent = table[0, gen.integers(const.size, size=rows)]
        y = sqrt_eta * h * sent + (gen.normal(size=rows) + 1j * gen.normal(size=rows)) * math.sqrt(0.5)
        # rows past the outer edge: of the real axis at a random level (32), and of a corner (32)
        far = gen.choice([-1.0, 1.0], size=(64, 2)) * gen.uniform(1.05, 4.0, size=(64, 2))
        y[:64] = sqrt_eta * h[:64] * (far[:, 0] * xs[-1] + 1j * far[:, 1] * ys[-1])
        y[:32] = sqrt_eta * h[:32] * (far[:32, 0] * xs[-1] + 1j * gen.choice(ys, size=32))
        y[256:] = sqrt_eta * h[256:] * np.array(edges)
        h[[5, 77, 200]] = 0.0
        for calls in (slicer, screen, rechecked):
            calls.clear()
        decoded = ml_decode(table, y[:, None], h, sqrt_eta)
        assert len(slicer) == 1 and not screen
        s = sqrt_eta * h
        assert decoded.tolist() == np.argmin(distance_sums(table, y[:, None], s), axis=1).tolist()
        for t in range(256):
            assert decoded[t] == _brute_force_decode(code, y[t : t + 1], h[t], eta), (db, t)
        # a row on a boundary is an exact tie, which rounding breaks: either side is ML
        for t, edge in enumerate(edges, start=256):
            pair = np.argsort(np.abs(const.points - edge))[:2]
            assert {decoded[t], _brute_force_decode(code, y[t : t + 1], h[t], eta)} <= set(pair)
        reached = {row.tobytes() for _, received, _ in rechecked for row in received}
        for t in [5, 77, 200, *range(256, rows)]:
            assert y[t : t + 1].tobytes() in reached, (db, t)
        assert decoded[[5, 77, 200]].tolist() == [0, 0, 0]
        # the recheck is for near-ties alone: most random rows are decided by slicing
        assert len(reached) < 3 + len(edges) + 16


def _reordered_grid_code(bits):
    """A codebook, read back from text, whose block 1 is the QAM grid in reverse order."""
    points = build_qam(bits).points[::-1]
    n = len(points)
    code = PermutationCode(constellation=Constellation(points=points, bits=bits), perms=(tuple(range(n)),) * 2)
    return parse_codebook(codebook_text(code))


def _rotated_code(bits):
    """A unit-energy constellation off the grid: QAM turned by 0.3 rad, random tail permutation."""
    points = build_qam(bits).points * np.exp(0.3j)
    perms = _random_perm_code(2, bits, seed=3).perms
    return PermutationCode(constellation=Constellation(points=points, bits=bits), perms=perms)


@pytest.mark.parametrize("make", [_reordered_grid_code, _rotated_code], ids=["reordered", "rotated"])
def test_block_one_off_the_grid_takes_the_screen(make, monkeypatch):
    code = make(4)
    assert not np.array_equal(code.symbol_table[0], build_qam(4).points)
    gen = np.random.Generator(np.random.PCG64(11))
    rows = 512
    slicer = _spy(monkeypatch, "_slice_qam")
    screen = _spy(monkeypatch, "_screen")
    for db in (0.0, 20.0, 40.0):
        eta = SnrPoint(db)
        sqrt_eta = math.sqrt(eta.eta_linear)
        h = (gen.normal(size=rows) + 1j * gen.normal(size=rows)) * math.sqrt(0.5)
        noise = (gen.normal(size=(rows, 2)) + 1j * gen.normal(size=(rows, 2))) * math.sqrt(0.5)
        y = sqrt_eta * h[:, None] * code.symbol_table[:, gen.integers(16, size=rows)].T + noise
        for l in (1, 2):
            screen.clear()
            decoded = ml_decode(code.symbol_table[:l], y, h, sqrt_eta)
            assert len(screen) == 1
            for t in range(rows):
                assert decoded[t] == _brute_force_decode(code, y[t, :l], h[t], eta), (db, l, t)
    assert not slicer
    # the same rows through the grid code slice at l = 1 and screen at l = 2
    grid = identity_code(2, 4)
    for l in (1, 2):
        slicer.clear()
        screen.clear()
        ml_decode(grid.symbol_table[:l], y, h, sqrt_eta)
        assert (len(slicer), len(screen)) == ((1, 0) if l == 1 else (0, 1))


def test_large_code_trials_identical_across_chunks_and_workers():
    # chunk = 1 decodes one-row batches, where a bare matrix product rounds differently
    code = identity_code(2, 8)
    runs = [
        run_rateless_code_trials(code, SnrPoint(30.0), 3000, seed=19, chunk=c, workers=w)
        for c, w in ((1, 1), (37, 3), (rng.DEFAULT_CHUNK, 1))
    ]
    for res in runs[1:]:
        assert res.stop_hist.tolist() == runs[0].stop_hist.tolist()
        assert res.err_counts.tolist() == runs[0].err_counts.tolist()
    assert runs[0].err_counts.sum() > 0


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
    # code-trial layout per trial: message uniform, two for h, 2L for the noises. At L=3
    # the middle stop block l=2 decodes a prefix that is neither the first nor the whole.
    for L, bits in ((2, 3), (3, 2)):
        code, _ = search_permutation_code(L, bits)
        n = code.n_messages
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


def test_code_trials_convert_only_the_draws_of_trials_that_decode(monkeypatch):
    # a trial that stops at block l turns its 2 fading and first 2l noise uniforms into
    # normals; an outage trial converts none (whole trials would convert 2 + 2L = 6 each)
    code, _ = search_permutation_code(2, 2)
    converted = []

    def spy(u):
        converted.append(u.size)
        return complex_normals(u)

    monkeypatch.setattr(rng, "complex_normals", spy)
    res = run_rateless_code_trials(code, SnrPoint(10.0), 4000, seed=5, chunk=1000)
    assert np.all(res.stop_hist > 0)  # stops at blocks 1 and 2, and outages
    assert sum(converted) == sum(res.stop_hist[l - 1] * (2 + 2 * l) for l in (1, 2))


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
