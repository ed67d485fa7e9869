"""Trial windows and determinism of the jump-ahead RNG layer."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import PCG64DXSM, Generator

from rateless_dmt import rng
from rateless_dmt.configs import RatelessConfig
from rateless_dmt.simulate import SnrPoint, stop_counts


def test_trial_windows_match_single_trial_streams():
    # Trial t drawn inside a batch equals trial t drawn on its own.
    key = rng.stream_key(99, 3)
    batch = rng.trial_uniforms(key, 7, start_trial=0, n_trials=16)
    for t in range(16):
        single = rng.trial_uniforms(key, 7, start_trial=t, n_trials=1)
        assert np.array_equal(batch[t], single[0])


def test_any_chunk_split_reproduces_the_full_run():
    key = rng.stream_key(5)
    full = rng.trial_uniforms(key, 5, 0, 100)
    for split in (1, 7, 33, 64):
        parts = [rng.trial_uniforms(key, 5, t0, n) for t0, n in rng.chunk_ranges(100, split)]
        assert np.array_equal(np.vstack(parts), full)


def test_distinct_streams_disagree():
    a = rng.trial_uniforms(rng.stream_key(1, 0), 4, 0, 8)
    b = rng.trial_uniforms(rng.stream_key(1, 1), 4, 0, 8)
    c = rng.trial_uniforms(rng.stream_key(2, 0), 4, 0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(1, 9), st.integers(0, 40), st.integers(1, 9))
def test_trial_rows_are_slices_of_one_long_draw(width, start, n):
    # no padding: trial t reads outputs [t w, (t + 1) w) of the stream, for any width and start
    key = rng.stream_key(3, 1)
    flat = Generator(PCG64DXSM(key)).random((start + n) * width)
    rows = rng.trial_uniforms(key, width, start, n)
    assert np.array_equal(rows, flat[start * width :].reshape(n, width))


def test_trial_uniforms_rejects_zero_width():
    with pytest.raises(ValueError):
        rng.trial_uniforms(rng.stream_key(1), 0, 0, 4)


def test_out_buffer_holds_a_fresh_draw():
    key = rng.stream_key(4)
    fresh = rng.trial_uniforms(key, 7, 13, 10)
    buf = np.full(100, np.nan)
    got = rng.trial_uniforms(key, 7, 13, 10, out=buf)
    assert np.shares_memory(got, buf) and np.array_equal(got, fresh)
    assert np.isnan(buf[70:]).all()
    with pytest.raises(ValueError):
        rng.trial_uniforms(key, 7, 13, 10, out=np.empty(69))


def test_reused_buffers_leave_stop_counts_unchanged():
    # each worker reuses one buffer across its chunks; the last chunk of 4000 = 62 * 64 + 32
    # fills only its head, and a wider call made first must not leak into the 4x4 one.
    # A short switch interval interleaves the two threads, so a buffer they shared would show.
    points = [(SnrPoint(db), 2.5 * SnrPoint(db).log2_eta) for db in (10, 20)]
    stop_counts(RatelessConfig(6, 6, 4), points, 3000, 5, workers=2)
    cfg = RatelessConfig(4, 4, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reused = stop_counts(cfg, points, 4000, 5, chunk=64, workers=2)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(reused, stop_counts(cfg, points, 4000, 5))
    assert reused[:, 2:4].any()  # trials stop at blocks 3 and 4, so the rows hold events


def test_standard_normals_moments():
    # real and imaginary parts of sqrt(2) * CN(0, 1) are independent standard normals
    u = rng.trial_uniforms(rng.stream_key(11), 8, 0, 25_000)
    z = (rng.complex_normals(u) * np.sqrt(2.0)).view(np.float64).ravel()
    n = len(z)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(n)


def test_standard_normals_needs_even_width():
    with pytest.raises(ValueError):
        rng.complex_normals(np.zeros((3, 5)))


def test_complex_normals_unit_variance():
    u = rng.trial_uniforms(rng.stream_key(12), 8, 0, 50_000)
    z = rng.complex_normals(u).ravel()
    n = len(z)
    # CN(0,1): total power 1, split evenly between components
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 4.0 / np.sqrt(n)
    assert abs(np.var(z.real) - 0.5) < 4.0 / np.sqrt(n)
    assert abs(np.var(z.imag) - 0.5) < 4.0 / np.sqrt(n)


def test_map_chunks_order_and_workers():
    def fn(t0, n):
        return np.array([t0, n])

    seq = rng.map_chunks(fn, 10, chunk=3, workers=1)
    par = rng.map_chunks(fn, 10, chunk=3, workers=4)
    assert [tuple(x) for x in seq] == [(0, 3), (3, 3), (6, 3), (9, 1)]
    assert all(np.array_equal(a, b) for a, b in zip(seq, par))


def test_chunk_ranges_rejects_bad_chunk():
    with pytest.raises(ValueError):
        list(rng.chunk_ranges(10, 0))
