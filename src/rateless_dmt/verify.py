"""Verification suite: each release criterion as a self-timing check.

Every check states what it measured, the tolerance it applied, and
passes or fails on its own; the suite result is the conjunction. All
randomized checks run from fixed default seeds so the suite is
deterministic out of the box. ``tol_scale`` widens or tightens the
statistical tolerances (not the exactness checks, which have none).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import permcode, rng, simulate, tradeoff
from .configs import RatelessConfig
from .simulate import SnrPoint

DEFAULT_SEED = 1009


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}  [{self.elapsed_s:.2f}s]  {self.detail}"


def _interval(lo: float, hi: float, tol_scale: float) -> tuple[float, float]:
    """Scale an acceptance interval's half-width about its center."""
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0 * tol_scale
    return center - half, center + half


def check_curve_2x2_L2(seed: int, tol_scale: float) -> tuple[bool, str]:
    """M=N=2, L=2: first-segment identity r = 2 r_n, d = f(r_n), exact."""
    cfg = RatelessConfig(2, 2, L=2)
    grid = tradeoff.default_r_n_grid(cfg)
    rateless, conventional = tradeoff.dmt_curves(cfg, grid)[:2]
    checked = 0
    for r_n, seg, pt in zip(rateless.r_n_grid, rateless.segment_index, rateless.points):
        if r_n < 1:
            if seg != 1 or pt.r != 2 * r_n or pt.d != tradeoff.tradeoff_f(2, 2, r_n):
                return False, f"mismatch at r_n={r_n}: {pt}"
            checked += 1
    conv = {r_n: pt.d for r_n, pt in zip(conventional.r_n_grid, conventional.points)}
    anchors_ok = (
        conv.get(Fraction(0)) == 4 and conv.get(Fraction(1)) == 1 and conv.get(Fraction(2)) == 0
    )
    return (
        checked > 0 and anchors_ok,
        f"{checked} first-segment points exact; conventional anchors (0,4),(1,1),(2,0) "
        f"{'ok' if anchors_ok else 'WRONG'}",
    )


def check_sawtooth_3x3_L4(seed: int, tol_scale: float) -> tuple[bool, str]:
    """M=N=3, L=4: four segments breaking at r_n = 0.75, 1.5, 2.25; d(3) = 0."""
    cfg = RatelessConfig(3, 3, L=4)
    grid = tradeoff.default_r_n_grid(cfg)
    rateless = tradeoff.dmt_curves(cfg, grid)[0]
    segs = set(rateless.segment_index)
    if segs != {0, 1, 2, 3, 4}:
        return False, f"segments found: {sorted(segs)}"
    breaks = [Fraction(3, 4), Fraction(3, 2), Fraction(9, 4)]
    eps = Fraction(1, 10**9)
    for idx, b in enumerate(breaks, start=1):
        if tradeoff.rateless_segment(cfg, b - eps) != idx or tradeoff.rateless_segment(cfg, b) != idx + 1:
            return False, f"wrong break behavior at r_n={b}"
    for r_n, seg, pt in zip(rateless.r_n_grid, rateless.segment_index, rateless.points):
        if seg > 0:
            if pt.r != r_n * 4 / seg or pt.d != tradeoff.tradeoff_f(3, 3, r_n):
                return False, f"mismatch at r_n={r_n}"
        else:
            if r_n != 3 or pt.d != 0:
                return False, f"bad tail point at r_n={r_n}"
    return True, f"4 segments, breaks at {[str(b) for b in breaks]}, zero-diversity tail at r_n=3"


_ORACLE_TRIALS = 10**6


def check_outage_oracle(seed: int, tol_scale: float) -> tuple[bool, str]:
    """SISO profile estimates vs the exponential-CDF closed form, 3 sigma."""
    cfg = RatelessConfig(1, 1, L=2)
    R = 1.0
    worst = 0.0
    cells = []
    for i, db in enumerate((0.0, 10.0, 20.0, 30.0)):
        eta = SnrPoint.from_db(db)
        rec = simulate.outage_record(cfg, eta, R, _ORACLE_TRIALS, seed, stream=i)
        for l in (1, 2):
            oracle = simulate.siso_outage_closed_form(eta, cfg.L * R / l)
            z = abs(rec.p_hat[l] - oracle) / rec.stderr[l]
            worst = max(worst, z)
            cells.append(z <= 3.0 * tol_scale)
    return (
        all(cells),
        f"8 cells, worst |p_hat - closed| = {worst:.2f} stderr (limit {3.0 * tol_scale:g})",
    )


def check_analytic_slope(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Closed-form outage exponents: slopes near 0.75 and 0.5 for r_n = 0.25."""
    etas = [SnrPoint.from_db(db) for db in (40.0, 50.0, 60.0, 70.0, 80.0)]
    r_n, L = 0.25, 2
    results = []
    details = []
    for l, (lo, hi) in ((2, (0.70, 0.78)), (1, (0.45, 0.53))):
        neglog = [
            -math.log2(simulate.siso_outage_closed_form(eta, L * r_n * eta.log2_eta / l))
            for eta in etas
        ]
        slope = simulate.diversity_slope(etas, neglog)
        lo_s, hi_s = _interval(lo, hi, tol_scale)
        results.append(lo_s <= slope <= hi_s)
        details.append(f"p({l}) slope {slope:.4f} in [{lo_s:g},{hi_s:g}]")
    return all(results), "; ".join(details)


_GAIN_TRIALS = 10**5


def check_effective_gain(seed: int, tol_scale: float) -> tuple[bool, str]:
    """r_hat near 0.5 for r_n = 0.25 at 60 dB, closed form and Monte Carlo."""
    cfg = RatelessConfig(1, 1, L=2)
    eta = SnrPoint.from_db(60.0)
    r_n = 0.25
    R = r_n * eta.log2_eta
    p1 = simulate.siso_outage_closed_form(eta, 2 * R)
    rhat_cf = simulate.effective_rate(R, cfg.L, [1.0, p1]) / eta.log2_eta
    ok_cf = abs(rhat_cf - 0.5) <= 0.05 * 0.5 * tol_scale

    rec = simulate.outage_record(cfg, eta, R, _GAIN_TRIALS, seed)
    rhat_mc = rec.r_hat
    # delta method: d r_bar / d p(1) = -R L / (1 + p(1))^2
    sigma = R * cfg.L * rec.stderr[1] / (1.0 + rec.p_hat[1]) ** 2 / eta.log2_eta
    ok_mc = abs(rhat_mc - rhat_cf) <= 3.0 * sigma * tol_scale
    return (
        ok_cf and ok_mc,
        f"closed-form r_hat {rhat_cf:.4f} (target 0.5 within 5%), "
        f"MC r_hat {rhat_mc:.4f} within {3.0 * tol_scale:g} sigma ({sigma:.2e})",
    )


def check_rate_collapse(seed: int, tol_scale: float) -> tuple[bool, str]:
    """r_n = 0.75 >= min(M,N)/L: rate halves to the second segment, p(1) stops decaying."""
    eta = SnrPoint.from_db(80.0)
    r_n, L = 0.75, 2
    R = r_n * eta.log2_eta
    p1 = simulate.siso_outage_closed_form(eta, 2 * R)
    rhat = simulate.effective_rate(R, L, [1.0, p1]) / eta.log2_eta
    target = r_n * L / 2
    ok_rate = abs(rhat - target) <= 0.10 * target * tol_scale

    etas = [SnrPoint.from_db(db) for db in (40.0, 50.0, 60.0, 70.0, 80.0)]
    neglog = [simulate.siso_outage_neg_log2(e, 2 * r_n * e.log2_eta) for e in etas]
    slope = simulate.diversity_slope(etas, neglog)
    lo, hi = _interval(-0.05, 0.05, tol_scale)
    ok_slope = lo <= slope <= hi
    return (
        ok_rate and ok_slope,
        f"r_hat {rhat:.4f} (target {target:g} within 10%); "
        f"p(1) exponent slope {slope:.3g} in [{lo:g},{hi:g}]",
    )


_CODE_TRIALS = 10**6


def check_permutation_code_trials(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Rateless 4-point code (R = bits / L = 1): stop oracle, error dominance, pairing."""
    searched, _ = permcode.search_permutation_code(L=2, bits=2)
    ident = permcode.identity_code(2, 2)
    L = searched.L
    failures = []
    notes = []
    for i, db in enumerate((20.0, 30.0, 40.0)):
        eta = SnrPoint.from_db(db)
        res_s = permcode.run_rateless_code_trials(searched, eta, _CODE_TRIALS, seed, stream=i)
        res_i = permcode.run_rateless_code_trials(ident, eta, _CODE_TRIALS, seed, stream=i)
        # (a) stop probabilities against the closed form
        for l in (1, 2):
            oracle = simulate.siso_outage_closed_form(eta, 2.0 / l)
            z = abs(res_s.p_hat[l] - oracle) / res_s.stderr[l]
            if z > 3.0 * tol_scale:
                failures.append(f"{db:g}dB p({l}) off by {z:.1f} sigma")
        # (b) total error within a factor of 3 of the final-block outage
        if db >= 30.0:
            p_L = simulate.siso_outage_closed_form(eta, 2.0 / L)
            ratio = res_s.errors.p_e / p_L
            factor = 3.0 * tol_scale
            notes.append(f"{db:g}dB P_e/p(L)={ratio:.2f}")
            if not (1.0 / factor <= ratio <= factor):
                failures.append(f"{db:g}dB P_e/p(L)={ratio:.2f} outside factor {factor:g}")
        # (c) early-stop errors do not dominate the final joint term
        if db == 40.0:
            early = float(np.sum(res_s.errors.joint_err[: L - 1]))
            early_se = simulate.binomial_stderr(early, _CODE_TRIALS)
            last = res_s.errors.joint_err[L - 1]
            last_se = res_s.errors.joint_stderr[L - 1]
            slack = 3.0 * math.hypot(early_se, last_se) * tol_scale
            notes.append(f"40dB early={early:.2e} last={last:.2e}")
            if early > last + slack:
                failures.append(f"early joint errors {early:.3e} exceed final {last:.3e} + {slack:.1e}")
        # (d) paired comparison under common randomness
        pair_slack = 3.0 * math.hypot(res_s.errors.p_e_stderr, res_i.errors.p_e_stderr) * tol_scale
        if res_s.errors.p_e > res_i.errors.p_e + pair_slack:
            failures.append(
                f"{db:g}dB searched P_e {res_s.errors.p_e:.3e} above identity "
                f"{res_i.errors.p_e:.3e} + {pair_slack:.1e}"
            )
    detail = "; ".join(notes) if not failures else "; ".join(failures)
    return not failures, detail


_DECODER_CODES = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
_DECODER_RANDOM_INSTANCES = 10**4


def _brute_force_decode(code: permcode.PermutationCode, y, h, eta_linear, l) -> int:
    """Independent ML oracle: plain-Python scan, blocks summed in reverse."""
    scale = math.sqrt(eta_linear) * h
    best_m, best_d = 0, math.inf
    for m in range(code.n_messages):
        d = 0.0
        for k in reversed(range(l)):
            d += abs(y[k] - scale * code.symbol_table[k, m]) ** 2
        if d < best_d:
            best_m, best_d = m, d
    return best_m


def check_decoder_correctness(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Noiseless decoding is exact on every prefix; ML agrees with brute force."""
    codes = []
    for L, bits in _DECODER_CODES:
        code, per_prefix = permcode.search_permutation_code(L, bits, seed=seed)
        if min(per_prefix) <= 0:
            return False, f"L={L} bits={bits}: non-decodable prefix"
        codes.append(code)
    sqrt_eta = math.sqrt(SnrPoint.from_db(10.0).eta_linear)
    h = np.array([0.6 - 0.35j])
    checked = 0
    for code in codes:
        for m in range(code.n_messages):
            for l in range(1, code.L + 1):
                table = code.symbol_table[:l]
                y = sqrt_eta * h * table[:, m]
                if permcode.ml_decode(table, y[None, :], h, sqrt_eta)[0] != m:
                    return False, f"noiseless miss: L={code.L} bits={code.bits} m={m} l={l}"
                checked += 1

    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 12))))
    mismatches = 0
    for _ in range(_DECODER_RANDOM_INSTANCES):
        code = codes[gen.integers(len(codes))]
        l = int(gen.integers(1, code.L + 1))
        eta_i = SnrPoint.from_db(float(gen.uniform(0.0, 40.0)))
        h_i = complex(gen.normal(), gen.normal()) * math.sqrt(0.5)
        m = int(gen.integers(code.n_messages))
        noise = (gen.normal(size=l) + 1j * gen.normal(size=l)) * math.sqrt(0.5)
        sqrt_eta = math.sqrt(eta_i.eta_linear)
        table = code.symbol_table[:l]
        y = sqrt_eta * h_i * table[:, m] + noise
        decoded = permcode.ml_decode(table, y[None, :], np.array([h_i]), sqrt_eta)[0]
        if decoded != _brute_force_decode(code, y, h_i, eta_i.eta_linear, l):
            mismatches += 1
    return (
        mismatches == 0,
        f"{checked} noiseless prefix decodes exact; "
        f"{_DECODER_RANDOM_INSTANCES} random instances, {mismatches} oracle mismatches",
    )


def _all_equal(runs: list[np.ndarray]) -> bool:
    return all(np.array_equal(runs[0], run) for run in runs[1:])


def check_determinism(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Reruns and thread-count changes leave every result's counts identical.

    The counts are stop_hist, plus err_counts for code trials; the CLI
    renders every CSV byte from them and the run's inputs alone.
    """
    cfg = RatelessConfig(1, 1, L=2)
    eta, eta30 = SnrPoint.from_db(10.0), SnrPoint.from_db(30.0)
    ok_profile = _all_equal([
        simulate.outage_record(cfg, eta, 1.0, _ORACLE_TRIALS, seed, workers=w, chunk=c).stop_hist
        for w, c in ((1, rng.DEFAULT_CHUNK), (1, rng.DEFAULT_CHUNK), (4, 1 << 12))
    ])
    code, _ = permcode.search_permutation_code(L=2, bits=2)
    code_runs = [
        permcode.run_rateless_code_trials(code, eta30, _CODE_TRIALS, seed, workers=w, chunk=c)
        for w, c in ((1, rng.DEFAULT_CHUNK), (1, rng.DEFAULT_CHUNK), (4, 1 << 13))
    ]
    ok_code = _all_equal([np.concatenate((res.stop_hist, res.err_counts)) for res in code_runs])
    etas = [SnrPoint.from_db(d) for d in (20.0, 30.0)]
    experiments = [
        simulate.run_rateless_experiment(cfg, 0.25, etas, _GAIN_TRIALS, seed, workers=w) for w in (1, 2)
    ]
    ok_exp = _all_equal([np.stack([rec.stop_hist for rec in recs]) for recs in experiments])
    return (
        ok_profile and ok_code and ok_exp,
        f"profile rerun/threads {'ok' if ok_profile else 'DIFF'}, "
        f"code trials {'ok' if ok_code else 'DIFF'}, experiment {'ok' if ok_exp else 'DIFF'}",
    )


# name, implementation, runtime limit in seconds
ALL_CHECKS: tuple[tuple[str, Callable[[int, float], tuple[bool, str]], float], ...] = (
    ("curve-2x2-L2", check_curve_2x2_L2, 1.0),
    ("sawtooth-3x3-L4", check_sawtooth_3x3_L4, 1.0),
    ("outage-oracle", check_outage_oracle, 60.0),
    ("analytic-slope", check_analytic_slope, 1.0),
    ("effective-gain", check_effective_gain, 30.0),
    ("rate-collapse", check_rate_collapse, 5.0),
    ("permutation-code-trials", check_permutation_code_trials, 600.0),
    ("decoder-correctness", check_decoder_correctness, 30.0),
    ("determinism", check_determinism, 600.0),
)


def run_check(name: str, seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> tuple[bool, str]:
    """Run one named check with timing and the runtime budget applied."""
    for check_name, fn, limit in ALL_CHECKS:
        if check_name == name:
            start = time.perf_counter()
            try:
                passed, detail = fn(seed, tol_scale)
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if passed and elapsed >= limit:
                passed = False
                detail += f" (runtime {elapsed:.1f}s exceeded {limit:g}s budget)"
            return CheckResult(name, passed, detail, elapsed)
    raise ValueError(f"unknown check {name!r}")


def run_all(seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> list[CheckResult]:
    return [run_check(name, seed, tol_scale) for name, _, _ in ALL_CHECKS]


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
