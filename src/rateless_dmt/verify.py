"""Verification suite: each release criterion as a self-timing check.

Every check states what it measured, the tolerance it applied, and
passes or fails on its own; the suite result is the conjunction. All
randomized checks run from fixed default seeds so the suite is
deterministic out of the box. A Monte Carlo count with an exact oracle
is judged by :func:`exact_cells`. ``tol_scale`` widens or tightens the
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

FAMILY_ALPHA = 1e-5  # chance that correct code fails one check's exact cells


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


def binom_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of k events in n trials: twice the smaller tail, capped at 1.

    The tail on the far side of the mean from k is summed outward from k, where its terms shrink.
    """
    if not 0.0 < p < 1.0:
        return 1.0 if k == n * p else 0.0
    tail = 0.0
    for j in range(k, n + 1) if k >= n * p else range(k, -1, -1):
        log_comb = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        term = math.exp(log_comb + j * math.log(p) + (n - j) * math.log1p(-p))
        tail += term
        if term <= 1e-17 * tail:
            break
    return min(1.0, 2.0 * tail)


def exact_cells(cells: list[tuple[str, int, int, float]], tol_scale: float) -> tuple[bool, str]:
    """Exact test of each (name, events, trials, oracle p) cell at (FAMILY_ALPHA / n_cells) ** tol_scale.

    tol_scale 1 keeps the Bonferroni family level; above 1 loosens it; near 0 only a p-value of 1 passes.
    """
    level = (FAMILY_ALPHA / len(cells)) ** tol_scale
    pvals = [(binom_two_sided_p(k, n, p), name) for name, k, n, p in cells]
    failed = [name for pval, name in pvals if pval < level]
    detail = f"smallest exact p-value {min(pvals)[0]:.2g} ({min(pvals)[1]}) vs level {level:.2g}"
    return not failed, detail + (f"; failed {', '.join(failed)}" if failed else "")


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
_GAIN_TRIALS = 10**5


def check_outage_oracle(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Rank-one p(l) estimates against the exact Erlang outage law, one exact test per cell.

    One kernel call per shape covers its SNRs; a row equals the one-point call at its SNR.
    """
    R = 1.0
    runs = [((1, 1), (0.0, 10.0, 20.0, 30.0), _ORACLE_TRIALS)]
    runs += [(mn, (0.0, 5.0, 10.0), _GAIN_TRIALS) for mn in ((1, 4), (4, 1))]
    cells = []
    for (M, N), dbs, trials in runs:
        cfg, etas = RatelessConfig(M, N, L=2), [SnrPoint(db) for db in dbs]
        rows = simulate.stop_counts(cfg, [(eta, R) for eta in etas], trials, seed)
        for eta, stops in zip(etas, rows):
            for l in (1, 2):
                oracle = simulate.rank_one_outage(M, N, eta, cfg.L * R / l)[0]
                cells.append((f"{M}x{N} {eta.eta_db:g}dB p({l})", int(stops[l:].sum()), trials, oracle))
    ok, detail = exact_cells(cells, tol_scale)
    return ok, f"{len(cells)} cells; {detail}"


def check_analytic_slope(seed: int, tol_scale: float) -> tuple[bool, str]:
    """Closed-form outage exponents: slopes near 0.75 and 0.5 for r_n = 0.25."""
    etas = [SnrPoint(db) for db in (40.0, 50.0, 60.0, 70.0, 80.0)]
    r_n, L = 0.25, 2
    results = []
    details = []
    for l, (lo, hi) in ((2, (0.70, 0.78)), (1, (0.45, 0.53))):
        neglog = [simulate.rank_one_outage(1, 1, eta, L * r_n * eta.log2_eta / l)[1] for eta in etas]
        slope = simulate.diversity_slope(etas, neglog)
        lo_s, hi_s = _interval(lo, hi, tol_scale)
        results.append(lo_s <= slope <= hi_s)
        details.append(f"p({l}) slope {slope:.4f} in [{lo_s:g},{hi_s:g}]")
    return all(results), "; ".join(details)


def check_effective_gain(seed: int, tol_scale: float) -> tuple[bool, str]:
    """r_hat near 0.5 for r_n = 0.25 at 60 dB; at L = 2 the Monte Carlo r_hat is monotone in p_hat(1)."""
    cfg = RatelessConfig(1, 1, L=2)
    eta = SnrPoint(60.0)
    r_n = 0.25
    R = r_n * eta.log2_eta
    p1 = simulate.rank_one_outage(1, 1, eta, 2 * R)[0]
    rhat_cf = simulate.effective_rate(R, cfg.L, [1.0, p1]) / eta.log2_eta
    ok_cf = abs(rhat_cf - 0.5) <= 0.05 * 0.5 * tol_scale

    rec = simulate.outage_record(cfg, eta, R, _GAIN_TRIALS, seed)
    ok_mc, detail = exact_cells([("p(1)", int(rec.stop_hist[1:].sum()), rec.trials, p1)], tol_scale)
    return (
        ok_cf and ok_mc,
        f"closed-form r_hat {rhat_cf:.4f} (target 0.5 within 5%), MC r_hat {rec.r_hat:.4f}; {detail}",
    )


def check_rate_collapse(seed: int, tol_scale: float) -> tuple[bool, str]:
    """r_n = 0.75 >= min(M,N)/L: rate halves to the second segment, p(1) stops decaying."""
    eta = SnrPoint(80.0)
    r_n, L = 0.75, 2
    R = r_n * eta.log2_eta
    p1 = simulate.rank_one_outage(1, 1, eta, 2 * R)[0]
    rhat = simulate.effective_rate(R, L, [1.0, p1]) / eta.log2_eta
    target = r_n * L / 2
    ok_rate = abs(rhat - target) <= 0.10 * target * tol_scale

    etas = [SnrPoint(db) for db in (40.0, 50.0, 60.0, 70.0, 80.0)]
    neglog = [simulate.rank_one_outage(1, 1, e, 2 * r_n * e.log2_eta)[1] for e in etas]
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
    stop_cells = []
    for db in (20.0, 30.0, 40.0):
        eta = SnrPoint(db)
        res_s = permcode.run_rateless_code_trials(searched, eta, _CODE_TRIALS, seed)
        res_i = permcode.run_rateless_code_trials(ident, eta, _CODE_TRIALS, seed)
        # (a) stop probabilities against the exact outage law, tested after the loop
        for l in (1, 2):
            oracle = simulate.rank_one_outage(1, 1, eta, 2.0 / l)[0]
            stop_cells.append((f"{db:g}dB p({l})", int(res_s.stop_hist[l:].sum()), res_s.trials, oracle))
        # (b) total error within a factor of 3 of the final-block outage
        if db >= 30.0:
            p_L = simulate.rank_one_outage(1, 1, eta, 2.0 / L)[0]
            ratio = res_s.p_e / p_L
            factor = 3.0 * tol_scale
            notes.append(f"{db:g}dB P_e/p(L)={ratio:.2f}")
            if not (1.0 / factor <= ratio <= factor):
                failures.append(f"{db:g}dB P_e/p(L)={ratio:.2f} outside factor {factor:g}")
        # (c) early-stop errors do not dominate the final joint term
        if db == 40.0:
            early = float(np.sum(res_s.joint_err[: L - 1]))
            early_se = simulate.binomial_stderr(early, _CODE_TRIALS)
            last = res_s.joint_err[L - 1]
            last_se = res_s.joint_stderr[L - 1]
            slack = 3.0 * math.hypot(early_se, last_se) * tol_scale
            notes.append(f"40dB early={early:.2e} last={last:.2e}")
            if early > last + slack:
                failures.append(f"early joint errors {early:.3e} exceed final {last:.3e} + {slack:.1e}")
        # (d) paired comparison under common randomness
        pair_slack = 3.0 * math.hypot(res_s.p_e_stderr, res_i.p_e_stderr) * tol_scale
        if res_s.p_e > res_i.p_e + pair_slack:
            failures.append(
                f"{db:g}dB searched P_e {res_s.p_e:.3e} above identity "
                f"{res_i.p_e:.3e} + {pair_slack:.1e}"
            )
    ok_stops, stops_detail = exact_cells(stop_cells, tol_scale)
    if not ok_stops:
        failures.insert(0, stops_detail)
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
    sqrt_eta = math.sqrt(SnrPoint(10.0).eta_linear)
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
        eta_i = SnrPoint(float(gen.uniform(0.0, 40.0)))
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
    eta, eta30 = SnrPoint(10.0), SnrPoint(30.0)
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
    etas = [SnrPoint(d) for d in (20.0, 30.0)]
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
