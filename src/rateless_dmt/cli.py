"""Command-line front end: curve generation, simulation, codes, verification.

Subcommands: `dmt`, `simulate`, `codes`, `verify`, each with only the
flags it reads. Options may come from a flat key=value config file
(`--config`); every key may appear in any file, and command-line flags
override file values. This module is the one CSV writer: every emitted
CSV embeds the effective configuration as `#` comment lines, so outputs
are reproducible byte-for-byte from (config, seed, tool version); the
computation modules return results and write no CSV. `simulate` also prints
the fitted diversity slope of each p(l) beside its analytic limit.
Exit codes: 0 success, 1 verification failure, 2 usage or validation
error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import __version__, permcode, simulate, tradeoff, verify
from .configs import RatelessConfig
from .simulate import SnrPoint


# the slope of p(l) fits only SNRs with this many trials short after block l, and this many not
MIN_SLOPE_EVENTS = 10


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


def _parse_eta_list(raw: str) -> list[SnrPoint]:
    values = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    if len(set(values)) != len(values):
        raise ValueError("repeated SNR")  # rows and slope fits are keyed by SNR
    return [SnrPoint(db) for db in values]


def _positive(x) -> bool:
    return x >= 1


def _nonnegative(x) -> bool:
    return x >= 0


@dataclass(frozen=True)
class _Key:
    """A config key: its command-line flag, the parser of its text and its range check."""

    flag: str
    help: str
    parse: Callable[[str], object]
    check: Optional[Callable[[object], bool]] = None
    describe: str = ""


CONFIG_KEYS = {
    "M": _Key("--M", "transmit antennas", int, _positive, ">= 1"),
    "N": _Key("--N", "receive antennas", int, _positive, ">= 1"),
    "L": _Key("--L", "blocks per codeword", int, _positive, ">= 1"),
    "r_n": _Key("--r-n", "per-level multiplexing gain", Fraction, _nonnegative, ">= 0"),
    "eta_db_list": _Key("--eta-db", "comma-separated SNR list in dB", _parse_eta_list),
    "trials": _Key("--trials", "Monte Carlo trials per point", int, _positive, ">= 1"),
    "seed": _Key("--seed", "RNG seed", int, _nonnegative, ">= 0"),
    "bits": _Key(
        "--bits", "codebook size exponent", int,
        lambda b: 1 <= b <= permcode.MAX_BITS, f"in 1..{permcode.MAX_BITS}",
    ),
    "budget": _Key("--budget", "search evaluation budget", int, _positive, ">= 1"),
}


def parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config `{path}`: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key `{key}`")
        cfg[key] = value
    return cfg


def _gather(args: argparse.Namespace) -> dict[str, str]:
    """Merge config file values with flag overrides, as unparsed text."""
    given = vars(args)
    cfg = parse_config_file(given["config"]) if given.get("config") else {}
    for key in CONFIG_KEYS:
        if given.get(key) is not None:
            cfg[key] = given[key]
    return cfg


def _value(cfg: dict[str, str], key: str):
    spec = CONFIG_KEYS[key]
    try:
        value = spec.parse(cfg[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid value for `{key}`: {cfg[key]!r} ({exc})") from None
    if spec.check is not None and not spec.check(value):
        raise ConfigError(f"value for `{key}` out of range ({spec.describe}): {cfg[key]!r}")
    return value


def _require(cfg: dict[str, str], key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key `{key}`")
    return _value(cfg, key)


def _optional(cfg: dict[str, str], key: str, default):
    return _value(cfg, key) if key in cfg else default


def _pinned(cfg: dict[str, str], key: str, value, why: str) -> None:
    """Reject a given `key` whose value differs from the one the run is fixed to."""
    if key in cfg and _value(cfg, key) != value:
        raise ConfigError(f"value for `{key}` out of range (must be {value}, {why}): {cfg[key]!r}")


def _link(cfg: dict[str, str]) -> RatelessConfig:
    return RatelessConfig(*(_require(cfg, key) for key in ("M", "N", "L")))


def _workers(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"value for `workers` out of range (>= 1): {args.workers}")
    return args.workers


def _open_out(out_dir: str, name: str):
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _cell(x) -> str:
    """A CSV cell: a float (numpy's float64 is one) with 12 significant digits, else str(x)."""
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _write_csv(out_dir: str, name: str, mode: str, meta: dict, columns: str, rows) -> Path:
    """Write sorted `# key=value` lines (a list value comma-separated), the column row, the rows."""
    meta = {**meta, "mode": mode, "tool_version": __version__}
    path = _open_out(out_dir, name)
    with open(path, "w", newline="") as f:
        for key in sorted(meta):
            cells = meta[key] if isinstance(meta[key], list) else [meta[key]]
            f.write(f"# {key}={','.join(map(_cell, cells))}\n")
        f.write(columns + "\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\n")
    return path


def cmd_dmt(args: argparse.Namespace) -> int:
    cfg = _link(_gather(args))
    if args.per_segment < 1:
        raise ConfigError(f"value for `per-segment` out of range: {args.per_segment}")
    start = time.perf_counter()
    grid = tradeoff.default_r_n_grid(cfg, args.per_segment)
    curves = tradeoff.dmt_curves(cfg, grid)
    # `--exact` appends p/q columns so the rational values survive the decimal rendering
    exact = ",r_n_exact,r_exact,d_exact" if args.exact else ""
    rows = (
        (float(r_n), l, float(pt.r), float(pt.d), curve.scheme) + ((r_n, pt.r, pt.d) if exact else ())
        for curve in curves
        for r_n, l, pt in zip(curve.r_n_grid, curve.segment_index, curve.points)
    )
    meta = {"M": cfg.M, "N": cfg.N, "L": cfg.L, "per_segment": args.per_segment}
    path = _write_csv(args.out, "dmt_curves.csv", "dmt", meta, "r_n,l,r,d,scheme" + exact, rows)
    print(f"wrote {path} ({len(grid)} grid points x 4 schemes) in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    workers = _workers(args)
    cfg_raw = _gather(args)
    cfg = _link(cfg_raw)
    r_n = _require(cfg_raw, "r_n")
    etas = _require(cfg_raw, "eta_db_list")
    trials = _require(cfg_raw, "trials")
    seed = _require(cfg_raw, "seed")
    if r_n * cfg.L >= cfg.min_antennas:
        print(
            f"note: r_n={r_n} is at or past min(M,N)/L={Fraction(cfg.min_antennas, cfg.L)}; "
            f"the first rate level cannot decode at high SNR, so the effective gain "
            f"collapses to later segments (prefer L < min(M,N)/r_n)",
            file=sys.stderr,
        )
    start = time.perf_counter()
    records = simulate.run_rateless_experiment(cfg, float(r_n), etas, trials, seed, workers=workers)
    rows = (
        (rec.eta.eta_db, l, rec.p_hat[l], rec.stderr[l], rec.trials, rec.r_bar, rec.r_hat, seed)
        for rec in records
        for l in range(rec.L + 1)
    )
    meta = {"M": cfg.M, "N": cfg.N, "L": cfg.L, "r_n": r_n}
    meta.update(eta_db_list=[eta.eta_db for eta in etas], trials=trials, seed=seed)
    columns = "eta_db,l,p_hat,stderr,trials,r_bar,r_hat,seed"
    path = _write_csv(args.out, "simulate_results.csv", "simulate", meta, columns, rows)
    print(f"wrote {path} ({len(records)} SNR points) in {time.perf_counter() - start:.2f}s")
    for l in range(1, cfg.L + 1):
        short = [int(rec.stop_hist[l:].sum()) for rec in records]  # still short after block l
        usable = [rec for rec, s in zip(records, short) if min(s, rec.trials - s) >= MIN_SLOPE_EVENTS]
        if len(usable) < 2:
            print(f"  p({l}): too few usable points for a slope fit")
            continue
        slope = simulate.diversity_slope(
            [rec.eta for rec in usable], [-math.log2(rec.p_hat[l]) for rec in usable]
        )
        slope = round(slope, 3) + 0.0  # a slope that rounds to zero prints 0.000, not -0.000
        limit = float(tradeoff.tradeoff_f(cfg.M, cfg.N, cfg.L * r_n / l))
        print(f"  p({l}): fitted slope {slope:.3f}, analytic limit {limit:.3f}")
    return 0


def cmd_codes(args: argparse.Namespace) -> int:
    workers = _workers(args)
    cfg_raw = _gather(args)
    for key in ("M", "N"):
        _pinned(cfg_raw, key, 1, "codes are SISO")
    etas = _require(cfg_raw, "eta_db_list")
    trials = _require(cfg_raw, "trials")
    seed = _require(cfg_raw, "seed")
    if "budget" in cfg_raw and (args.codebook or args.identity):
        raise ConfigError("`budget` sets the code search, which --codebook and --identity skip")
    budget = _optional(cfg_raw, "budget", permcode.DEFAULT_SEARCH_BUDGET)
    start = time.perf_counter()
    if args.codebook:
        try:
            code = permcode.load_codebook(args.codebook)
        except OSError as exc:
            raise ConfigError(f"cannot read codebook `{args.codebook}`: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"codebook `{args.codebook}`: {exc}") from None
        for key in ("L", "bits"):
            _pinned(cfg_raw, key, getattr(code, key), "as in the codebook")
    else:
        L = _require(cfg_raw, "L")
        bits = _require(cfg_raw, "bits")
        if args.identity:
            code = permcode.identity_code(L, bits)
        else:
            code, per_prefix = permcode.search_permutation_code(L, bits, budget=budget, seed=seed)
            print(
                "search: per-prefix min product distances "
                + ", ".join(f"l={l + 1}: {d:.6g}" for l, d in enumerate(per_prefix))
            )

    results = [
        permcode.run_rateless_code_trials(code, eta, trials, seed, workers=workers) for eta in etas
    ]
    book_path = _open_out(args.out, "codebook.txt")
    permcode.save_codebook(code, str(book_path))
    rows = (
        (res.eta.eta_db, l, res.joint_err[l - 1], res.joint_stderr[l - 1], res.p_e,
         res.cond_err_nonoutage, seed)
        for res in results
        for l in range(1, res.L + 1)
    )
    meta = {"L": code.L, "bits": code.bits, "R": code.bits / code.L, "codebook": book_path.name}
    meta.update(eta_db_list=[eta.eta_db for eta in etas], trials=trials, seed=seed)
    columns = "eta_db,l,joint_err,stderr,p_e,cond_err_nonoutage,seed"
    csv_path = _write_csv(args.out, "code_trials.csv", "codes", meta, columns, rows)
    print(f"wrote {book_path} and {csv_path} in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _optional(_gather(args), "seed", verify.DEFAULT_SEED)
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise ConfigError(f"value for `tol-scale` out of range (finite, > 0): {args.tol_scale}")
    results = verify.run_all(seed=seed, tol_scale=args.tol_scale)
    print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


# flags that are not config keys
_FLAGS = {
    "config": dict(help="flat key=value config file"),
    "out": dict(default=".", help="output directory (default: .)"),
    "workers": dict(type=int, default=1, help="worker threads (default 1)"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the flags of the named config keys and `_FLAGS` entries."""
    for name in names:
        if name in CONFIG_KEYS:
            spec = CONFIG_KEYS[name]
            parser.add_argument(spec.flag, dest=name, help=spec.help)
        else:
            parser.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rateless-dmt",
        description="Tradeoff curves and Monte Carlo experiments for rateless coding "
        "over MIMO block-fading channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dmt = sub.add_parser("dmt", help="write analytic tradeoff curves")
    _add_flags(p_dmt, "config", "out", "M", "N", "L")
    p_dmt.add_argument(
        "--per-segment",
        type=int,
        default=tradeoff.DEFAULT_POINTS_PER_SEGMENT,
        help="grid points per rate-level segment",
    )
    p_dmt.add_argument("--exact", action="store_true", help="append exact p/q columns")
    p_dmt.set_defaults(func=cmd_dmt)

    p_sim = sub.add_parser("simulate", help="Monte Carlo outage and rate estimation")
    _add_flags(
        p_sim, "config", "out", "workers", "M", "N", "L", "r_n", "eta_db_list", "trials", "seed"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_codes = sub.add_parser("codes", help="build a SISO permutation codebook and measure errors")
    _add_flags(
        p_codes, "config", "out", "workers", "L", "bits", "budget", "eta_db_list", "trials", "seed"
    )
    source = p_codes.add_mutually_exclusive_group()
    source.add_argument("--codebook", default=None, help="load this codebook instead of searching")
    source.add_argument(
        "--identity", action="store_true", help="use the repetition baseline, skip the search"
    )
    p_codes.set_defaults(func=cmd_codes)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    _add_flags(p_verify, "seed")
    p_verify.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        help="multiply statistical tolerances (tighten < 1 < loosen)",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
