"""Command-line front end: curve generation, simulation, codes, verification.

Subcommands: `dmt`, `simulate`, `codes`, `verify`. Options may come from
a flat key=value config file (`--config`); command-line flags override
file values. Every emitted file embeds the effective configuration as
`#` comment lines, so outputs are reproducible byte-for-byte from
(config, seed, tool version). Exit codes: 0 success, 1 verification
failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, permcode, simulate, tradeoff, verify
from .configs import AntennaConfig, RatelessConfig
from .simulate import SnrPoint

CONFIG_KEYS = (
    "M",
    "N",
    "L",
    "T",
    "r_n",
    "eta_db_list",
    "trials",
    "seed",
    "bits",
    "budget",
)


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


def parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
    """Merge config file values with flag overrides."""
    cfg = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = str(flag)
    return cfg


def _require(cfg: dict[str, str], key: str, parse, check=None, describe=""):
    if key not in cfg:
        raise ConfigError(f"missing required config key `{key}`")
    return _optional(cfg, key, parse, default=None, check=check, describe=describe)


def _optional(cfg: dict[str, str], key: str, parse, default, check=None, describe=""):
    if key not in cfg:
        return default
    try:
        value = parse(cfg[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"invalid value for `{key}`: {cfg[key]!r}") from None
    if check is not None and not check(value):
        hint = f" ({describe})" if describe else ""
        raise ConfigError(f"value for `{key}` out of range{hint}: {cfg[key]!r}")
    return value


def _parse_eta_list(raw: str) -> list[float]:
    values = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    for db in values:
        # the linear SNR must be a finite positive float: 4000 dB overflows, -4000 dB underflows
        try:
            linear = 10.0 ** (db / 10.0)
        except OverflowError:
            raise ValueError(f"{db} dB overflows") from None
        if not (math.isfinite(linear) and linear > 0):
            raise ValueError(f"{db} dB is not a finite positive SNR")
    return values


def _positive(x) -> bool:
    return x >= 1


def _nonnegative(x) -> bool:
    return x >= 0


def _open_out(out_dir: str, name: str):
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _metadata(mode: str, pairs: dict) -> dict:
    meta = {"mode": mode, "tool_version": __version__}
    meta.update(pairs)
    return meta


def cmd_dmt(args: argparse.Namespace) -> int:
    cfg_raw = _gather(args)
    M = _require(cfg_raw, "M", int, _positive, ">= 1")
    N = _require(cfg_raw, "N", int, _positive, ">= 1")
    L = _require(cfg_raw, "L", int, _positive, ">= 1")
    T = _optional(cfg_raw, "T", int, 1, _positive, ">= 1")
    if args.per_segment < 1:
        raise ConfigError(f"value for `per-segment` out of range: {args.per_segment}")
    cfg = RatelessConfig(AntennaConfig(M, N), L=L, T=T)
    start = time.perf_counter()
    grid = tradeoff.default_r_n_grid(cfg, args.per_segment)
    curves = tradeoff.dmt_curves(cfg, grid)
    path = _open_out(args.out, "dmt_curves.csv")
    meta = _metadata("dmt", {"M": M, "N": N, "L": L, "T": T, "per_segment": args.per_segment})
    with open(path, "w", newline="") as f:
        tradeoff.write_curves_csv(f, curves, exact=args.exact, metadata=meta)
    print(f"wrote {path} ({len(grid)} grid points x 4 schemes) in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg_raw = _gather(args)
    M = _require(cfg_raw, "M", int, _positive, ">= 1")
    N = _require(cfg_raw, "N", int, _positive, ">= 1")
    L = _require(cfg_raw, "L", int, _positive, ">= 1")
    T = _optional(cfg_raw, "T", int, 1, _positive, ">= 1")
    r_n = _require(cfg_raw, "r_n", Fraction, _nonnegative, ">= 0")
    eta_db = _require(cfg_raw, "eta_db_list", _parse_eta_list)
    trials = _require(cfg_raw, "trials", int, _positive, ">= 1")
    seed = _require(cfg_raw, "seed", int, _nonnegative, ">= 0")
    cfg = RatelessConfig(AntennaConfig(M, N), L=L, T=T)
    if r_n * L >= cfg.min_antennas:
        print(
            f"note: r_n={r_n} is at or past min(M,N)/L={Fraction(cfg.min_antennas, L)}; "
            f"the first rate level cannot decode at high SNR, so the effective gain "
            f"collapses to later segments (prefer L < min(M,N)/r_n)",
            file=sys.stderr,
        )
    start = time.perf_counter()
    etas = [SnrPoint.from_db(db) for db in eta_db]
    records = simulate.run_rateless_experiment(
        cfg, float(r_n), etas, trials, seed, workers=args.workers
    )
    path = _open_out(args.out, "simulate_results.csv")
    meta = _metadata(
        "simulate",
        {
            "M": M,
            "N": N,
            "L": L,
            "T": T,
            "r_n": r_n,
            "eta_db_list": ",".join(tradeoff.format_sig12(d) for d in eta_db),
            "trials": trials,
            "seed": seed,
        },
    )
    with open(path, "w", newline="") as f:
        simulate.write_experiment_csv(f, records, seed, metadata=meta)
    print(f"wrote {path} ({len(records)} SNR points) in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_codes(args: argparse.Namespace) -> int:
    cfg_raw = _gather(args)
    for key in ("M", "N", "T"):
        _optional(cfg_raw, key, int, 1, lambda v: v == 1, "codes are SISO with unit block length")
    eta_db = _require(cfg_raw, "eta_db_list", _parse_eta_list)
    trials = _require(cfg_raw, "trials", int, _positive, ">= 1")
    seed = _require(cfg_raw, "seed", int, _nonnegative, ">= 0")
    budget = _optional(
        cfg_raw, "budget", int, permcode.DEFAULT_SEARCH_BUDGET, _positive, ">= 1"
    )
    start = time.perf_counter()
    if args.codebook:
        try:
            code = permcode.load_codebook(args.codebook)
        except OSError as exc:
            raise ConfigError(f"cannot read codebook `{args.codebook}`: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"codebook `{args.codebook}`: {exc}") from None
        L, bits = code.L, code.bits
    else:
        L = _require(cfg_raw, "L", int, _positive, ">= 1")
        bits = _require(
            cfg_raw, "bits", int, lambda b: 1 <= b <= permcode.MAX_BITS,
            f"in 1..{permcode.MAX_BITS}",
        )
        if args.identity:
            code = permcode.identity_code(L, bits)
        else:
            code, per_prefix = permcode.search_permutation_code(L, bits, budget=budget, seed=seed)
            print(
                "search: per-prefix min product distances "
                + ", ".join(f"l={l + 1}: {d:.6g}" for l, d in enumerate(per_prefix))
            )

    etas = [SnrPoint.from_db(db) for db in eta_db]
    results = [
        permcode.run_rateless_code_trials(code, eta, trials, seed, stream=i, workers=args.workers)
        for i, eta in enumerate(etas)
    ]
    book_path = _open_out(args.out, "codebook.txt")
    permcode.save_codebook(code, str(book_path))
    csv_path = _open_out(args.out, "code_trials.csv")
    meta = _metadata(
        "codes",
        {
            "L": L,
            "bits": bits,
            "R": tradeoff.format_sig12(code.bits / code.L),
            "eta_db_list": ",".join(tradeoff.format_sig12(d) for d in eta_db),
            "trials": trials,
            "seed": seed,
            "codebook": book_path.name,
        },
    )
    with open(csv_path, "w", newline="") as f:
        permcode.write_trials_csv(f, results, seed, metadata=meta)
    print(f"wrote {book_path} and {csv_path} in {time.perf_counter() - start:.2f}s")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else verify.DEFAULT_SEED
    if seed < 0:
        raise ConfigError(f"value for `seed` out of range (>= 0): {seed}")
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise ConfigError(f"value for `tol-scale` out of range (finite, > 0): {args.tol_scale}")
    results = verify.run_all(seed=seed, tol_scale=args.tol_scale)
    print(verify.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rateless-dmt",
        description="Tradeoff curves and Monte Carlo experiments for rateless coding "
        "over MIMO block-fading channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
    common.add_argument(
        "--eta-db", dest="eta_db_list", default=None, help="comma-separated SNR list in dB"
    )
    common.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")

    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--M", type=int, default=None, help="transmit antennas")
    dims.add_argument("--N", type=int, default=None, help="receive antennas")
    dims.add_argument("--L", type=int, default=None, help="blocks per codeword")
    dims.add_argument("--T", type=int, default=None, help="channel uses per block")

    sub = parser.add_subparsers(dest="command", required=True)

    p_dmt = sub.add_parser("dmt", parents=[common, dims], help="write analytic tradeoff curves")
    p_dmt.add_argument(
        "--per-segment",
        type=int,
        default=tradeoff.DEFAULT_POINTS_PER_SEGMENT,
        help="grid points per rate-level segment",
    )
    p_dmt.add_argument("--exact", action="store_true", help="append exact p/q columns")
    p_dmt.set_defaults(func=cmd_dmt)

    p_sim = sub.add_parser(
        "simulate", parents=[common, dims], help="Monte Carlo outage and rate estimation"
    )
    p_sim.add_argument("--r-n", dest="r_n", default=None, help="per-level multiplexing gain")
    p_sim.set_defaults(func=cmd_simulate)

    p_codes = sub.add_parser(
        "codes", parents=[common], help="build a SISO permutation codebook and measure errors"
    )
    p_codes.add_argument("--L", type=int, default=None, help="blocks per codeword")
    p_codes.add_argument("--bits", type=int, default=None, help="codebook size exponent")
    p_codes.add_argument("--budget", type=int, default=None, help="search evaluation budget")
    p_codes.add_argument("--codebook", default=None, help="load this codebook instead of searching")
    p_codes.add_argument(
        "--identity", action="store_true", help="use the repetition baseline, skip the search"
    )
    p_codes.set_defaults(func=cmd_codes)

    p_verify = sub.add_parser("verify", parents=[common], help="run the verification suite")
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
        if args.workers < 1:
            raise ConfigError(f"value for `workers` out of range (>= 1): {args.workers}")
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
