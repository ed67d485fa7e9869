#!/usr/bin/env python3
"""Emit the two reference tradeoff-curve datasets.

Writes `dmt_2x2_L2.csv` (rateless doubles the gain on its only useful
segment) and `dmt_3x3_L4.csv` (the four-segment sawtooth), each with the
rateless, conventional, and both parallel-channel baselines. Plot r vs d
per scheme with any tool.
"""

import argparse
from pathlib import Path

from rateless_dmt import (
    RatelessConfig,
    default_r_n_grid,
    dmt_curves,
    write_curves_csv,
)


def emit(cfg: RatelessConfig, path: Path, per_segment: int) -> None:
    grid = default_r_n_grid(cfg, per_segment)
    curves = dmt_curves(cfg, grid)
    meta = {"M": cfg.M, "N": cfg.N, "L": cfg.L, "per_segment": per_segment}
    with open(path, "w", newline="") as f:
        write_curves_csv(f, curves, exact=True, metadata=meta)
    print(f"wrote {path} ({len(grid)} r_n values per scheme)")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--per-segment", type=int, default=512)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit(RatelessConfig(2, 2, L=2), out / "dmt_2x2_L2.csv", args.per_segment)
    emit(RatelessConfig(3, 3, L=4), out / "dmt_3x3_L4.csv", args.per_segment)


if __name__ == "__main__":
    main()
