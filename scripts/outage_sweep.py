#!/usr/bin/env python3
"""SISO rateless outage sweep with diversity-slope fits.

For each per-level gain r_n, estimates p(l) across an SNR grid, writes
the results CSV, and compares the fitted slope of -log2 p(l) against the
analytic exponent (1 - L r_n / l for the scalar channel). Expect finite
SNR bias: the fits sit a little below the limits.
"""

import argparse
import math
from pathlib import Path

from rateless_dmt import (
    RatelessConfig,
    SnrPoint,
    diversity_slope,
    run_rateless_experiment,
    tradeoff_f,
)
from rateless_dmt.simulate import write_experiment_csv


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--L", type=int, default=2)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--eta-db", default="10,20,30,40,50,60")
    ap.add_argument("--r-n", default="0.125,0.25,0.375")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = RatelessConfig(1, 1, args.L)
    etas = [SnrPoint.from_db(float(d)) for d in args.eta_db.split(",")]

    for r_n_raw in args.r_n.split(","):
        r_n = float(r_n_raw)
        records = run_rateless_experiment(
            cfg, r_n, etas, args.trials, args.seed, workers=args.workers
        )
        path = out / f"outage_rn{r_n_raw.strip()}.csv"
        meta = {"M": 1, "N": 1, "L": args.L, "r_n": r_n_raw.strip(), "trials": args.trials}
        with open(path, "w", newline="") as f:
            write_experiment_csv(f, records, args.seed, metadata=meta)
        print(f"r_n = {r_n}: wrote {path}")
        for l in range(1, args.L + 1):
            usable = [rec for rec in records if 0.0 < rec.p_hat[l] < 1.0]
            if len(usable) < 2:
                print(f"  p({l}): too few usable points for a slope fit")
                continue
            est = diversity_slope(
                [rec.eta for rec in usable], [-math.log2(rec.p_hat[l]) for rec in usable]
            )
            limit = float(tradeoff_f(1, 1, min(1, args.L * r_n / l)))
            print(
                f"  p({l}): fitted slope {est.slope:.3f} (secant {est.secant:.3f}), "
                f"analytic limit {limit:.3f}"
            )


if __name__ == "__main__":
    main()
