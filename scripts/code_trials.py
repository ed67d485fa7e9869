#!/usr/bin/env python3
"""Search a permutation code, run rateless trials, report the decomposition.

Builds the best code found for (L, bits) and its repetition baseline,
runs both across an SNR grid with common random numbers, writes
codebooks and trial CSVs, and prints the universality-margin evidence.
"""

import argparse
from pathlib import Path

from rateless_dmt import (
    SnrPoint,
    identity_code,
    run_rateless_code_trials,
    save_codebook,
    search_permutation_code,
    universality_margin,
)
from rateless_dmt.permcode import write_trials_csv


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--L", type=int, default=2)
    ap.add_argument("--bits", type=int, default=3)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--eta-db", default="10,15,20,25,30")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    etas = [SnrPoint.from_db(float(d)) for d in args.eta_db.split(",")]
    R = args.bits / args.L  # the codebook's own rate, recorded in the CSV metadata

    searched, per_prefix = search_permutation_code(args.L, args.bits, seed=args.seed)
    baseline = identity_code(args.L, args.bits)
    print("searched per-prefix min product distances:", [f"{d:.4f}" for d in per_prefix])

    runs = {}
    for tag, code in (("searched", searched), ("identity", baseline)):
        save_codebook(code, str(out / f"codebook_{tag}.txt"))
        results = runs[tag] = [
            run_rateless_code_trials(code, eta, args.trials, args.seed, stream=i, workers=args.workers)
            for i, eta in enumerate(etas)
        ]
        path = out / f"code_trials_{tag}.csv"
        meta = {"L": args.L, "bits": args.bits, "R": R, "code": tag, "trials": args.trials}
        with open(path, "w", newline="") as f:
            write_trials_csv(f, results, args.seed, metadata=meta)
        print(f"{tag}: wrote {path}")
        for eta, res in zip(etas, results):
            print(
                f"  {eta.eta_db:5.1f} dB  P_e {res.errors.p_e:.3e}  "
                f"cond err (decoded) {res.errors.cond_err_nonoutage:.3e}  "
                f"outage {res.errors.stop_hist[-1] / args.trials:.3e}"
            )

    margin = universality_margin(runs["searched"])
    print("universality margin (searched):")
    print("  per-prefix decay exponents:", [f"{d:.3f}" for d in margin.prefix_decay])


if __name__ == "__main__":
    main()
