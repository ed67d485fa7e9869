"""The benchmark's three workloads, built from the seed as CLI argument lists.

Each workload is a closed loop with one client: one process issues one
`rateless_dmt.cli.main` call after another. Trial counts are powers of two
times the package's chunk size, so every SNR point splits into at least two
chunks and `--workers 2` has work to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from rateless_dmt import permcode

OUTAGE_SNRS_DB = (10, 20, 30, 40)
CODE_SNRS_DB = (20, 30, 40)
R_N = "0.25"
CODE_L = 2
SEARCHED_BITS = (6, 2)  # search order: the expensive one first
IDENTITY_BITS = 8
CHUNK = 1 << 16  # rng.DEFAULT_CHUNK


@dataclass(frozen=True)
class Call:
    """One CLI call. `label` is its shape (`2x2`) or code size (`b6`)."""

    label: str
    argv: tuple[str, ...]
    per_snr: int  # Monte Carlo trials at each SNR point
    trials: int  # summed over the call's SNR points
    csv_name: str
    dims: tuple[int, ...] = ()  # (M, N, L) of a simulate call


@dataclass(frozen=True)
class Target:
    """The cell whose relative standard error sets `time_to_1pct_s`.

    It is the smallest-probability CSV cell that had at least 1000 events
    when the benchmark was written, fixed here so that later changes are
    measured on the same cell.
    """

    label: str
    eta_db: float
    l: int
    column: str


@dataclass(frozen=True)
class Workload:
    name: str
    target: Target
    # (label, M, N, L, trials per SNR) for outage; (label, trials per SNR) for codes
    plan: tuple

    def calls(self, seed: int, codebooks: dict[str, Path], scale: float = 1.0) -> list[Call]:
        if self.name == "codes":
            return [_code_call(label, codebooks[label], _scaled(per_snr, scale), seed)
                    for label, per_snr in self.plan]
        return [_simulate_call(label, M, N, L, _scaled(per_snr, scale), seed)
                for label, M, N, L, per_snr in self.plan]


def _scaled(per_snr: int, scale: float) -> int:
    return max(1, int(per_snr * scale))


def _simulate_call(label: str, M: int, N: int, L: int, per_snr: int, seed: int) -> Call:
    argv = ("simulate", "--M", str(M), "--N", str(N), "--L", str(L), "--r-n", R_N,
            "--eta-db", ",".join(map(str, OUTAGE_SNRS_DB)),
            "--trials", str(per_snr), "--seed", str(seed))
    return Call(label, argv, per_snr, per_snr * len(OUTAGE_SNRS_DB), "simulate_results.csv", (M, N, L))


def _code_call(label: str, codebook: Path, per_snr: int, seed: int) -> Call:
    argv = ("codes", "--codebook", str(codebook), "--eta-db", ",".join(map(str, CODE_SNRS_DB)),
            "--trials", str(per_snr), "--seed", str(seed))
    return Call(label, argv, per_snr, per_snr * len(CODE_SNRS_DB), "code_trials.csv")


def build_codebooks(seed: int, out_dir: Path) -> dict[str, Path]:
    """Search the b6 and b2 codes at the default budget and write all three codebooks.

    `permcode.search_permutation_code` is looked up at call time, so a
    tracer that wraps it sees these calls.
    """
    codes = {}
    for bits in SEARCHED_BITS:
        codes[f"b{bits}"], _ = permcode.search_permutation_code(CODE_L, bits, seed=seed)
    codes[f"b{IDENTITY_BITS}"] = permcode.identity_code(CODE_L, IDENTITY_BITS)
    paths = {}
    for label, code in codes.items():
        paths[label] = out_dir / f"{label}.codebook.txt"
        permcode.save_codebook(code, str(paths[label]))
    return paths


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "outage-siso",
            Target("1x1", 40.0, 2, "p_hat"),
            (("1x1", 1, 1, 2, 32 * CHUNK),),
        ),
        Workload(
            "outage-mimo",
            Target("4x1", 10.0, 1, "p_hat"),
            (
                ("2x2", 2, 2, 2, 2 * CHUNK),
                ("1x4", 1, 4, 2, 2 * CHUNK),
                ("4x1", 4, 1, 2, 2 * CHUNK),
                ("4x4", 4, 4, 4, 2 * CHUNK),
            ),
        ),
        Workload(
            "codes",
            Target("b6", 30.0, 2, "joint_err"),
            # b8 decodes in chunks of 2^14 trials, so 2^16 per SNR is four chunks
            (("b6", 2 * CHUNK), ("b2", 4 * CHUNK), ("b8", CHUNK)),
        ),
    )
}
