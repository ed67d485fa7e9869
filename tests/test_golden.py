"""Byte-for-byte regression of the README CLI examples at small trial counts.

Each directory under `tests/golden/` holds the files one CLI call wrote
(CSVs and `codebook.txt`). The test reruns the call and compares every
file's bytes, so a refactor of the Monte Carlo kernels cannot change a
single digit of output unnoticed.
"""

from pathlib import Path

import pytest

from rateless_dmt.cli import main

GOLDEN = Path(__file__).parent / "golden"

_OUTAGE = ["--L", "2", "--r-n", "0.25", "--eta-db", "10,20,30,40", "--trials", "20000", "--seed", "7"]
_CODES = ["--L", "2", "--eta-db", "20,30,40", "--trials", "20000", "--seed", "7"]
_FULL_RANK = ["--eta-db", "10,20,30", "--trials", "20000", "--seed", "7"]

CASES = {
    "dmt_2x2_L2_exact": ["dmt", "--M", "2", "--N", "2", "--L", "2", "--exact", "--per-segment", "16"],
    "dmt_3x3_L4": ["dmt", "--M", "3", "--N", "3", "--L", "4", "--per-segment", "4"],
    "simulate_1x1_L2": ["simulate", "--M", "1", "--N", "1", *_OUTAGE],
    "simulate_2x2_L2": ["simulate", "--M", "2", "--N", "2", *_OUTAGE],
    # Full rank beyond 2x2: a 3x2 link, and a 4x4 one whose trials stop at blocks 3 and 4.
    "simulate_3x2_L2": ["simulate", "--M", "3", "--N", "2", "--L", "2", "--r-n", "1", *_FULL_RANK],
    "simulate_4x4_L4": ["simulate", "--M", "4", "--N", "4", "--L", "4", "--r-n", "2.5", *_FULL_RANK],
    # Rank one with e_1 a sum of four terms, a = eta / 4, so the stop levels t_l / a are inexact,
    # and L = 3, so L R / l is not an integer at l = 2; 0 dB has R = 0, and 10 dB stops at every l.
    "simulate_4x1_L3": ["simulate", "--M", "4", "--N", "1", "--L", "3", "--r-n", "0.5", "--eta-db", "0,10,20,30",
                        "--trials", "20000", "--seed", "7"],
    "codes_searched_b2": ["codes", "--bits", "2", *_CODES],
    "codes_identity_b3": ["codes", "--bits", "3", "--identity", *_CODES],
    # Hill-climb search: the budget cuts every restart, and every restart stops at a local optimum.
    "codes_hillclimb_L3_b3": ["codes", "--L", "3", "--bits", "3", "--budget", "1600", *_CODES[2:]],
    "codes_hillclimb_L2_b4": ["codes", "--L", "2", "--bits", "4", "--budget", "20000", *_CODES[2:]],
    # Budgets where the codebook flips if each restart is cut one evaluation early (240)
    # or late (239), so the fixtures pin where the climb stops a restart.
    "codes_hillclimb_L3_b3_budget240": ["codes", "--L", "3", "--bits", "3", "--budget", "240", *_CODES[2:]],
    "codes_hillclimb_L3_b3_budget239": ["codes", "--L", "3", "--bits", "3", "--budget", "239", *_CODES[2:]],
    # Large codebooks, where the ML decoder runs on 64 and 256 messages.
    "codes_identity_b8": ["codes", "--bits", "8", "--identity", *_CODES],
    "codes_hillclimb_L2_b6": ["codes", "--L", "2", "--bits", "6", "--budget", "2000", *_CODES[2:]],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_bytes(case, tmp_path, capsys):
    assert main(CASES[case] + ["--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
