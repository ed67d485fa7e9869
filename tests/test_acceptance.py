"""Release gate: every verification criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion; `rateless-dmt verify` prints the same table.
"""

import re
from pathlib import Path

import pytest

from rateless_dmt import permcode, simulate, verify

GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_report.txt"

CRITERIA = [name for name, _, _ in verify.ALL_CHECKS]


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name, monkeypatch):
    # every check judges an estimator: it runs the Monte Carlo kernel or the ML decoder
    called = set()
    for module, attr in ((simulate, "stop_counts"), (permcode, "ml_decode")):
        def spy(*args, _attr=attr, _fn=getattr(module, attr), **kwargs):
            called.add(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    result = verify.run_check(name)
    print(result.line())
    assert result.passed, result.detail
    assert called, f"{name} runs neither simulate.stop_counts nor permcode.ml_decode"


@pytest.mark.parametrize("seed", [1, 2026])
def test_statistical_verdicts_stable_across_seeds(seed):
    # the most seed-sensitive checks keep their verdicts under reseeding
    for name in ("outage-oracle", "effective-gain", "permutation-code-trials"):
        result = verify.run_check(name, seed=seed)
        assert result.passed, f"{name} seed={seed}: {result.detail}"


def test_cli_verify_reports_all_criteria(capsys):
    from rateless_dmt.cli import main

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in CRITERIA:
        assert any(line.startswith(f"PASS  {name}") for line in out.splitlines()), name
    assert f"{len(CRITERIA)}/{len(CRITERIA)} checks passed" in out
    # verdict lines at the default seed are fixed; only the [x.xxs] timings vary
    untimed = re.sub(r"  \[\d+\.\d+s\]", "", out)
    assert untimed == GOLDEN_REPORT.read_text()
