"""Tests of the benchmark itself: smoke runs and the correctness gate.

    python -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rateless_dmt import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 1 / 16  # every SNR point keeps two chunks and events in its target cell


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--trials-scale", str(SMOKE_SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    for m in SPEC["end_to_end"] if not trace else []:
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_without_package_source_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _reference_csv(tmp_path, workload: str, label: str):
    """Run one call of a workload at reduced trials; return its Call."""
    wl = workloads.WORKLOADS[workload]
    call = next(c for c in wl.calls(5, {}, SMOKE_SCALE) if c.label == label)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(call.argv) + ["--out", str(tmp_path / label)]) == 0
    return wl, call


def _perturb(path: Path, eta_db: str, l: str, factor: float) -> None:
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[header].strip().split(",")
    for i in range(header + 1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if cells[cols.index("eta_db")] == eta_db and cells[cols.index("l")] == l:
            p = cols.index("p_hat")
            cells[p] = repr(float(cells[p]) * factor)
            lines[i] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


# The 4x1 cell has ~100 events at this scale, so it needs the larger shift.
@pytest.mark.parametrize("workload,label,factor", [("outage-siso", "1x1", 1.3), ("outage-mimo", "4x1", 2.0)])
def test_gate_flags_a_perturbed_profile(tmp_path, workload, label, factor):
    wl, call = _reference_csv(tmp_path, workload, label)
    clean = oracles.Gate()
    clean.cells(run.oracle_cells(wl, [call], tmp_path, []))
    assert clean.attempted >= 8 and clean.failed == 0

    _perturb(tmp_path / label / call.csv_name, "10", "1", factor)
    perturbed = oracles.Gate()
    perturbed.cells(run.oracle_cells(wl, [call], tmp_path, []))
    assert perturbed.failed == 1
    assert [name for name, ok, _ in perturbed.results if not ok] == [f"{label} 10 dB p(1)"]


def test_binomial_p_value_matches_direct_sum():
    n, p = 40, 0.1
    pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    for k in (0, 2, 4, 9, 15):
        tail = sum(pmf[k:]) if k >= n * p else sum(pmf[: k + 1])
        assert oracles.binom_two_sided_p(k, n, p) == pytest.approx(min(1.0, 2 * tail), rel=1e-9)


def test_erlang_cdf_matches_closed_forms():
    for x in (1e-6, 0.3, 2.0, 9.0):
        assert oracles.erlang_cdf(1, x) == pytest.approx(-math.expm1(-x), rel=1e-12)
    for x in (0.3, 2.0, 9.0):
        assert oracles.erlang_cdf(2, x) == pytest.approx(1 - math.exp(-x) * (1 + x), rel=1e-12)
    # small x, where 1 - e^-x sum(...) would cancel: Pr(Gamma(k, 1) < x) ~ x^k / k!
    assert oracles.erlang_cdf(2, 1e-6) == pytest.approx(1e-12 / 2, rel=1e-5)
    assert oracles.erlang_cdf(4, 1e-3) == pytest.approx(1e-12 / 24, rel=1e-3)
