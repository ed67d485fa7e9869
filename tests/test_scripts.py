"""Smoke test: each experiment script runs end to end and writes its files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CASES = {
    "dmt_figures": (["--per-segment", "8"], ["dmt_2x2_L2.csv", "dmt_3x3_L4.csv"]),
    "outage_sweep": (
        ["--trials", "2000"],
        ["outage_rn0.125.csv", "outage_rn0.25.csv", "outage_rn0.375.csv"],
    ),
    "code_trials": (
        ["--trials", "2000"],
        [
            "code_trials_identity.csv",
            "code_trials_searched.csv",
            "codebook_identity.txt",
            "codebook_searched.txt",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_expected_files(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    args, files = CASES[name]
    module.main(args + ["--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for f in files:
        text = (tmp_path / f).read_text()
        assert text.strip(), f
    assert "wrote" in capsys.readouterr().out
