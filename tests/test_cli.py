"""End-to-end CLI behavior: files, exit codes, determinism, validation."""

import math
from pathlib import Path

import pytest

from rateless_dmt import SnrPoint, rank_one_outage
from rateless_dmt.cli import main
from rateless_dmt.permcode import codebook_text, identity_code, load_codebook, prefix_min_products
from rateless_dmt.verify import exact_cells

GOLDEN = Path(__file__).parent / "golden"


def _read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_dmt_writes_segment_one_values(tmp_path):
    assert main(["dmt", "--M", "2", "--N", "2", "--L", "2", "--out", str(tmp_path)]) == 0
    rows = _read_rows(tmp_path / "dmt_curves.csv")
    hit = [r for r in rows if r["scheme"] == "rateless" and r["r_n"] == "0.5"]
    assert len(hit) == 1
    assert hit[0]["r"] == "1" and hit[0]["d"] == "2.5" and hit[0]["l"] == "1"


def test_dmt_four_segment_breaks(tmp_path):
    assert main(["dmt", "--M", "3", "--N", "3", "--L", "4", "--out", str(tmp_path)]) == 0
    rows = [r for r in _read_rows(tmp_path / "dmt_curves.csv") if r["scheme"] == "rateless"]
    seg_of = {r["r_n"]: r["l"] for r in rows}
    assert {r["l"] for r in rows} == {"0", "1", "2", "3", "4"}
    assert seg_of["0.75"] == "2" and seg_of["1.5"] == "3" and seg_of["2.25"] == "4"


def test_dmt_missing_antenna_count_names_key(tmp_path, capsys):
    assert main(["dmt", "--N", "2", "--L", "2", "--out", str(tmp_path)]) == 2
    assert "`M`" in capsys.readouterr().err


def test_dmt_exact_columns_round_trip(tmp_path):
    assert main(
        ["dmt", "--M", "2", "--N", "2", "--L", "2", "--exact", "--per-segment", "8", "--out", str(tmp_path)]
    ) == 0
    rows = _read_rows(tmp_path / "dmt_curves.csv")
    assert rows and all("r_exact" in r for r in rows)


def test_simulate_reruns_byte_identical(tmp_path):
    args = [
        "simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25",
        "--eta-db", "20,30", "--trials", "20000", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "simulate_results.csv").read_bytes()
    b = (tmp_path / "b" / "simulate_results.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["simulate", "--M", "2", "--N", "2", "--L", "2", "--r-n", "0.25"], "simulate_results.csv"),
        (["codes", "--codebook", str(GOLDEN / "codes_searched_b2" / "codebook.txt")], "code_trials.csv"),
    ],
    ids=["simulate", "codes"],
)
def test_csv_bytes_do_not_depend_on_workers(tmp_path, argv, csv):
    # 140000 trials are three chunks of at most 2^16, so three workers share them
    run = argv + ["--eta-db", "10,20", "--trials", "140000", "--seed", "5"]
    for workers in (1, 3):
        assert main(run + ["--workers", str(workers), "--out", str(tmp_path / str(workers))]) == 0
    assert (tmp_path / "1" / csv).read_bytes() == (tmp_path / "3" / csv).read_bytes()


def test_simulate_matches_closed_form(tmp_path):
    assert main([
        "simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25",
        "--eta-db", "20", "--trials", "50000", "--seed", "4", "--out", str(tmp_path),
    ]) == 0
    rows = _read_rows(tmp_path / "simulate_results.csv")
    eta = SnrPoint(20.0)
    R = 0.25 * eta.log2_eta
    cells = []
    for row in rows:
        l = int(row["l"])
        if l == 0:
            assert float(row["p_hat"]) == 1.0
            continue
        n = int(row["trials"])
        oracle = rank_one_outage(1, 1, eta, 2 * R / l)[0]
        cells.append((f"p({l})", round(float(row["p_hat"]) * n), n, oracle))
    ok, detail = exact_cells(cells, tol_scale=1.0)
    assert len(cells) == 2 and ok, detail


def test_simulate_row_does_not_depend_on_its_grid_position(tmp_path):
    # every SNR evaluates the same fading draws, so a sweep row is the one-SNR run at that SNR
    run = ["simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25", "--trials", "20000", "--seed", "3"]
    rows = {}
    for grid in ("10,20,30", "20", "30"):
        assert main(run + ["--eta-db", grid, "--out", str(tmp_path / grid)]) == 0
        lines = (tmp_path / grid / "simulate_results.csv").read_text().splitlines()
        rows[grid] = [line for line in lines if not line.startswith("#")][1:]  # l = 0..2 per SNR
    assert rows["10,20,30"][3:] == rows["20"] + rows["30"]


def test_codes_row_does_not_depend_on_its_grid_position(tmp_path):
    # every SNR decodes the same messages, fading and noise, so a row is the one-SNR run at that SNR
    run = ["codes", "--L", "2", "--bits", "2", "--trials", "20000", "--seed", "3"]
    rows = {}
    for grid in ("20,30,40", "30", "40"):
        assert main(run + ["--eta-db", grid, "--out", str(tmp_path / grid)]) == 0
        lines = (tmp_path / grid / "code_trials.csv").read_text().splitlines()
        rows[grid] = [line for line in lines if not line.startswith("#")][1:]  # l = 1..2 per SNR
    assert rows["20,30,40"][2:] == rows["30"] + rows["40"]


def test_simulate_prints_slope_fit_against_analytic_limit(tmp_path, capsys):
    assert main([
        "simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25",
        "--eta-db", "10,20,30,40,50,60", "--trials", "20000", "--seed", "7", "--out", str(tmp_path),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    # limits f(1, 1, L r_n / l) = 1 - 0.5 / l; the exact slopes at these SNRs are 0.464 and 0.643.
    # p(2) fits 10..40 dB only: past 40 dB fewer than 10 of the 20000 trials are short
    assert lines[1:] == [
        "  p(1): fitted slope 0.443, analytic limit 0.500",
        "  p(2): fitted slope 0.626, analytic limit 0.750",
    ]


def test_simulate_slope_limit_is_mimo_f_and_needs_two_cells(tmp_path, capsys):
    mimo = ["simulate", "--M", "2", "--N", "2", "--L", "2", "--r-n", "0.75", "--trials", "20000"]
    assert main(mimo + ["--eta-db", "10,15,20,25", "--seed", "7", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # f(2, 2, 1.5) = 1 + 0.5 * (3 - 4) and f(2, 2, 0.75) = 4 + 0.75 * (1 - 4);
    # p(2) fits 10 and 15 dB only, the SNRs with at least 10 trials short after block 2
    assert "  p(1): fitted slope 0.226, analytic limit 0.500" in out
    assert "  p(2): fitted slope 1.005, analytic limit 1.750" in out
    assert main(mimo + ["--eta-db", "10", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"  p({l}): too few usable points for a slope fit" for l in (1, 2)
    ]
    # at r_n = 0.25, p(2) holds 1 of 20000 trials at each of 3, 6 and 9 dB, under the 10 a fit needs
    low = [arg if arg != "0.75" else "0.25" for arg in mimo]
    assert main(low + ["--eta-db", "3,6,9", "--seed", "13", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # p(1) holds 15, 20 and 15 events, so the fit is -1.5e-15; it prints 0.000, not -0.000
    assert lines[1] == "  p(1): fitted slope 0.000, analytic limit 2.500"
    assert lines[2] == "  p(2): too few usable points for a slope fit"


def test_simulate_validates_trials(tmp_path, capsys):
    assert main([
        "simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25",
        "--eta-db", "20", "--trials", "0", "--seed", "1", "--out", str(tmp_path),
    ]) == 2
    assert "`trials`" in capsys.readouterr().err


def test_simulate_hints_when_first_level_saturates(tmp_path, capsys):
    assert main([
        "simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.75",
        "--eta-db", "10", "--trials", "100", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    assert "min(M,N)" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment\nM = 1\nN = 1\nL = 2\nr_n = 0.25\n"
        "eta_db_list = 10,20\ntrials = 5000\nseed = 3\n"
    )
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag beats file: different seed changes the bytes
    assert main(["simulate", "--config", str(cfg), "--seed", "4", "--out", str(out2)]) == 0
    a = (out1 / "simulate_results.csv").read_text()
    b = (out2 / "simulate_results.csv").read_text()
    assert a != b
    assert "# seed=3" in a and "# seed=4" in b


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("M = 1\nwhat = 2\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "`what`" in capsys.readouterr().err


def test_codes_builds_decodable_codebook(tmp_path):
    assert main([
        "codes", "--L", "2", "--bits", "2", "--eta-db", "20,30",
        "--trials", "20000", "--seed", "11", "--out", str(tmp_path),
    ]) == 0
    code = load_codebook(str(tmp_path / "codebook.txt"))
    assert min(prefix_min_products(code)) > 0
    rows = _read_rows(tmp_path / "code_trials.csv")
    assert {r["eta_db"] for r in rows} == {"20", "30"}
    assert all(0.0 <= float(r["joint_err"]) <= 1.0 for r in rows)


def test_codes_load_save_identity(tmp_path):
    out1 = tmp_path / "first"
    assert main([
        "codes", "--L", "2", "--bits", "3", "--eta-db", "20",
        "--trials", "1000", "--seed", "2", "--out", str(out1),
    ]) == 0
    out2 = tmp_path / "second"
    assert main([
        "codes", "--codebook", str(out1 / "codebook.txt"), "--eta-db", "20",
        "--trials", "1000", "--seed", "2", "--out", str(out2),
    ]) == 0
    assert (out1 / "codebook.txt").read_bytes() == (out2 / "codebook.txt").read_bytes()
    assert (out1 / "code_trials.csv").read_bytes() == (out2 / "code_trials.csv").read_bytes()


def test_codes_rejects_bits_out_of_range(tmp_path, capsys):
    assert main([
        "codes", "--L", "2", "--bits", "9", "--eta-db", "20",
        "--trials", "100", "--seed", "1", "--out", str(tmp_path),
    ]) == 2
    assert "`bits`" in capsys.readouterr().err


def test_codes_reports_malformed_codebook_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n2\noops\n")
    assert main([
        "codes", "--codebook", str(bad), "--eta-db", "20",
        "--trials", "100", "--seed", "1", "--out", str(tmp_path),
    ]) == 2
    assert "line 3" in capsys.readouterr().err


def test_codes_rejects_non_finite_codebook_point(tmp_path, capsys):
    lines = codebook_text(identity_code(2, 2)).splitlines()
    lines[3] = "nan,0.0"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main([
        "codes", "--codebook", str(bad), "--eta-db", "20,30",
        "--trials", "20000", "--seed", "1", "--out", str(out),
    ]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


_CODE_RUN = ["--eta-db", "20", "--trials", "100", "--seed", "1"]
_CODES = ["codes", "--L", "2", "--bits", "2", *_CODE_RUN]


@pytest.mark.parametrize("flag", ["--M", "--N", "--T"])
def test_codes_has_no_antenna_or_block_length_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(_CODES + [flag, "4", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["M", "N"])
def test_codes_config_rejects_non_siso_dimensions(tmp_path, capsys, key):
    cfg = tmp_path / "codes.cfg"
    cfg.write_text(f"M = 1\nN = 1\n{key} = 4\n")
    out = tmp_path / "out"
    assert main(_CODES + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"`{key}`" in capsys.readouterr().err
    assert not out.exists()
    # the SISO values are accepted
    cfg.write_text("M = 1\nN = 1\n")
    assert main(_CODES + ["--config", str(cfg), "--out", str(out)]) == 0


def test_codes_identity_baseline(tmp_path):
    assert main([
        "codes", "--L", "2", "--bits", "2", "--identity", "--eta-db", "20",
        "--trials", "1000", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    code = load_codebook(str(tmp_path / "codebook.txt"))
    assert code.perms[0] == code.perms[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_verify_tightened_tolerances_fail(capsys):
    code = main(["verify", "--tol-scale", "1e-9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    # exactness checks have no statistical tolerance and still pass
    assert any(line.startswith("PASS  curve-2x2-L2") for line in out.splitlines())
    assert math.isfinite(float(out.splitlines()[-1].split("/")[0]))


_SIM = ["simulate", "--M", "1", "--N", "1", "--L", "2", "--r-n", "0.25", "--trials", "100"]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    argv = _SIM + ["--eta-db", "10", "--seed", "1", "--workers", workers, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "`workers`" in capsys.readouterr().err
    assert not (tmp_path / "simulate_results.csv").exists()


@pytest.mark.parametrize(
    "eta_db", ["4000", "inf", "-inf", "nan", "-4000", "10,4000", "10,10", "10,20,10"]
)
def test_eta_db_must_give_finite_positive_snr(tmp_path, capsys, eta_db):
    argv = _SIM + [f"--eta-db={eta_db}", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "`eta_db_list`" in capsys.readouterr().err
    assert not (tmp_path / "simulate_results.csv").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (_SIM + ["--eta-db", "10", "--seed", "-3"], "`seed`"),
        (["codes", "--L", "2", "--bits", "2", "--eta-db", "10", "--trials", "100", "--seed", "-3"], "`seed`"),
        (["verify", "--seed", "-1"], "`seed`"),
        (["verify", "--tol-scale", "-1"], "`tol-scale`"),
        (["verify", "--tol-scale", "0"], "`tol-scale`"),
        (["verify", "--tol-scale", "inf"], "`tol-scale`"),
        (["verify", "--tol-scale", "nan"], "`tol-scale`"),
    ],
)
def test_negative_seed_and_bad_tol_scale_rejected(tmp_path, capsys, argv, key):
    if argv[0] != "verify":  # verify writes no files and has no --out
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "PASS" not in captured.out and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dmt", "--M", "2", "--N", "2", "--L", "2", "--seed", "3"], "--seed"),
        (["dmt", "--M", "2", "--N", "2", "--L", "2", "--trials", "5"], "--trials"),
        (["dmt", "--M", "2", "--N", "2", "--L", "2", "--eta-db", "10"], "--eta-db"),
        (["dmt", "--M", "2", "--N", "2", "--L", "2", "--workers", "3"], "--workers"),
        (["dmt", "--M", "2", "--N", "2", "--L", "2", "--T", "1"], "--T"),
        (["verify", "--config", "sim.cfg"], "--config"),
        (["verify", "--out", "out"], "--out"),
        (["verify", "--trials", "5"], "--trials"),
        (["verify", "--eta-db", "10"], "--eta-db"),
        (["verify", "--workers", "3"], "--workers"),
        (_SIM + ["--eta-db", "10", "--seed", "1", "--T", "1"], "--T"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert "PASS" not in captured.out


def test_config_file_keys_are_shared_by_all_runs(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("M = 2\nN = 2\nL = 2\nr_n = 0.25\neta_db_list = 10\ntrials = 50\nseed = 5\n")
    assert main(["dmt", "--config", str(cfg), "--per-segment", "2", "--out", str(tmp_path)]) == 0
    assert "# M=2" in (tmp_path / "dmt_curves.csv").read_text()


@pytest.fixture
def saved_codebook(tmp_path):
    """A searched L=2, bits=2 codebook and the CSV a plain `codes --codebook` run writes from it."""
    assert main(_CODES + ["--out", str(tmp_path / "made")]) == 0
    book = tmp_path / "made" / "codebook.txt"
    ref = tmp_path / "ref"
    assert main(["codes", "--codebook", str(book), *_CODE_RUN, "--out", str(ref)]) == 0
    return book, (ref / "code_trials.csv").read_bytes()


@pytest.mark.parametrize(
    "extra, cfg_text, key",
    [
        (["--L", "5"], "", "`L`"),
        (["--bits", "7"], "", "`bits`"),
        ([], "L = 3\n", "`L`"),
        ([], "bits = 1\n", "`bits`"),
        (["--budget", "3"], "", "`budget`"),
        ([], "budget = 3\n", "`budget`"),
    ],
)
def test_codes_codebook_rejects_conflicting_keys(tmp_path, capsys, saved_codebook, extra, cfg_text, key):
    book, _ = saved_codebook
    cfg = tmp_path / "codes.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    argv = ["codes", "--codebook", str(book), *_CODE_RUN, "--config", str(cfg), *extra]
    assert main(argv + ["--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_codes_codebook_accepts_its_own_L_and_bits(tmp_path, saved_codebook):
    book, expected = saved_codebook
    cfg = tmp_path / "codes.cfg"
    cfg.write_text("L = 2\nbits = 2\n")
    out = tmp_path / "out"
    argv = ["codes", "--codebook", str(book), *_CODE_RUN, "--config", str(cfg), "--L", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert (out / "code_trials.csv").read_bytes() == expected


@pytest.mark.parametrize("from_config", [False, True])
def test_codes_identity_rejects_budget(tmp_path, capsys, from_config):
    cfg = tmp_path / "codes.cfg"
    cfg.write_text("budget = 3\n")
    budget = ["--config", str(cfg)] if from_config else ["--budget", "3"]
    assert main(_CODES + ["--identity", *budget, "--out", str(tmp_path / "out")]) == 2
    assert "`budget`" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_codes_codebook_and_identity_are_exclusive(tmp_path, capsys, saved_codebook):
    book, _ = saved_codebook
    with pytest.raises(SystemExit) as exc:
        main(["codes", "--codebook", str(book), "--identity", *_CODE_RUN, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
