"""Outside-in benchmark of the rateless_dmt Monte Carlo pipeline.

    python3 perfbench/run.py --workload outage-siso --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from `src/` and driven
only through `rateless_dmt.cli.main` (README-style argument lists) and
`permcode.search_permutation_code`. With `--trace 0` the run times untraced
passes and reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it adds passes under `tracing.Tracer` and reports the per-layer
metrics. Each run checks the outputs against closed-form oracles and byte
for byte across worker counts, prints its detail lines, writes a result file
under `.perfbench/results/`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # minimum per --trace 0 run; each timing round adds one
TARGET_RELERR = 0.01

# ROADMAP baseline rows: (label, entry span, tag, note, hand-measured figure)
BASELINE_ROWS = {
    "outage-siso": [
        ("outage SISO L=2, 10-40 dB", "simulate.run_rateless_experiment", "1x1", "", "5.5-6.0 M/s"),
    ],
    "outage-mimo": [
        ("outage 2x2 L=2, 10-40 dB", "simulate.run_rateless_experiment", "2x2", "", "0.77 M/s"),
        ("outage 4x4 L=4, 10-40 dB", "simulate.run_rateless_experiment", "4x4", "", "0.30 M/s"),
        ("outage 1x4 L=2, 10-40 dB", "simulate.run_rateless_experiment", "1x4", "", "0.73 M/s"),
        ("outage 4x1 L=2, 10-40 dB", "simulate.run_rateless_experiment", "4x1", "", "2.11 M/s"),
    ],
    "codes": [
        (f"code trials L=2 {b} at {db} dB", "permcode.run_rateless_code_trials", b, f"{db} dB", fig)
        for b, fig in (("b2", "2.2 M/s"), ("b8", "0.14 M/s (0.10 at 20 dB)"))
        for db in (20, 30, 40)
    ],
}


class BenchError(Exception):
    """The program or the benchmark's own set-up failed; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("outage-siso", "outage-mimo", "codes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to keep timing passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials-scale", type=float, default=1.0,
                   help="multiply every call's trials (the smoke tests use a small value)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts(seed: int) -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "seed": seed,
    }
    facts.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        pass
    for index in range(8):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            size = (cache / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}_cache"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    return facts


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(cli, calls, workers: int, out_dir: Path) -> tuple[float, dict[str, str]]:
    """Issue every call once; return summed call wall time and CSV digests."""
    wall = 0.0
    digests = {}
    for call in calls:
        out = out_dir / call.label
        argv = list(call.argv) + ["--workers", str(workers), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall += time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"`rateless-dmt {' '.join(argv)}` exited with {code}")
        digests[call.label] = sha256(out / call.csv_name)
    return wall, digests


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process pays before the first call: imports and inputs."""
    import workloads
    from rateless_dmt import permcode

    wl = workloads.WORKLOADS[workload]
    # codebook paths only enter the argument lists; the files are not read here
    wl.calls(seed, {label: WORK / label for label, *_ in wl.plan})
    if workload == "codes":
        permcode.identity_code(workloads.CODE_L, workloads.IDENTITY_BITS).symbol_table


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh process that imports the package and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def oracle_cells(wl, calls, ref_dir: Path, captured) -> list:
    """Every checkable Monte Carlo cell of the reference pass, with its oracle."""
    from oracles import Cell, rank_one_outage, read_rows
    from rateless_dmt.simulate import SnrPoint, siso_outage_closed_form
    from workloads import R_N

    cells = []
    if wl.name == "codes":
        for res in captured:
            L = len(res.errors.joint_err)
            bits = round(res.R * L)
            stops = res.errors.stop_hist
            for l in range(1, L + 1):
                short = res.errors.trials - int(stops[:l].sum())
                p = siso_outage_closed_form(res.eta, L * res.R / l)
                cells.append(Cell(f"b{bits} {res.eta.eta_db:g} dB p({l})", short, res.errors.trials, p))
        return cells
    for call in calls:
        M, N, L = call.dims
        if min(M, N) != 1:
            continue  # no closed form for 2x2 and 4x4
        for row in read_rows(ref_dir / call.label / call.csv_name):
            l = int(row["l"])
            if l == 0:
                continue
            eta = SnrPoint.from_db(float(row["eta_db"]))
            n = int(row["trials"])
            threshold = L * float(R_N) * eta.log2_eta / l  # l * I_b < L * R
            if M == N == 1:
                p = siso_outage_closed_form(eta, threshold)
            else:
                p = rank_one_outage(M, N, eta.eta_linear, threshold)
            cells.append(Cell(f"{call.label} {eta.eta_db:g} dB p({l})",
                              round(float(row["p_hat"]) * n), n, p))
    return cells


def target_relerr(wl, calls, ref_dir: Path) -> tuple[float, int, int]:
    """Relative standard error of the workload's target cell in the reference pass."""
    from oracles import read_rows

    t = wl.target
    call = next(c for c in calls if c.label == t.label)
    for row in read_rows(ref_dir / call.label / call.csv_name):
        if float(row["eta_db"]) == t.eta_db and int(row["l"]) == t.l:
            n = call.per_snr
            count = round(float(row[t.column]) * n)
            if count == 0:
                raise BenchError(f"target cell {t} has no events")
            return math.sqrt((1.0 - count / n) / count), count, n
    raise BenchError(f"target cell {t} not found in {call.csv_name}")


def run(args) -> dict:
    import workloads
    from oracles import Gate
    from tracing import Tracer, patched
    from rateless_dmt import cli, permcode

    wl = workloads.WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    for key, value in facts.items():
        print(f"machine {key}: {value}")
    gate = Gate()
    tracer = Tracer() if args.trace else None
    report: dict = {"workload": wl.name, "trace": args.trace, "machine": facts}

    setup_times = []

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        traced_install = tracer.installed() if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with traced_install:
            codebooks = workloads.build_codebooks(args.seed, work) if wl.name == "codes" else {}
        search_s = time.perf_counter() - t0
        search_spans = tracer.take() if tracer else []
        calls = wl.calls(args.seed, codebooks, args.trials_scale)
        trials = sum(c.trials for c in calls)

        # Reference pass: warms caches and produces the outputs the gate checks.
        captured = []
        run_code_trials = permcode.run_rateless_code_trials

        def capture(*a, **k):
            captured.append(run_code_trials(*a, **k))
            return captured[-1]

        with patched(permcode, "run_rateless_code_trials", capture):
            _, ref = run_pass(cli, calls, 1, work / "ref")
        # Peak memory through set-up and one --workers 1 pass. The peak of the
        # --workers 2 passes depends on how the two threads' chunks overlap in
        # time, and varies by about 10% from run to run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate.cells(oracle_cells(wl, calls, work / "ref", captured))
        relerr, target_count, target_n = target_relerr(wl, calls, work / "ref")
        for label, digest in ref.items():
            print(f"sha256 {wl.name} {label} seed={args.seed}: {digest}")
        combined = hashlib.sha256("".join(ref[c.label] for c in calls).encode()).hexdigest()
        print(f"sha256 {wl.name} all seed={args.seed}: {combined}")

        walls = {1: [], 2: []}
        traced = []
        # Start another round only if it should end before the deadline.
        start = time.perf_counter()
        deadline = start + args.seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() + (time.perf_counter() - start) / rounds <= deadline:
            for workers in ((1, 2) if rounds % 2 == 0 else (2, 1)):
                wall, digests = run_pass(cli, calls, workers, work / f"w{workers}")
                walls[workers].append(wall)
                for label, digest in digests.items():
                    gate.check(f"{label} bytes workers={workers} round {rounds}", digest == ref[label])
            if not args.trace:
                # one fresh-process probe per round samples the machine's state across the run
                setup_times.append(time_setup(wl.name, args.seed))
            if tracer:
                with tracer.installed():
                    wall, digests = run_pass(cli, calls, 1, work / "traced")
                traced.append((wall, tracer.take()))
                for label, digest in digests.items():
                    gate.check(f"{label} bytes traced round {rounds}", digest == ref[label])
            rounds += 1
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(time_setup(wl.name, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    w1 = statistics.median(walls[1])
    w2 = statistics.median(walls[2])
    report.update({
        "rounds": rounds, "trials_per_pass": trials, "walls_w1": walls[1], "walls_w2": walls[2],
        "search_s": search_s, "digests": ref, "digest_all": combined,
        "target": {"cell": vars(wl.target), "count": target_count, "trials": target_n, "relerr": relerr},
    })
    print(f"passes: {rounds} per worker count, {trials} trials each; "
          f"w1 walls {_fmt(walls[1])}; w2 walls {_fmt(walls[2])}")
    print(f"target cell {wl.target.label} {wl.target.eta_db:g} dB l={wl.target.l} "
          f"{wl.target.column}: {target_count}/{target_n} events, relerr {relerr:.4g}")
    if wl.name == "codes":
        print(f"search b6+b2 (default budget): {search_s:.3f} s")

    if not args.trace:
        metrics = {
            "trials_per_s": trials / w1,
            "trials_per_s_w2": trials / w2,
            "time_to_1pct_s": w1 * (relerr / TARGET_RELERR) ** 2,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        report["peak_rss_mb_all_passes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["setup_times"] = setup_times
    else:
        metrics = traced_metrics(wl, gate, traced, search_spans, report)
        metrics["rng.map_chunks.parallel_eff"] = w1 / (2.0 * w2)
        overhead = statistics.median(w for w, _ in traced) - w1
        report["tracing_overhead_s"] = overhead
        print(f"tracing overhead: {overhead:+.4f} s per pass ({overhead / w1:+.2%} of untraced w1 wall)")
        print(f"untraced workers=2: {trials / w2 / 1e6:.3f} M trials/s, "
              f"parallel efficiency {metrics['rng.map_chunks.parallel_eff']:.3f}"
              + ("   ROADMAP SISO workers=2: 7.8 M/s" if wl.name == "outage-siso" else ""))
    report["checks"] = gate.results
    report["check_fail_frac"] = gate.failed / gate.attempted
    for name, ok, detail in gate.results:
        if not ok:
            print(f"FAIL {name}: {detail}")
    print(f"checks: {gate.attempted - gate.failed}/{gate.attempted} passed "
          f"(check_fail_frac {report['check_fail_frac']:.4g})")
    return {"gate": gate, "metrics": metrics, "report": report}


def traced_metrics(wl, gate, traced, search_spans, report) -> dict[str, float]:
    """Medians over traced passes, the wall-time split, and the baseline table."""
    from tracing import entry_rates, pass_layers

    per_pass, splits, rates = [], [], []
    for wall, spans in traced:
        layers, split = pass_layers(spans, wall)
        per_pass.append(layers)
        splits.append((wall, split))
        rates.append(entry_rates(spans))
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["permcode.search_permutation_code.s"] = sum(
        s.dur for s in search_spans if s.name == "permcode.search_permutation_code")

    coverage = []
    for i, (wall, split) in enumerate(splits):
        parts_ok = all(v >= -1e-6 * wall for v in split.values())
        total = sum(split.values())
        gate.check(f"traced wall split adds up, pass {i}",
                   parts_ok and abs(total - wall) <= 1e-3 * wall,
                   f"parts {split} sum {total:.6f} vs wall {wall:.6f}")
        coverage.append((split["rng"] + split["kernel"]) / wall)
    cov = statistics.median(coverage)  # reported, not gated: it falls as the kernels get faster
    wall, split = splits[len(splits) // 2]
    print("wall split of a traced pass: " + ", ".join(f"{k} {v:.4f} s" for k, v in split.items())
          + f" (wall {wall:.4f} s; rng+kernel cover {cov:.2%})")
    report["traced_split"] = [{"wall": w, **s} for w, s in splits]
    report["coverage"] = cov

    rows = []
    for label, entry, tag, note, figure in BASELINE_ROWS[wl.name]:
        values = [r[(entry, tag, note)] for r in rates if (entry, tag, note) in r]
        rows.append((label, statistics.median(values) / 1e6 if values else math.nan, figure))
    if wl.name == "codes":
        rows.append(("code search L=2 b6, default budget (s)",
                     sum(s.dur for s in search_spans if s.tag == "b6"), "3.7 s"))
    for label, value, figure in rows:
        print(f"baseline {label:<42} measured {value:8.3f}   ROADMAP {figure}")
    report["baseline"] = rows
    return metrics


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process, so --workers is the only parallelism.
    # This must happen before numpy is imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rateless_dmt" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rateless_dmt

    if not Path(rateless_dmt.__file__).resolve().is_relative_to(SRC):
        print(f"error: rateless_dmt imported from {rateless_dmt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    report = out["report"]
    report["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    gate = out["gate"]
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
