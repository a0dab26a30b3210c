#!/usr/bin/env python3
"""Benchmark of the manifold-index pipeline: synth -> select -> index -> metrics.

    python3 bench/run.py --workload desk_backtest --seed 0 --seconds 20 --trace 0

Run it from the repository root.  Each run generates the workload's
synthetic market from ``--seed`` (timed as ``setup_s``, several times), then
runs the ``manifold-index`` CLI as a closed loop: one client, one invocation
at a time, each in a fresh child process, until ``--seconds`` have passed.
Every invocation's outputs are checked (see verify.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of the
traced ones (see tracing.py).  The last line of standard output is the
result object; the line before it is a report with the seed, the samples,
the environment and the output digests.  A readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import verify

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
WORK_DIR = ".bench_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
# Whole-run budget, set-up included; the loop starts no invocation that
# would not finish inside it.
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    n_stocks: int
    m_days: int
    n_years: int
    command: str  # "backtest" or "select"
    k: int
    n_list: tuple[int, ...]
    study_years: tuple[int, ...]

    def cli_args(self, inputs: Path, outdir: Path) -> list[str]:
        args = [
            self.command, "--quotes", str(inputs / "quotes.csv"), "--outdir", str(outdir),
            "--k", str(self.k), "--t", "auto", "--mode", "balanced",
            "--n-list", ",".join(map(str, self.n_list)),
        ]
        if self.command == "backtest":
            return args + [
                "--benchmark", str(inputs / "benchmark.csv"),
                "--start-year", str(self.study_years[0]),
                "--end-year", str(self.study_years[-1]),
            ]
        return args + ["--study-year", str(self.study_years[0])]


# Why each workload exists is in README.md; in short: desk is ingest-bound
# at the paper's scale, deep is solver-bound (four re-solves of a wide,
# short universe), rolling reloads a narrow file four times on the dense
# eigensolver path and is the only multi-year evaluation.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_backtest", 1500, 244, 2, "backtest", 10, (50, 100, 150, 180, 380), (2020,)),
        Workload("deep_spectrum", 3000, 61, 1, "select", 20, (300, 1200), (2020,)),
        Workload("rolling_backtest", 300, 244, 3, "backtest", 10, (10, 20, 40, 80), (2020, 2021)),
    )
}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    errors: list[str]
    trace: dict | None = None


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: the checkout's package first on the path,
    BLAS threads capped at the cores this process may use, fixed hashing."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, workdir: Path, timeout: float):
    """Run child.py to completion; return (wall s, max RSS MB, exit code,
    stdout, stderr).  The child is killed once ``timeout`` passes."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss / 1024,
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def quantile_tail(values: list[float]) -> float:
    """The highest value with at least ten samples above it; with fewer than
    eleven samples no such value exists and the maximum is reported."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


class Session:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.env = child_env(root)
        self.work = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.setups: list[dict] = []
        self.digests: dict[str, str] = {}
        self.inexact: list[str] = []
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self) -> None:
        w = self.workload
        args = [
            "setup", "--outdir", str(self.inputs), "--n-stocks", str(w.n_stocks),
            "--m-days", str(w.m_days), "--n-years", str(w.n_years), "--seed", str(self.seed),
        ]
        _, _, code, out, err = run_child(args, self.env, self.work, self.remaining())
        if code != 0:
            raise RuntimeError(f"set-up failed with exit {code}: {err.strip()[-500:]}")
        self.setups.append(json.loads(out.strip().splitlines()[-1]))

    def invoke(self, traced: bool, facts: verify.QuoteFacts, golden) -> Sample:
        self.count += 1
        outdir = self.work / f"run{self.count}"
        spans_path = self.work / f"spans{self.count}.json"
        args = ["cli"] + (["--spans", str(spans_path)] if traced else []) + ["--"]
        args += self.workload.cli_args(self.inputs, outdir)
        wall, rss, code, _, err = run_child(args, self.env, self.work, self.remaining())
        if code != 0:
            errors = [f"exit {code}: {(err.strip().splitlines() or [''])[-1]}"]
        else:
            errors = verify.check_outputs(outdir, self.workload, facts, golden)
            if not self.digests:
                self.digests = verify.digests(outdir, self.workload)
                self.inexact = verify.inexact_base_levels(outdir, self.workload)
        sample = Sample(wall, rss, errors)
        if traced and spans_path.is_file():
            sample.trace = json.loads(spans_path.read_text())
        shutil.rmtree(outdir, ignore_errors=True)
        return sample

    def run(self, seconds: float, trace: bool) -> tuple[list[Sample], list[Sample], verify.QuoteFacts]:
        self.work.mkdir(parents=True, exist_ok=True)
        for _ in range(SETUP_REPEATS):
            self.setup()
        facts = verify.QuoteFacts(self.inputs / "quotes.csv")
        golden = verify.load_golden(self.workload.name) if self.seed == DEFAULT_SEED else None
        plain: list[Sample] = []
        traced: list[Sample] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            plain.append(self.invoke(False, facts, golden))
            if trace:
                traced.append(self.invoke(True, facts, golden))
            now = time.perf_counter()
            if now - start >= seconds or 1.5 * (now - round_start) > self.remaining():
                return plain, traced, facts

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            self.work.parent.rmdir()


def end_to_end(plain: list[Sample], setups: list[dict], facts: verify.QuoteFacts, failed: int, attempted: int) -> dict:
    good = [s for s in plain if not s.errors] or plain
    walls = [s.wall_s for s in good]
    e2e = statistics.median(walls)
    return {
        "e2e_s": e2e,
        "e2e_tail_s": quantile_tail(walls),
        "setup_s": statistics.median(s["generate_s"] + s["write_s"] for s in setups),
        "quote_rows_per_s": facts.rows / e2e,
        "peak_rss_mb": statistics.median(s.rss_mb for s in good),
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain: list[Sample], traced: list[Sample], setups: list[dict], facts: verify.QuoteFacts) -> dict:
    runs = []
    for sample in traced:
        if sample.trace is None:
            continue
        spans = sample.trace["spans"]
        values = tracing.layer_metrics(spans, facts.rows, facts.universe)
        roots = [spans[i] for i in tracing.root_indices(spans)]
        main = sum(s["end"] - s["start"] for s in roots if s["name"] == tracing.ROOT_SPAN)
        values["cli.startup_s"] = sample.wall_s - main
        values["trace.coverage"] = sum(s["end"] - s["start"] for s in roots) / sample.wall_s
        values["trace.absent_functions"] = len(sample.trace["absent"])
        runs.append(values)
    if not runs:
        raise RuntimeError("no traced run produced spans")
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    out["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
    )
    out["synth.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    out["synth.write_s"] = statistics.median(s["write_s"] for s in setups)
    return out


def emit(values: dict, spec: list[dict]) -> dict:
    """Metric objects in the order and with the units ``spec`` names."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, report)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    session = Session(workload, seed, root)
    try:
        plain, traced, facts = session.run(seconds, trace)
    finally:
        session.close()
    samples = plain + traced
    failed = sum(1 for s in samples if s.errors)
    if trace:
        values = per_layer(plain, traced, session.setups, facts)
        metrics = emit(values, spec["per_layer"])
    else:
        values = end_to_end(plain, session.setups, facts, failed, len(samples))
        metrics = emit(values, spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "closed_loop": "1 client, 1 invocation at a time",
        "samples": len(plain),
        "traced_samples": len(traced),
        "wall_s": [s.wall_s for s in plain],
        "traced_wall_s": [s.wall_s for s in traced],
        "setup_s": [s["generate_s"] + s["write_s"] for s in session.setups],
        "error_rate": failed / len(samples),
        "errors": [e for s in samples for e in s.errors][:20],
        "golden_checked": seed == DEFAULT_SEED,
        "digests": session.digests,
        "inexact_base_levels": session.inexact,
        "absent_functions": traced[0].trace["absent"] if traced and traced[0].trace else [],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            **{var: session.env[var] for var in THREAD_VARS},
            **session.setups[0]["env"],
        },
        "quote_rows": facts.rows,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and waited
    # for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "manifold_index" / "cli.py").is_file():
        print("error: run from the repository root; src/manifold_index is missing", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json is missing from the current directory", file=sys.stderr)
        return 2

    result, report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    print(f"{args.workload} seed={args.seed}: {report['samples']} samples, "
          f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    for error in report["errors"]:
        print(f"  check failed: {error}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
