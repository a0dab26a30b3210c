"""Self-tests of the benchmark on a tiny market (n=60, m=45).

m=45 gives each year three calendar months, the fewest that give the
metrics stage the two monthly returns beta needs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

TINY = bench_run.Workload("tiny", 60, 45, 2, "backtest", 5, (5, 10), (2020,))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_session():
    """One set-up, one untraced and one traced CLI run of the tiny market."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench_run, "SETUP_REPEATS", 1)
        session = bench_run.Session(TINY, 3, ROOT)
        try:
            plain, traced, facts = session.run(0.0, trace=True)
        finally:
            session.close()
    return session, plain, traced, facts


@pytest.fixture
def tiny_outputs(tmp_path):
    """Outputs of one untraced CLI run, kept on disk."""
    env = bench_run.child_env(ROOT)
    inputs, outdir = tmp_path / "inputs", tmp_path / "out"
    setup = ["setup", "--outdir", str(inputs), "--n-stocks", "60", "--m-days", "45",
             "--n-years", "2", "--seed", "3"]
    assert bench_run.run_child(setup, env, tmp_path, 120)[2] == 0
    cli = ["cli", "--", *TINY.cli_args(inputs, outdir)]
    assert bench_run.run_child(cli, env, tmp_path, 120)[2] == 0
    return outdir, verify.QuoteFacts(inputs / "quotes.csv")


def _assert_emitted(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"] and m["unit"]
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]


def test_every_end_to_end_metric_emitted_with_unit(monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(bench_run.WORKLOADS, "tiny", TINY)
    monkeypatch.chdir(ROOT)
    assert bench_run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    *_, report_line, result_line = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_emitted(result["metrics"], SPEC["end_to_end"])
    report = json.loads(report_line)["report"]
    assert report["seed"] == 3 and not report["golden_checked"]
    assert {"nproc", "python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS"} <= set(report["env"])


def test_every_per_layer_metric_emitted_with_unit(traced_session):
    session, plain, traced, facts = traced_session
    assert not any(s.errors for s in plain + traced)
    values = bench_run.per_layer(plain, traced, session.setups, facts)
    _assert_emitted(bench_run.emit(values, SPEC["per_layer"]), SPEC["per_layer"])
    assert values["trace.absent_functions"] == 0
    assert values["selection.calls"] >= 2 and values["indexcalc.series_calls"] == 2


def test_span_self_times_sum_to_their_root(traced_session):
    _, _, traced, facts = traced_session
    spans = traced[0].trace["spans"]
    selfs = tracing.self_times(spans)
    assert all(s >= 0 for s in selfs)

    def subtree_self(i):
        return selfs[i] + sum(subtree_self(j) for j, s in enumerate(spans) if s["parent"] == i)

    roots = tracing.root_indices(spans)
    assert {spans[i]["name"] for i in roots} == {tracing.IMPORT_SPAN, tracing.ROOT_SPAN}
    for i in roots:
        assert subtree_self(i) == pytest.approx(spans[i]["end"] - spans[i]["start"], rel=1e-9)
    # the self-time metrics partition the root span
    main = next(spans[i] for i in roots if spans[i]["name"] == tracing.ROOT_SPAN)
    values = tracing.layer_metrics(spans, facts.rows, facts.universe)
    buckets = {bucket for _, _, bucket in tracing.PLAN}
    assert sum(values[b] for b in buckets) == pytest.approx(main["end"] - main["start"], rel=1e-9)


def test_absent_functions_are_reported_not_fatal():
    plan = (("cli", "no_such_function", "cli.glue_s"), ("no_such_module", "f", "cli.glue_s"))
    assert tracing.Tracer().install(plan) == ["cli.no_such_function", "no_such_module.f"]


def test_checker_rejects_corrupted_constituent_file(tiny_outputs):
    outdir, facts = tiny_outputs
    golden = verify.digests(outdir, TINY)
    assert verify.check_outputs(outdir, TINY, facts, golden) == []

    path = outdir / "2020" / "constituents_010.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[1] = lines[1].split(",")[1]  # the second member repeats the first ticker
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")

    assert any("10 rows" in e for e in verify.check_outputs(outdir, TINY, facts, None))
    assert any("digest" in e for e in verify.check_outputs(outdir, TINY, facts, golden))


def test_checker_rejects_unquoted_ticker_and_shifted_base(tiny_outputs):
    outdir, facts = tiny_outputs
    path = outdir / "2020" / "constituents_005.csv"
    path.write_text(path.read_text().replace(path.read_text().splitlines()[1].split(",")[1], "ZZZZ"))
    series = outdir / "2020" / "index_005_2021.csv"
    lines = series.read_text().splitlines()
    row = lines[1].split(",")
    row[1] = "1000.5"
    lines[1] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    errors = verify.check_outputs(outdir, TINY, facts, None)
    assert any("not quoted" in e for e in errors)
    assert any("first level" in e for e in errors)


def test_tail_has_ten_samples_beyond_it():
    assert bench_run.quantile_tail([float(v) for v in range(1, 21)]) == 10.0
    assert bench_run.quantile_tail([3.0, 1.0, 2.0]) == 3.0
