"""CLI orchestration: artifacts, re-runnability, determinism, diagnostics."""

import csv
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from manifold_index import cli, indexcalc, manifold, marketdata, selection, synth
from manifold_index.errors import ParameterError, ParseError
from test_selection import first_list, ordered
from test_synth import kill_the_writing_child


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def small_market(tmp_path_factory):
    """A small 2-year synthetic market shared by the pipeline tests.

    65 trading days per year span three calendar months, enough for two
    monthly returns (the minimum beta needs).
    """
    outdir = tmp_path_factory.mktemp("market")
    rc = run([
        "synth", "--outdir", str(outdir), "--seed", "9",
        "--n-stocks", "60", "--m-days", "65", "--n-sectors", "4",
        "--start-year", "2020", "--n-years", "2",
    ])
    assert rc == 0
    return outdir


class TestSynthCommand:
    def test_writes_quotes_and_benchmark(self, small_market):
        assert (small_market / "quotes.csv").exists()
        assert (small_market / "benchmark.csv").exists()
        header = (small_market / "quotes.csv").read_text().splitlines()[0]
        assert header == "date,ticker,close,shares_issued"

    def test_deterministic_across_runs(self, small_market, tmp_path):
        rc = run([
            "synth", "--outdir", str(tmp_path), "--seed", "9",
            "--n-stocks", "60", "--m-days", "65", "--n-sectors", "4",
            "--start-year", "2020", "--n-years", "2",
        ])
        assert rc == 0
        assert (tmp_path / "quotes.csv").read_bytes() == (small_market / "quotes.csv").read_bytes()
        assert (tmp_path / "benchmark.csv").read_bytes() == (small_market / "benchmark.csv").read_bytes()

    def test_child_that_dies_mid_write_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        kill_the_writing_child(monkeypatch)
        rc = run(["synth", "--outdir", str(tmp_path), "--n-stocks", "20", "--m-days", "20"])
        assert rc == 1
        staged = tmp_path / f".quotes.csv.{os.getpid()}.tmp"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {staged}: the quote write ended without a result"]
        assert list(tmp_path.iterdir()) == []  # no quotes.csv, benchmark.csv or temporary file

    def test_unwritable_quote_file_fails_before_the_fork(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "quotes.csv").mkdir()
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        rc = run(["synth", "--outdir", str(tmp_path), "--n-stocks", "20", "--m-days", "20"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno 21] Is a directory: '{tmp_path / 'quotes.csv'}'"]


class TestSelectCommand:
    def test_writes_one_csv_per_n(self, small_market, tmp_path):
        rc = run([
            "select", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--k", "6", "--n-list", "5,10",
        ])
        assert rc == 0
        for n in (5, 10):
            path = tmp_path / f"constituents_{n:03d}.csv"
            assert path.exists()
            assert len(path.read_text().splitlines()) == n + 1

    def test_single_constituent_boundary(self, small_market, tmp_path):
        rc = run([
            "select", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--k", "6", "--n-list", "1",
        ])
        assert rc == 0
        assert len((tmp_path / "constituents_001.csv").read_text().splitlines()) == 2

    def test_repeated_run_byte_identical(self, small_market, tmp_path):
        args = [
            "select", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--k", "6", "--n-list", "8",
        ]
        run(args + ["--outdir", str(tmp_path / "a")])
        run(args + ["--outdir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "constituents_008.csv").read_bytes()
        b = (tmp_path / "b" / "constituents_008.csv").read_bytes()
        assert a == b

    def test_missing_quote_file_is_clean_diagnostic(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.csv"
        rc = run([
            "select", "--quotes", str(missing), "--study-year", "2020",
            "--outdir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and str(missing) in err[0]

    def test_non_utf8_quote_file_names_line(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_bytes(b"date,ticker,close,shares_issued\n2020-01-02,AAA,1,2\n"
                           b"2020-01-03,A\xffA,1,2\n")
        rc = run([
            "select", "--quotes", str(quotes), "--study-year", "2020", "--outdir", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {quotes}:3: not UTF-8")

    def test_n_larger_than_universe_fails(self, small_market, tmp_path, capsys):
        rc = run([
            "select", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path / "out"),
            "--n-list", "500",
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1  # no progress line before the error
        assert err[0].startswith("error: requested N=500")
        assert not (tmp_path / "out").exists()  # a failing select writes nothing


@pytest.fixture(scope="module")
def artifacts(small_market, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("artifacts")
    run([
        "select", "--quotes", str(small_market / "quotes.csv"),
        "--study-year", "2020", "--outdir", str(workdir),
        "--k", "6", "--n-list", "5,10",
    ])
    rc = run([
        "index", "--quotes", str(small_market / "quotes.csv"),
        "--study-year", "2020", "--outdir", str(workdir),
        "--constituents",
        str(workdir / "constituents_005.csv"),
        str(workdir / "constituents_010.csv"),
    ])
    assert rc == 0
    return workdir


class TestIndexAndMetrics:
    def test_index_series_written(self, artifacts):
        series = artifacts / "index_005_2021.csv"
        assert series.exists()
        lines = series.read_text().splitlines()
        assert lines[0] == "date,level,divisor"
        assert len(lines) == 66  # 65 trading days + header
        first_level = float(lines[1].split(",")[1])
        assert first_level == pytest.approx(1000.0, abs=1e-9)

    def test_metrics_reports(self, small_market, artifacts, capsys):
        rc = run([
            "metrics", "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(artifacts),
            "--series",
            str(artifacts / "index_005_2021.csv"),
            str(artifacts / "index_010_2021.csv"),
        ])
        assert rc == 0
        lines = (artifacts / "metrics.csv").read_text().splitlines()
        assert lines[0] == "index_name,year,pearson,alpha,beta,jensen_alpha"
        assert len(lines) == 3
        stab = (artifacts / "stability.csv").read_text().splitlines()
        assert stab[0] == "scope,name,metric,std,mean_baseline_distance"
        assert any(line.startswith("year,2021,") for line in stab)

    def test_benchmark_against_itself(self, small_market, tmp_path):
        # feed the benchmark through metrics as if it were an index series
        from manifold_index import indexcalc, synth

        bench = synth.read_benchmark_csv(small_market / "benchmark.csv")
        bench_with_div = indexcalc.IndexSeries(
            dates=bench.dates, values=bench.values, divisors=np.ones(len(bench.dates))
        )
        series_path = tmp_path / "self.csv"
        indexcalc.write_series_csv(series_path, bench_with_div)
        rc = run([
            "metrics", "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path), "--series", str(series_path),
        ])
        assert rc == 0
        for line in (tmp_path / "metrics.csv").read_text().splitlines()[1:]:
            _, _, rho, alpha_, beta_, jalpha = line.split(",")
            assert float(rho) == pytest.approx(1.0, abs=1e-12)
            assert float(alpha_) == pytest.approx(0.0, abs=1e-15)
            assert float(beta_) == pytest.approx(1.0, abs=1e-12)
            assert float(jalpha) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_dates_alignment_error(self, artifacts, tmp_path, capsys):
        # benchmark lacking the series' year -> diagnostic, nonzero exit
        import datetime as dt

        from manifold_index import indexcalc, synth

        other = indexcalc.IndexSeries(
            dates=(dt.date(1999, 1, 4), dt.date(1999, 2, 5)), values=np.array([1.0, 2.0])
        )
        bench_path = tmp_path / "bench.csv"
        synth.write_benchmark_csv(bench_path, other)
        rc = run([
            "metrics", "--benchmark", str(bench_path),
            "--outdir", str(tmp_path),
            "--series", str(artifacts / "index_005_2021.csv"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_bad_benchmark_level_names_line(self, artifacts, tmp_path, capsys):
        bench_path = tmp_path / "bench.csv"
        bench_path.write_text("date,level\n2021-01-04,1000.0\n2021-01-05,abc\n")
        rc = run([
            "metrics", "--benchmark", str(bench_path), "--outdir", str(tmp_path),
            "--series", str(artifacts / "index_005_2021.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bench_path}:3:")

    def test_nonfinite_benchmark_level_names_line(self, artifacts, tmp_path, capsys):
        bench_path = tmp_path / "bench.csv"
        bench_path.write_text("date,level\n2021-01-04,1000.0\n2021-01-05,nan\n")
        rc = run([
            "metrics", "--benchmark", str(bench_path), "--outdir", str(tmp_path),
            "--series", str(artifacts / "index_005_2021.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bench_path}:3:")

    @pytest.mark.parametrize("rows, line", [
        ("2021-01-05,inf,0.5", 3),
        ("2021-01-05,1000.0,nan", 3),
        ("2021-01-05,1000.0", 3),  # short row
        ("\n2021-01-05,abc,0.5", 4),  # a blank line still counts
    ])
    def test_bad_series_row_names_line(self, small_market, tmp_path, capsys, rows, line):
        series_path = tmp_path / "index_005_2021.csv"
        series_path.write_text(f"date,level,divisor\n2021-01-04,1000.0,0.5\n{rows}\n")
        rc = run([
            "metrics", "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path), "--series", str(series_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {series_path}:{line}:")

    def test_constituents_without_ticker_column(self, small_market, tmp_path, capsys):
        cfile = tmp_path / "constituents_005.csv"
        cfile.write_text("rank,symbol\n1,S0001\n")
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--constituents", str(cfile),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfile}:1:")

    @pytest.mark.parametrize("rows, where, names", [
        ("1\n", ":2", "expected 2 fields, got 1"),
        ("1,\n", ":2", "no ticker"),
        ("1,S0001\n2,S0002\n3,S0001\n", ":4", "'S0001' repeats line 2"),
        ("", "", "no constituents"),
    ], ids=["short-row", "empty-ticker", "repeated-ticker", "header-only"])
    def test_bad_constituent_list_names_line(
        self, small_market, tmp_path, capsys, rows, where, names
    ):
        cfile = tmp_path / "constituents_005.csv"
        cfile.write_text(f"rank,ticker\n{rows}")
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--constituents", str(cfile),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfile}{where}: ") and names in err[0]

    @pytest.mark.parametrize("which", ["series", "benchmark"])
    @pytest.mark.parametrize("rows, where, names", [
        ("2021-01-05,1000.0{divisor}\n2021-01-05,1001.0{divisor}\n", ":3",
         "2021-01-05 does not follow"),
        ("2021-01-05,1000.0{divisor}\n2021-01-04,1001.0{divisor}\n", ":3",
         "2021-01-04 does not follow"),
        ("", "", "no {which} rows"),
    ], ids=["repeated-date", "date-out-of-order", "header-only"])
    def test_bad_dates_name_line(
        self, small_market, artifacts, tmp_path, capsys, which, rows, where, names
    ):
        files = {
            "series": artifacts / "index_005_2021.csv",
            "benchmark": small_market / "benchmark.csv",
        }
        bad = files[which] = tmp_path / f"{which}.csv"
        header = "date,level,divisor" if which == "series" else "date,level"
        bad.write_text(f"{header}\n" + rows.format(divisor=",0.5" if which == "series" else ""))
        rc = run([
            "metrics", "--benchmark", str(files["benchmark"]), "--outdir", str(tmp_path / "out"),
            "--series", str(files["series"]),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}{where}: ")
        assert names.format(which=which) in err[0]
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_error_quoting_a_line_break_is_one_line(self, small_market, tmp_path, capsys):
        cfile = tmp_path / "constituents_005.csv"
        cfile.write_text('rank,ticker\n1,"S00\n01"\n')
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--constituents", str(cfile),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: no price for S00\\n01 on 2021-01-01"]

    def test_series_sharing_a_name_rejected(self, small_market, artifacts, tmp_path, capsys):
        """Reports name a series by its file's stem, so two files of one stem,
        or one file named twice, would be evaluated, and rolled up, as one
        index."""
        paths = []
        for run_dir in ("run_a", "run_b"):
            path = tmp_path / run_dir / "index_005_2021.csv"
            path.parent.mkdir()
            path.write_bytes((artifacts / "index_005_2021.csv").read_bytes())
            paths.append(str(path))
        rc = run([
            "metrics", "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path / "out"), "--series", *paths,
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and paths[0] in err[0] and paths[1] in err[0]
        assert not (tmp_path / "out").exists()
        # one file named twice is rejected before it could clash with itself
        rc = run([
            "metrics", "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path / "out"), "--series", paths[0], paths[0],
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {paths[0]} is named twice"]
        assert not (tmp_path / "out").exists()

    def test_failing_index_writes_nothing(self, small_market, artifacts, tmp_path, capsys):
        """The first list's series is computed, but not written, when the
        second list names a ticker without quotes."""
        bad = tmp_path / "constituents_zz.csv"
        bad.write_text("rank,ticker\n1,NOPE\n")
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path / "out"),
            "--constituents", str(artifacts / "constituents_005.csv"), str(bad),
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: no price for NOPE on 2021-01-01"]
        assert not (tmp_path / "out").exists()

    def test_bad_base_level_is_one_line(self, small_market, artifacts, tmp_path, capsys):
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path / "out"), "--base-level", "inf",
            "--constituents", str(artifacts / "constituents_005.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: base level must be finite and > 0, got inf"
        ]
        assert not (tmp_path / "out").exists()

    def test_absent_shares_named(self, small_market, artifacts, tmp_path, capsys):
        """A member quoted on the first target date without shares is an
        error naming its shares, not its price."""
        ticker = selection.read_constituents_csv(artifacts / "constituents_005.csv")[1]
        row = f"2021-01-01,{ticker},"
        quotes = "".join(
            line.rsplit(",", 1)[0] + ",\n" if line.startswith(row) else line
            for line in (small_market / "quotes.csv").read_text().splitlines(keepends=True)
        )
        (tmp_path / "quotes.csv").write_text(quotes)
        rc = run([
            "index", "--quotes", str(tmp_path / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path / "out"),
            "--constituents", str(artifacts / "constituents_005.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ticker}: shares_issued absent on 2021-01-01"
        ]

    def test_benchmark_missing_a_date_names_the_series(
        self, small_market, artifacts, tmp_path, capsys
    ):
        lines = (small_market / "benchmark.csv").read_text().splitlines(keepends=True)
        bench_path = tmp_path / "bench.csv"
        bench_path.write_text("".join(line for line in lines if not line.startswith("2021-01-04,")))
        assert len(bench_path.read_text().splitlines()) == len(lines) - 1
        rc = run([
            "metrics", "--benchmark", str(bench_path), "--outdir", str(tmp_path / "out"),
            "--series", str(artifacts / "index_010_2021.csv"),
            str(artifacts / "index_005_2021.csv"),
        ])
        assert rc == 1
        series = artifacts / "index_005_2021.csv"
        assert capsys.readouterr().err.splitlines() == [
            "error: series and benchmark are not on the same trading dates "
            f"({series}, year 2021)"
        ]

    def test_lists_sharing_an_output_name_rejected(
        self, small_market, artifacts, tmp_path, capsys
    ):
        """Both lists would write index_005_2021.csv, the second over the first;
        so would one list named twice."""
        paths = []
        for run_dir in ("run_a", "run_b"):
            path = tmp_path / run_dir / "constituents_005.csv"
            path.parent.mkdir()
            path.write_bytes((artifacts / "constituents_005.csv").read_bytes())
            paths.append(str(path))
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"), "--study-year", "2020",
            "--outdir", str(tmp_path / "out"), "--constituents", *paths,
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and paths[0] in err[0] and paths[1] in err[0]
        assert "index_005_2021.csv" in err[0]
        assert not (tmp_path / "out").exists()
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"), "--study-year", "2020",
            "--outdir", str(tmp_path / "out"), "--constituents", paths[0], paths[0],
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {paths[0]} is named twice"]
        assert not (tmp_path / "out").exists()

    def test_missing_benchmark_writes_nothing(self, artifacts, tmp_path, capsys):
        missing = tmp_path / "benchmark.csv"
        rc = run([
            "metrics", "--benchmark", str(missing), "--outdir", str(tmp_path / "out"),
            "--series", str(artifacts / "index_005_2021.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(missing) in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, line, names", [
        ("\n2021-03-01,S0001,bogus", 3, "bogus"),  # a blank line still counts
        ("2021-03-01,S0001", 2, "expected 3 fields, got 2"),  # short row
        ("2021-01-05,S0002,delisting,,,oops", 2, "expected 3 fields, got 6"),
    ], ids=["blank-line", "short-row", "long-row"])
    def test_bad_action_row_names_line(
        self, small_market, artifacts, tmp_path, capsys, rows, line, names
    ):
        actions_path = tmp_path / "act.csv"
        actions_path.write_text(f"effective_date,ticker,kind\n{rows}\n")
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--actions", str(actions_path),
            "--constituents", str(artifacts / "constituents_005.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {actions_path}:{line}:")
        assert names in err[0]

    def test_action_field_its_kind_does_not_use_names_line(
        self, small_market, artifacts, tmp_path, capsys
    ):
        """A field the action's kind ignores is an error, not silently dropped."""
        first, second = selection.read_constituents_csv(artifacts / "constituents_005.csv")[:2]
        actions_path = tmp_path / "act.csv"
        actions_path.write_text(
            "effective_date,ticker,kind,new_shares,replacement_price\n"
            f"2021-02-01,{first},share_change,5000,7.5\n"
            f"2021-03-01,{second},delisting,99,3.0\n"
        )
        rc = run([
            "index", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path / "out"),
            "--actions", str(actions_path),
            "--constituents", str(artifacts / "constituents_005.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {actions_path}:2: bad action row: "
            f"share_change of {first} takes no replacement_price"
        ]
        assert not (tmp_path / "out").exists()

    def test_index_reads_quotes_through_the_forward_fill(self, small_market, artifacts, tmp_path):
        """A delisted member's quotes after its delisting are never read,
        and a live member's mid-year quote that is absent, ``NA`` or the
        close before it gives the same series."""
        header, *rows = (small_market / "quotes.csv").read_text().splitlines()
        fields = [row.split(",") for row in rows]
        lines = (artifacts / "constituents_005.csv").read_text().splitlines()[1:]
        changed, delisted, live = (line.split(",")[1] for line in lines[:3])
        dates = sorted({f[0] for f in fields if f[0].startswith("2021")})
        (tmp_path / "actions.csv").write_text(
            "effective_date,ticker,kind,new_shares,replacement_price\n"
            f"{dates[10]},{changed},share_change,5000,\n{dates[20]},{delisted},delisting,,\n"
        )

        def series(name, quotes):
            (tmp_path / f"{name}.csv").write_text(lf_lines([header, *map(",".join, quotes)]))
            assert run([
                "index", "--quotes", str(tmp_path / f"{name}.csv"), "--study-year", "2020",
                "--outdir", str(tmp_path / name), "--actions", str(tmp_path / "actions.csv"),
                "--constituents", str(artifacts / "constituents_005.csv"),
            ]) == 0
            return (tmp_path / name / "index_005_2021.csv").read_bytes()

        full = series("full", fields)
        assert len({line.split(b",")[2] for line in full.splitlines()[1:]}) == 3
        after_delisting = [f for f in fields if f[1] == delisted and f[0] > dates[20]]
        assert after_delisting
        assert series("delisted-rows-dropped",
                      [f for f in fields if f not in after_delisting]) == full

        at = fields.index(next(f for f in fields if f[:2] == [dates[40], live]))
        assert fields[at - 1][:2] == [dates[39], live]

        def close_at(close):
            return fields[:at] + [[dates[40], live, close, fields[at][3]]] + fields[at + 1:]

        variants = {"dropped": fields[:at] + fields[at + 1:], "na": close_at("NA"),
                    "repeated": close_at(fields[at - 1][2])}
        filled = {series(name, quotes) for name, quotes in variants.items()}
        assert len(filled) == 1 and filled != {full}


class TestBacktest:
    def test_two_stage_pipeline_end_to_end(self, small_market, tmp_path):
        rc = run([
            "backtest", "--quotes", str(small_market / "quotes.csv"),
            "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path), "--k", "6", "--n-list", "5,10",
            "--start-year", "2020", "--end-year", "2020",
        ])
        assert rc == 0
        assert (tmp_path / "2020" / "constituents_005.csv").exists()
        assert (tmp_path / "2020" / "index_005_2021.csv").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "stability.csv").exists()

    @pytest.mark.parametrize("start, end, names", [
        ("2021", "2020", "start year 2021 is after end year 2020"),
        ("2020", "2021", "no trading dates found for year 2022"),  # 2021's target year
    ], ids=["start-after-end", "target-year-without-quotes"])
    def test_years_checked_before_any_stage(
        self, small_market, tmp_path, capsys, start, end, names
    ):
        rc = run([
            "backtest", "--quotes", str(small_market / "quotes.csv"),
            "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path / "out"), "--k", "6", "--n-list", "5",
            "--start-year", start, "--end-year", end,
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {names}"]
        assert not (tmp_path / "out").exists()

    def test_failing_last_year_writes_nothing(self, tmp_path, capsys):
        """Both study years are selected and indexed before the benchmark is
        found to lack the last target year; no file of theirs is written,
        and files already in --outdir keep their bytes."""
        assert run([
            "synth", "--outdir", str(tmp_path), "--seed", "9",
            "--n-stocks", "60", "--m-days", "65", "--n-sectors", "4", "--n-years", "3",
        ]) == 0
        lines = (tmp_path / "benchmark.csv").read_text().splitlines(keepends=True)
        cut = tmp_path / "benchmark_cut.csv"
        cut.write_text("".join(line for line in lines if not line.startswith("2022-")))
        out = tmp_path / "out"
        (out / "2020").mkdir(parents=True)
        (out / "2020" / "constituents_005.csv").write_text("rank,ticker\n1,OLD\n")
        (out / "metrics.csv").write_text("old\n")
        before = listing(out)
        capsys.readouterr()
        rc = run([
            "backtest", "--quotes", str(tmp_path / "quotes.csv"), "--benchmark", str(cut),
            "--outdir", str(out), "--k", "6", "--n-list", "5",
            "--start-year", "2020", "--end-year", "2021",
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: benchmark has no dates for year 2022 ({out / '2021' / 'index_005_2022.csv'})"
        ]
        assert listing(out) == before

    def test_failing_write_leaves_outdir_as_it_was(self, small_market, tmp_path, capsys):
        """A directory where metrics.csv goes fails before the first write:
        the constituent file already there keeps its bytes, and no file of
        the run, temporary or not, is left."""
        out = tmp_path / "out"
        (out / "2020").mkdir(parents=True)
        (out / "2020" / "constituents_005.csv").write_text("rank,ticker\n1,OLD\n")
        (out / "metrics.csv").mkdir()
        before = listing(out)
        rc = run([
            "backtest", "--quotes", str(small_market / "quotes.csv"),
            "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(out), "--k", "6", "--n-list", "5,10",
            "--start-year", "2020", "--end-year", "2020",
        ])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno 21] Is a directory: '{out / 'metrics.csv'}'"]
        assert listing(out) == before

    def test_index_stability_spans_study_years(self, tmp_path):
        """scope=index rows join one list's series across target years."""
        import csv

        from manifold_index import metrics

        assert run([
            "synth", "--outdir", str(tmp_path), "--seed", "9",
            "--n-stocks", "60", "--m-days", "65", "--n-sectors", "4", "--n-years", "3",
        ]) == 0
        assert run([
            "backtest", "--quotes", str(tmp_path / "quotes.csv"),
            "--benchmark", str(tmp_path / "benchmark.csv"),
            "--outdir", str(tmp_path / "out"), "--k", "6", "--n-list", "5,10",
            "--start-year", "2020", "--end-year", "2021",
        ]) == 0
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            reports = [r for r in csv.DictReader(fh) if r["index_name"].startswith("index_005_")]
        assert [r["index_name"] for r in reports] == ["index_005_2021", "index_005_2022"]
        with open(tmp_path / "out" / "stability.csv", newline="") as fh:
            stability = {(r["scope"], r["name"], r["metric"]): r for r in csv.DictReader(fh)}
        assert not any(name.startswith("index_005_") for _, name, _ in stability)
        for metric, baseline in metrics.BASELINES.items():
            values = [float(r[metric]) for r in reports]
            row = stability[("index", "index_005", metric)]
            assert float(row["std"]) == metrics.stability_std(values)
            assert float(row["mean_baseline_distance"]) == metrics.mean_baseline_distance(
                values, baseline
            )

    @pytest.mark.parametrize("mode", ["paper", "balanced"])
    def test_metrics_do_not_depend_on_level_scale(self, small_market, tmp_path, mode):
        """--base-level B scales every level by B/1000; neither it nor a
        benchmark scaled by 3 moves a metric (within 1e-12)."""
        import csv

        from manifold_index import metrics

        def backtest(name, benchmark, *flags):
            outdir = tmp_path / name
            assert run([
                "backtest", "--quotes", str(small_market / "quotes.csv"),
                "--benchmark", str(benchmark), "--outdir", str(outdir), "--mode", mode,
                "--k", "6", "--n-list", "5,10", "--start-year", "2020", "--end-year", "2020",
                *flags,
            ]) == 0
            with open(outdir / "metrics.csv", newline="") as fh:
                reports = list(csv.DictReader(fh))
            levels = []
            for report in reports:
                with open(outdir / "2020" / f"{report['index_name']}.csv", newline="") as fh:
                    levels += [float(row["level"]) for row in csv.DictReader(fh)]
            names = [(r["index_name"], r["year"]) for r in reports]
            values = [float(r[metric]) for r in reports for metric in metrics.BASELINES]
            return names, np.array(values), np.array(levels)

        header, *rows = (small_market / "benchmark.csv").read_text().splitlines()
        tripled = tmp_path / "benchmark_x3.csv"
        tripled.write_text(lf_lines([header, *(
            f"{date},{3 * float(level)!r}" for date, level in (row.split(",") for row in rows)
        )]))
        names, values, levels = backtest("plain", small_market / "benchmark.csv")
        rebased = backtest("rebased", small_market / "benchmark.csv", "--base-level", "7.5")
        for variant in (rebased, backtest("tripled", tripled)):
            assert variant[0] == names
            assert np.max(np.abs(variant[1] - values)) <= 1e-12
        assert np.max(np.abs(rebased[2] / (levels * 7.5 / 1000) - 1)) <= 1e-12

    def test_metrics_match_independent_recompute(self, small_market, tmp_path):
        """Recompute every report row from the emitted CSV artifacts alone."""
        import csv
        import datetime as dt

        run([
            "backtest", "--quotes", str(small_market / "quotes.csv"),
            "--benchmark", str(small_market / "benchmark.csv"),
            "--outdir", str(tmp_path), "--k", "6", "--n-list", "5,10",
            "--start-year", "2020", "--end-year", "2020",
        ])

        def read_levels(path, date_col, level_col):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return (
                [dt.date.fromisoformat(r[date_col]) for r in rows],
                [float(r[level_col]) for r in rows],
            )

        def month_end_returns(dates, levels):
            last = {}
            for d, v in zip(dates, levels):
                last[(d.year, d.month)] = v
            closes = [last[k] for k in sorted(last)]
            return np.diff(closes) / np.array(closes[:-1])

        b_dates, b_levels = read_levels(small_market / "benchmark.csv", "date", "level")
        with open(tmp_path / "metrics.csv", newline="") as fh:
            reports = list(csv.DictReader(fh))
        assert len(reports) == 2
        for row in reports:
            year = int(row["year"])
            s_dates, s_levels = read_levels(
                tmp_path / "2020" / f"{row['index_name']}.csv", "date", "level"
            )
            keep = [i for i, d in enumerate(b_dates) if d.year == year]
            by, bl = [b_dates[i] for i in keep], [b_levels[i] for i in keep]
            assert by == s_dates
            x, y = np.asarray(s_levels), np.asarray(bl)
            rho = np.corrcoef(x, y)[0, 1]
            ri = month_end_returns(s_dates, s_levels)
            rm = month_end_returns(by, bl)
            a = ri.mean() - rm.mean()
            b = np.cov(ri, rm, ddof=1)[0, 1] / np.var(rm, ddof=1)
            ja = ri.mean() - (0.002 + b * (rm.mean() - 0.002))
            assert float(row["pearson"]) == pytest.approx(rho, abs=1e-10)
            assert float(row["alpha"]) == pytest.approx(a, abs=1e-12)
            assert float(row["beta"]) == pytest.approx(b, abs=1e-10)
            assert float(row["jensen_alpha"]) == pytest.approx(ja, abs=1e-12)


ARTIFACT_NAMES = ("2020/constituents_005.csv", "2020/index_005_2021.csv",
                  "2021/constituents_005.csv", "metrics.csv", "stability.csv")


def files_in(directory) -> dict[str, bytes]:
    return {name: data for name, data in listing(directory).items() if data is not None}


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_all_publishes_all_files_or_none(tmp_path, data):
    """When write i of a command's files raises OSError, the files already in
    --outdir keep their bytes and no temporary file is left; when none
    raises, each target holds its new bytes and nothing else is there."""
    names = data.draw(st.lists(st.sampled_from(ARTIFACT_NAMES), min_size=1, unique=True))
    prefilled = data.draw(st.sets(st.sampled_from(ARTIFACT_NAMES)))
    failing = data.draw(st.integers(0, len(names)))  # len(names): no write fails
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    for name in prefilled:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(f"old {name}\n")
    before = files_in(out)

    def write(path, i):
        path.write_text(f"new {i}\n")  # a part is written before the fault
        if i == failing:
            raise OSError(f"{path}: no space left")

    writes = {out / name: ("stage", partial(write, i=i)) for i, name in enumerate(names)}
    if failing < len(names):
        with pytest.raises(OSError):
            cli.write_all(writes)
        assert files_in(out) == before
    else:
        cli.write_all(writes)
        new = {name: f"new {i}\n".encode() for i, name in enumerate(names)}
        assert files_in(out) == {**before, **new}


class TestBatchedEigenGrowth:
    def test_basis_expands_until_selection_succeeds(self, small_market, monkeypatch):
        """With a batch of 1 the first basis holds only the (featureless)
        constant eigenvector, forcing repeated expansion."""
        from manifold_index import manifold, marketdata

        quotes = marketdata.load_quotes(small_market / "quotes.csv")
        frame = marketdata.build_market_frame(
            quotes, marketdata.calendar_from_quotes(quotes, 2020)
        )
        graph, w, a = manifold.build_operator(frame.vectors, k=6, mode="balanced")
        monkeypatch.setattr(cli, "EIGEN_BATCH", 1)
        members, source, _ = cli.grow_basis_and_select(w, a, graph, frame.caps, [12])[12]
        assert len(members) == 12
        # provenance proves more than one eigenvector contributed
        assert source[members].max() >= 1

    def test_each_basis_is_scanned_once_for_every_n(self, small_market, monkeypatch):
        """Every column of each basis is scanned by exactly one
        detect_extrema call, which every N shares: three N that the first
        basis meets cost one scan of it, and an N that needs more bases one
        scan of each."""
        from manifold_index import manifold, marketdata, spectral

        quotes = marketdata.load_quotes(small_market / "quotes.csv")
        frame = marketdata.build_market_frame(
            quotes, marketdata.calendar_from_quotes(quotes, 2020)
        )
        graph, w, a = manifold.build_operator(frame.vectors, k=6, mode="balanced")
        detect, grow = selection.detect_extrema, spectral.growing_bases
        calls, bases = [], []

        def counting(phi, graph_):
            calls.append(phi)
            return detect(phi, graph_)

        def recording(w_, a_, batch):
            for basis in grow(w_, a_, batch):
                bases.append(basis)
                yield basis

        monkeypatch.setattr(selection, "detect_extrema", counting)
        monkeypatch.setattr(spectral, "growing_bases", recording)
        for batch, n_list, grows in ((cli.EIGEN_BATCH, [20, 10, 30], False), (4, [10, 30], True)):
            monkeypatch.setattr(cli, "EIGEN_BATCH", batch)
            calls.clear()
            bases.clear()
            picks = cli.grow_basis_and_select(w, a, graph, frame.caps, n_list)
            assert sorted(picks) == sorted(n_list)
            assert (len(bases) > 1) == grows
            scanned = [basis.vectors[:, j] for basis in bases for j in range(basis.count)]
            assert len(calls) == len(scanned)
            assert all(np.array_equal(c, s) for c, s in zip(calls, scanned))

    def test_growth_costs_one_solve_at_the_final_p(self, tmp_path, monkeypatch):
        """Above the dense cutoff the bases that spectral.growing_bases yields
        extend one Lanczos factorization: its steps are those of one fresh
        solve at the final p, and the picks are those of a fresh solve at
        each p."""
        from manifold_index import manifold, marketdata, spectral

        run([
            "synth", "--outdir", str(tmp_path), "--seed", "4",
            "--n-stocks", "360", "--m-days", "65", "--n-sectors", "6",
            "--n-years", "1",
        ])
        quotes = marketdata.load_quotes(tmp_path / "quotes.csv")
        frame = marketdata.build_market_frame(
            quotes, marketdata.calendar_from_quotes(quotes, 2020)
        )
        assert frame.n > spectral.DENSE_CUTOFF
        graph, w, a = manifold.build_operator(frame.vectors, k=10, mode="balanced")

        solve = spectral.solve_generalized
        calls = []

        def recording(w_, a_, p, factorization=None):
            calls.append((p, factorization))
            return solve(w_, a_, p, factorization=factorization)

        monkeypatch.setattr(spectral, "solve_generalized", recording)
        monkeypatch.setattr(cli, "EIGEN_BATCH", 8)
        picks = cli.grow_basis_and_select(w, a, graph, frame.caps, [140])
        monkeypatch.undo()

        ps = [p for p, _ in calls]
        assert ps == [8 * (i + 1) for i in range(len(ps))]
        assert len(ps) >= 4  # three growths
        grown = calls[0][1]
        assert isinstance(grown, spectral.LanczosFactorization)
        assert all(f is grown for _, f in calls)
        fresh = spectral.LanczosFactorization(w, a)
        spectral.solve_generalized(w, a, ps[-1], factorization=fresh)
        assert grown.steps == fresh.steps

        # reference: a fresh solve at each p until the features suffice
        p, want = 0, None
        while want is None:
            p += 8
            fresh = spectral.LanczosFactorization(w, a)
            basis = spectral.solve_generalized(w, a, p, factorization=fresh)
            want = first_list(basis, graph, 140, frame.caps)
        assert p == ps[-1]
        assert ordered(picks[140]) == want

    def test_five_default_lists(self, tmp_path):
        """The default N list produces five constituent files."""
        run([
            "synth", "--outdir", str(tmp_path), "--seed", "4",
            "--n-stocks", "420", "--m-days", "65", "--n-sectors", "6",
            "--n-years", "1",
        ])
        rc = run([
            "select", "--quotes", str(tmp_path / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
        ])
        assert rc == 0
        written = sorted(p.name for p in tmp_path.glob("constituents_*.csv"))
        assert written == [
            "constituents_050.csv",
            "constituents_100.csv",
            "constituents_150.csv",
            "constituents_180.csv",
            "constituents_380.csv",
        ]


class TestConfigFile:
    def test_flags_override_file(self, small_market, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# pipeline configuration\n"
            f"quotes = {small_market / 'quotes.csv'}\n"
            "study_year = 2020\n"
            "k = 6\n"
            "n_list = 5\n"
            "t = auto\n"
            f"outdir = {tmp_path / 'from_file'}\n"
        )
        rc = run(["select", "--config", str(config), "--n-list", "7"])
        assert rc == 0
        assert (tmp_path / "from_file" / "constituents_007.csv").exists()

    def test_bad_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("studyyear = 2020\n")
        with pytest.raises(ParseError):
            cli.load_config(config)

    @pytest.mark.parametrize("key", ["seed", "eigen_batch", "target_year"])
    def test_removed_settings_are_unknown_keys(self, tmp_path, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"k = 6\n{key} = 1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(config))}:2: unknown config key"):
            cli.load_config(config)

    def test_config_file_and_flags_select_the_same(self, small_market, tmp_path):
        quotes = str(small_market / "quotes.csv")
        config = tmp_path / "run.cfg"
        config.write_text(
            f"quotes = {quotes}\nstudy_year = 2020\nk = 6\nt = auto\nmode = paper\n"
            f"n_list = 5,10\noutdir = {tmp_path / 'file'}\n"
        )
        assert run(["select", "--config", str(config)]) == 0
        flags = ["--quotes", quotes, "--study-year", "2020", "--k", "6", "--t", "auto",
                 "--mode", "paper", "--n-list", "5,10"]
        assert run(["select", *flags, "--outdir", str(tmp_path / "flags")]) == 0
        # flags override the file, and '--t auto' resets a bandwidth from it
        config.write_text(f"k = 3\nt = 0.5\nmode = balanced\nn_list = 7\n")
        assert run(["select", "--config", str(config), *flags,
                    "--outdir", str(tmp_path / "over")]) == 0
        for n in (5, 10):
            name = f"constituents_{n:03d}.csv"
            want = (tmp_path / "file" / name).read_bytes()
            assert (tmp_path / "flags" / name).read_bytes() == want
            assert (tmp_path / "over" / name).read_bytes() == want


    def test_bad_mode_names_file_and_line(self, small_market, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("k = 6\nmode = foo\n")
        rc = run(["select", "--config", str(config), "--quotes", str(small_market / "quotes.csv"),
                  "--study-year", "2020", "--outdir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {config}:2:") and "'foo'" in err[0]

    def test_non_utf8_config_names_file(self, small_market, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"k = 6\n# caf\xe9\n")
        rc = run(["select", "--config", str(config), "--quotes", str(small_market / "quotes.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {config}:2: not UTF-8")

    def test_bad_bandwidth_is_clean_diagnostic(self, small_market, tmp_path, capsys):
        rc = run([
            "select", "--quotes", str(small_market / "quotes.csv"),
            "--study-year", "2020", "--outdir", str(tmp_path),
            "--n-list", "5", "--t", "abc",
        ])
        assert rc == 1
        assert "bandwidth" in capsys.readouterr().err


# Every PipelineConfig field is a config key and a flag of the commands that
# read it, and of no other.
COMMAND_FLAGS = {
    "select": {"config", "quotes", "outdir", "study-year", "k", "t", "mode", "n-list"},
    "index": {"config", "quotes", "actions", "outdir", "study-year", "base-level",
              "constituents"},
    "metrics": {"config", "benchmark", "outdir", "series"},
    "backtest": {"config", "quotes", "benchmark", "actions", "outdir", "k", "t", "mode",
                 "n-list", "base-level", "start-year", "end-year"},
}
COMMAND_EXTRAS = {
    "select": [],
    "index": ["--constituents", "c.csv"],
    "metrics": ["--series", "s.csv"],
    "backtest": ["--start-year", "2020", "--end-year", "2021"],
}
SETTING_TEXT = {
    "quotes": "q.csv", "benchmark": "b.csv", "actions": "a.csv", "outdir": "o",
    "study_year": "2020", "k": "6", "t": "0.5", "mode": "paper", "n_list": "5,10",
    "base_level": "100",
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_flags_are_the_settings_it_reads(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run([command, "--help"])
    assert exit_.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)", capsys.readouterr().out))
    assert shown - {"help"} == COMMAND_FLAGS[command]

    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{key} = {text}\n" for key, text in SETTING_TEXT.items()))
    from_file = cli.load_config(config)
    assert from_file == cli.PipelineConfig(
        quotes="q.csv", benchmark="b.csv", actions="a.csv", outdir="o", study_year=2020,
        k=6, t=0.5, mode="paper", n_list=(5, 10), base_level=100.0,
    )
    read = [key for key in SETTING_TEXT if key.replace("_", "-") in COMMAND_FLAGS[command]]
    argv = [command, *COMMAND_EXTRAS[command]]
    for key in read:
        argv += ["--" + key.replace("_", "-"), SETTING_TEXT[key]]
    from_flags = cli._config_from_args(cli._build_parser().parse_args(argv))
    assert from_flags == cli.PipelineConfig(**{key: getattr(from_file, key) for key in read})


def test_synth_defaults_come_from_synth_config(tmp_path, monkeypatch):
    seen = []

    def record(config):
        seen.append(config)
        raise ParameterError("recorded")

    monkeypatch.setattr(synth, "generate_market", record)
    assert run(["synth", "--outdir", str(tmp_path)]) == 1
    assert run(["synth", "--outdir", str(tmp_path), "--seed", "3", "--sector-vol", "0.02"]) == 1
    assert seen == [synth.SynthConfig(), synth.SynthConfig(seed=3, sector_vol=0.02)]


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"),
    ("--cap-log-sd", "-1"),
    ("--start-year", "0"),
    ("--sector-vol", "nan"),
    ("--idio-vol", "inf"),
    ("--n-years", "0"),
])
def test_synth_setting_out_of_range_is_one_error_line(tmp_path, capsys, flag, value):
    outdir = tmp_path / "out"
    rc = run(["synth", "--outdir", str(outdir), "--n-stocks", "10", "--m-days", "20",
              flag, value])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {flag[2:].replace('-', '_')} ")
    assert not outdir.exists()


@pytest.mark.parametrize("argv, names", [
    (["select", "--k", "abc"], "--k"),
    (["select", "--mode", "foo"], "'foo'"),
    (["select", "--n-list", "0"], "--n-list"),
    (["select", "--bogus"], "--bogus"),
    (["metrics", "--benchmark", "b.csv", "--series", "s.csv", "--k", "5"], "--k"),
    (["index", "--quotes", "QUOTES", "--constituents", "c.csv"], "--study-year"),
    (["backtest", "--quotes", "QUOTES", "--outdir", "OUT", "--start-year", "2020",
      "--end-year", "2020"], "--benchmark"),  # before any stage runs
], ids=["bad-int", "bad-mode", "bad-n-list", "unknown-flag", "flag-of-another-command",
        "index-without-study-year", "backtest-without-benchmark"])
def test_usage_error_is_one_error_line(small_market, tmp_path, capsys, argv, names):
    given = {"QUOTES": str(small_market / "quotes.csv"), "OUT": str(tmp_path)}
    argv = [given.get(a, a) for a in argv]
    rc = run(argv)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and names in err[0]


WITHOUT_SCIPY = """
import sys
from manifold_index import cli
assert not [name for name in sys.modules if name.startswith("scipy")]
sys.modules["scipy"] = None  # any import of SciPy from here on fails
market = ["--quotes", "m/quotes.csv", "--study-year", "2020", "--outdir", "out"]
with open("constituents_001.csv", "w") as fh:
    fh.write("rank,ticker,source_eigenvector,extremum_kind,market_cap\\n1,S0000,0,max,1\\n")
for argv in (["synth", "--outdir", "m", "--n-stocks", "8", "--n-sectors", "2",
              "--m-days", "65", "--n-years", "2"],
             ["index", *market, "--constituents", "constituents_001.csv"],
             ["metrics", "--benchmark", "m/benchmark.csv", "--outdir", "out",
              "--series", "out/index_001_2021.csv"]):
    assert cli.main(argv) == 0, argv
"""


def child_env(**settings) -> dict:
    """The environment of a child Python that imports the package from this
    tree: ours without OPENBLAS_THREAD_TIMEOUT, plus ``settings``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return dict(env, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **settings)


def test_only_select_and_backtest_load_scipy(tmp_path):
    """Importing the CLI loads no SciPy module, and synth, index and metrics
    run where SciPy cannot be imported."""
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "metrics.csv").exists()


IDLE_CPU = """
import time
from manifold_index import cli
import numpy as np
import scipy.linalg
points = np.ones((1500, 244))
points @ points.T
scipy.linalg.eigh(np.eye(300) + 1, subset_by_index=(0, 31))
start = time.process_time()
time.sleep(0.3)
print(time.process_time() - start)
"""


def test_idle_blas_workers_sleep():
    """After a threaded NumPy product and a SciPy eigensolve, the process
    burns almost no CPU while its main thread sleeps: neither OpenBLAS pool
    keeps a worker spinning (each spin costs about 0.13 s of CPU on 2 vCPUs).
    On a 1-CPU host OpenBLAS starts no worker, so there this cannot fail."""
    done = subprocess.run([sys.executable, "-c", IDLE_CPU], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 0.05


@pytest.mark.parametrize("given, seen", [(None, "4"), ("28", "28")])
def test_blas_thread_timeout_defaults_to_4_and_keeps_a_given_value(given, seen):
    settings = {} if given is None else {"OPENBLAS_THREAD_TIMEOUT": given}
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, manifold_index; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"],
        env=child_env(**settings), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == seen + "\n"


@pytest.mark.parametrize("n_stocks", [60, 360], ids=["dense", "lanczos"])
def test_blas_thread_timeout_does_not_change_selection(tmp_path, n_stocks):
    """How long an idle OpenBLAS worker spins changes no constituent list,
    on the dense path (n <= DENSE_CUTOFF) and on Lanczos."""
    market = synth_market(tmp_path, "--seed", "4", "--n-stocks", str(n_stocks),
                          "--m-days", "65", "--n-sectors", "6", "--n-years", "1")
    from manifold_index import spectral

    quotes = marketdata.load_quotes(market / "quotes.csv")
    n = marketdata.build_market_frame(quotes, marketdata.calendar_from_quotes(quotes, 2020)).n
    assert (n > spectral.DENSE_CUTOFF) == (n_stocks > spectral.DENSE_CUTOFF)
    outputs = {}
    for timeout in ("4", "28"):
        outdir = tmp_path / f"timeout-{timeout}"
        done = subprocess.run(
            [sys.executable, "-m", "manifold_index.cli", "select",
             "--quotes", str(market / "quotes.csv"), "--study-year", "2020",
             "--outdir", str(outdir), "--k", "10", "--n-list", "20,40"],
            env=child_env(OPENBLAS_THREAD_TIMEOUT=timeout), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs[timeout] = {p.name: p.read_bytes() for p in outdir.glob("constituents_*.csv")}
    assert sorted(outputs["4"]) == ["constituents_020.csv", "constituents_040.csv"]
    assert outputs["4"] == outputs["28"]


def lf_lines(lines) -> str:
    return "\n".join(lines) + "\n"


def write_quotes(path, rows) -> str:
    """A quote file of ``(date, ticker, close, shares)`` text rows."""
    path.write_text(lf_lines(["date,ticker,close,shares_issued", *map(",".join, rows)]))
    return str(path)


def synth_market(tmp_path, *flags) -> Path:
    outdir = tmp_path / "market"
    assert run(["synth", "--outdir", str(outdir), *flags]) == 0
    return outdir


def index_one_member(tmp_path, rows, action) -> list[str]:
    """``index`` of the one-member list ``A`` over quote ``rows``, with one
    corporate action row."""
    (tmp_path / "list.csv").write_text(
        "rank,ticker,source_eigenvector,extremum_kind,market_cap\n1,A,0,max,1.0\n"
    )
    (tmp_path / "actions.csv").write_text(
        f"effective_date,ticker,kind,new_shares,replacement_price\n{action}\n"
    )
    return ["index", "--quotes", write_quotes(tmp_path / "quotes.csv", rows),
            "--study-year", "2020", "--constituents", str(tmp_path / "list.csv"),
            "--actions", str(tmp_path / "actions.csv")]


def backtest_2020(market) -> list[str]:
    return ["backtest", "--quotes", str(market / "quotes.csv"),
            "--benchmark", str(market / "benchmark.csv"), "--k", "4", "--n-list", "5",
            "--start-year", "2020", "--end-year", "2020"]


def one_monthly_return(tmp_path):
    # 30 weekdays a year span January and February: one monthly return
    return backtest_2020(synth_market(tmp_path, "--n-stocks", "30", "--m-days", "30",
                                      "--n-years", "2"))


def one_calendar_month(tmp_path):
    # 20 weekdays a year fall in January alone: no monthly return
    return backtest_2020(synth_market(tmp_path, "--n-stocks", "30", "--m-days", "20",
                                      "--n-years", "2"))


def constant_target_year(tmp_path):
    # every 2021 close repeats its ticker's first one, so the 2021 levels are constant
    market = synth_market(tmp_path, "--n-stocks", "30", "--m-days", "60", "--n-years", "2")
    header, *rows = (market / "quotes.csv").read_text().splitlines()
    first: dict[str, str] = {}
    for i, (date, ticker, close, shares) in enumerate(row.split(",") for row in rows):
        if date.startswith("2021"):
            rows[i] = ",".join((date, ticker, first.setdefault(ticker, close), shares))
    (market / "quotes.csv").write_text(lf_lines([header, *rows]))
    return backtest_2020(market)


def select_small(*flags):
    """The argv builder of a select over a small synth market with ``flags``."""
    def build(tmp_path):
        market = synth_market(tmp_path, "--n-stocks", "30", "--m-days", "60", "--n-years", "1")
        return ["select", "--quotes", str(market / "quotes.csv"), "--study-year", "2020",
                "--n-list", "5", *flags]
    return build


def identical_closes(tmp_path):
    # 12 tickers share one price vector, so every KNN distance is 0
    rows = [(f"2020-01-0{d}", f"T{j:02d}", f"1{d}", "100")
            for d in (2, 3, 6, 7, 8) for j in range(12)]
    return ["select", "--quotes", write_quotes(tmp_path / "quotes.csv", rows),
            "--study-year", "2020", "--k", "2", "--n-list", "1"]


def pre_event_cap_underflows(tmp_path):
    # on the action date the cap is 1e-300 x 1e-30, which rounds to 0.0
    rows = [("2021-01-04", "A", "100", "1e-30"), ("2021-01-05", "A", "1e-300", "1e-30")]
    return index_one_member(tmp_path, rows, "2021-01-05,A,share_change,5,")


def level_overflows(tmp_path):
    # the 2021-01-05 cap is 1e300 x 1e10, which rounds to inf
    rows = [("2021-01-04", "A", "100", "1e10"), ("2021-01-05", "A", "1e300", "1e10")]
    return index_one_member(tmp_path, rows, "")


def divisor_overflows(tmp_path):
    # the post-event cap 1e300 x 1e10 is inf, and so is the divisor it rescales
    rows = [("2021-01-04", "A", "1e300", "1e8"), ("2021-01-05", "A", "1e300", "1e8")]
    return index_one_member(tmp_path, rows, "2021-01-05,A,share_change,1e10,")


def delisting_the_last_member(tmp_path):
    rows = [("2021-01-04", "A", "100", "10"), ("2021-01-05", "A", "101", "10")]
    return index_one_member(tmp_path, rows, "2021-01-05,A,delisting,,")


def too_few_features(tmp_path):
    # each point neighbours all 11 others, so an eigenvector has at most one
    # maximum and one minimum; all 12 eigenvectors give 10 distinct points
    market = synth_market(tmp_path, "--n-stocks", "12", "--n-sectors", "1",
                          "--m-days", "20", "--n-years", "1")
    return ["select", "--quotes", str(market / "quotes.csv"), "--study-year", "2020",
            "--k", "11", "--n-list", "11"]


def config_line_without_equals(tmp_path):
    (tmp_path / "run.cfg").write_text("k 6\n")
    return ["select", "--config", str(tmp_path / "run.cfg")]


# Each check an input can reach: the argv that reaches it, less --outdir,
# and the error line as a regex, {out} and {tmp} standing for the output and
# the test directory.
REACHABLE_CHECKS = {
    "beta-of-one-return": (
        one_monthly_return,
        r"beta needs at least 2 samples \({out}/2020/index_005_2021\.csv, year 2021\)",
    ),
    "k-zero": (select_small("--k", "0"), r"k must satisfy 1 <= k < n, got k=0, n=30"),
    "negative-bandwidth": (
        select_small("--t", "-1"), r"bandwidth t must be finite and > 0, got -1\.0"
    ),
    # every kernel weight exp(-d2/t) underflows to 0
    "bandwidth-underflows-mass": (
        select_small("--t", "1e-300"), r"mass entry 0 is 0\.000e\+00; isolated point or NaN"
    ),
    "identical-closes": (identical_closes, r"all KNN distances are zero; bandwidth undefined"),
    "one-calendar-month": (
        one_calendar_month,
        r"need at least 2 calendar months of levels \({out}/2020/index_005_2021\.csv, year 2021\)",
    ),
    "constant-target-year": (
        constant_target_year,
        r"pearson undefined for a constant series \({out}/2020/index_005_2021\.csv, year 2021\)",
    ),
    "pre-event-cap-underflows": (pre_event_cap_underflows, r"pre-event cap is 0\.0 on 2021-01-05"),
    "level-overflows": (level_overflows, r"index level inf on 2021-01-05 is not finite and > 0"),
    "divisor-overflows": (
        divisor_overflows, r"index divisor inf on 2021-01-05 is not finite and > 0"
    ),
    # a second-day return near 1e300 takes the benchmark cap past the float range
    "synth-level-overflows": (
        lambda tmp_path: ["synth", "--sector-vol", "1e300"],
        r"index level inf on 2020-01-02 is not finite and > 0",
    ),
    "delisting-the-last-member": (
        delisting_the_last_member, r"post-event cap is 0\.0 on 2021-01-05"
    ),
    "all-eigenpairs-too-few-features": (
        too_few_features,
        r"all 12 eigenvectors give fewer than 11 feature points; "
        r"only a smaller --n-list or a smaller --k can help",
    ),
    "config-line-without-equals": (
        config_line_without_equals, r"{tmp}/run\.cfg:1: expected key=value, got 'k 6'"
    ),
}


@pytest.mark.parametrize("case", REACHABLE_CHECKS)
def test_reachable_check_is_one_error_line(tmp_path, capsys, case):
    """A check that an input trips ends the run with exit 1, one error line
    and no output directory."""
    build, pattern = REACHABLE_CHECKS[case]
    argv = build(tmp_path)
    capsys.readouterr()  # what a synth step printed
    outdir = tmp_path / "out"
    assert run([*argv, "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    expected = pattern.format(out=re.escape(str(outdir)), tmp=re.escape(str(tmp_path)))
    assert re.fullmatch(f"error: {expected}", err[0]), err[0]
    assert not outdir.exists()


# Powers of two that take one ticker's closes to an end of the float range.
FLOAT_EXTREMES = {
    # closes near 4e-162, whose squares are subnormal and lose digits
    "norm-lost-to-underflow": -540,
    # closes near 2e201, whose squares overflow
    "norm-overflows": 664,
}


@pytest.mark.parametrize("case", FLOAT_EXTREMES)
def test_one_ticker_at_a_float_extreme_selects_the_same(tmp_path, case):
    """A's closes times 2**j, with A's shares times 2**-j, leave every select
    artifact byte-identical."""
    j = FLOAT_EXTREMES[case]
    closes = {"A": (12, 13, 16, 17, 18), "B": (15, 11, 14, 19, 12),
              "C": (13, 17, 12, 15, 16), "D": (18, 14, 13, 11, 17)}
    days = [f"2020-01-0{d}" for d in (2, 3, 6, 7, 8)]

    def select_with_a_times(power, outdir):
        rows = [(day, t, repr(math.ldexp(c[i], power if t == "A" else 0)),
                 repr(math.ldexp(100.0, -power if t == "A" else 0)))
                for i, day in enumerate(days) for t, c in closes.items()]
        quotes = write_quotes(tmp_path / f"quotes_{power}.csv", rows)
        assert run(["select", "--quotes", quotes, "--study-year", "2020", "--outdir",
                    str(outdir), "--k", "2", "--n-list", "1,2,3"]) == 0
        return listing(outdir)

    assert select_with_a_times(j, tmp_path / "scaled") == select_with_a_times(0, tmp_path / "plain")


def backtest_artifacts(quotes, benchmark, outdir) -> dict[str, bytes]:
    assert run(["backtest", "--quotes", str(quotes), "--benchmark", str(benchmark),
                "--outdir", str(outdir), "--k", "6", "--n-list", "5,10",
                "--start-year", "2020", "--end-year", "2021"]) == 0
    return listing(outdir)


@pytest.fixture(scope="module")
def scale_market(tmp_path_factory):
    """A 60-stock, 3-year market and its backtest artifacts."""
    root = tmp_path_factory.mktemp("scale")
    assert run(["synth", "--outdir", str(root), "--n-stocks", "60", "--m-days", "60",
                "--n-sectors", "4", "--n-years", "3"]) == 0
    return root, backtest_artifacts(root / "quotes.csv", root / "benchmark.csv", root / "out")


def test_shuffled_rows_and_a_screened_out_ticker_change_no_artifact(scale_market, tmp_path):
    """The quote file's rows in another order, which moves where the two
    ends of the parse meet, plus a ticker quoted only in February and March
    of the first study year, which screening drops, give byte-identical
    backtest artifacts."""
    root, plain = scale_market
    header, *rows = (root / "quotes.csv").read_text().splitlines()
    dates = sorted({row.split(",")[0] for row in rows if row[:7] in ("2020-02", "2020-03")})
    rows += [f"{date},S0030A,10.0,1000.0" for date in dates]
    random.Random(0).shuffle(rows)
    (tmp_path / "shuffled.csv").write_text("\n".join([header, *rows, ""]))
    assert backtest_artifacts(tmp_path / "shuffled.csv", root / "benchmark.csv",
                              tmp_path / "out") == plain


def scaled_columns(text: str, j: int, columns) -> str:
    """A CSV text with each float in ``columns`` (by header name) times 2**j,
    its line ends kept."""
    end = "\r\n" if text.endswith("\r\n") else "\n"
    header, *rows = text.split(end)[:-1]
    at = [header.split(",").index(name) for name in columns]
    fields = [row.split(",") for row in rows]
    for row in fields:
        for i in at:
            row[i] = repr(math.ldexp(float(row[i]), j))
    return end.join([header, *map(",".join, fields), ""])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(j=st.integers(-600, 600))
@example(j=600)
@example(j=-600)
def test_power_of_two_scale_moves_only_caps_and_divisors(scale_market, tmp_path, j):
    """Closes times 2**j with shares times 2**-j leave every backtest
    artifact byte-identical; closes times 2**j alone scale the market_cap
    and divisor columns by exactly 2**j and change no other byte."""
    root, plain = scale_market
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    text = (root / "quotes.csv").read_text()
    variants = {
        "same-caps": scaled_columns(scaled_columns(text, j, ["close"]), -j, ["shares_issued"]),
        "scaled-caps": scaled_columns(text, j, ["close"]),
    }
    for name, quotes in variants.items():
        (work / f"{name}.csv").write_text(quotes)
    same_caps = backtest_artifacts(work / "same-caps.csv", root / "benchmark.csv", work / "a")
    assert same_caps == plain
    scaled = backtest_artifacts(work / "scaled-caps.csv", root / "benchmark.csv", work / "b")
    assert scaled.keys() == plain.keys()
    for path, data in plain.items():
        name = Path(path).name
        column = ("market_cap" if name.startswith("constituents_")
                  else "divisor" if name.startswith("index_") else None)
        expected = data if column is None else scaled_columns(data.decode(), j, [column]).encode()
        assert scaled[path] == expected, path


def quoted(line: str) -> str:
    return '"' + line.replace(",", '","') + '"'


# Rewrites of a quote file's lines, header first, that must load the same.
QUOTE_FORMATS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "cr": lambda lines: "\r".join(lines) + "\r",
    "no-final-newline": lambda lines: "\n".join(lines),
    "every-field-quoted": lambda lines: lf_lines(map(quoted, lines)),
    "unknown-column": lambda lines: lf_lines(line.replace(",", ",x,", 1) for line in lines),
    "blank-line-mid-file": lambda lines: lf_lines([*lines[:2000], "", *lines[2000:]]),
    "shuffled-rows": lambda lines: lf_lines(
        [lines[0], *random.Random(0).sample(lines[1:], len(lines) - 1)]
    ),
}


def select_artifacts(quotes, outdir) -> dict[str, bytes]:
    argv = ["select", "--quotes", str(quotes), "--study-year", "2020", "--outdir", str(outdir),
            "--k", "4", "--n-list", "5,10"]
    assert run(argv) == 0
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@pytest.fixture(scope="module")
def format_market(tmp_path_factory):
    """A plain quote file of 20 stocks x 244 days, 4880 rows: more than one
    batch of records on the loader's csv path; and its select artifacts."""
    root = tmp_path_factory.mktemp("formats")
    assert run(["synth", "--outdir", str(root), "--n-stocks", "20", "--m-days", "244",
                "--n-sectors", "4", "--n-years", "1"]) == 0
    return root / "quotes.csv", select_artifacts(root / "quotes.csv", root / "plain")


@pytest.mark.parametrize("fmt", QUOTE_FORMATS)
def test_quote_file_format_does_not_change_selection(format_market, tmp_path, fmt):
    plain, artifacts = format_market
    lines = plain.read_text().splitlines()
    assert len(lines) > marketdata._CSV_BATCH + 1
    variant = tmp_path / "quotes.csv"
    variant.write_bytes(QUOTE_FORMATS[fmt](lines).encode())
    assert select_artifacts(variant, tmp_path / "out") == artifacts
    # select parses on two CPUs; the whole parse in this process gives the same panel
    want, got = marketdata._parse_quotes(plain), marketdata._parse_quotes(variant)
    assert (got.dates, got.tickers) == (want.dates, want.tickers)
    assert got.close.tobytes() == want.close.tobytes()
    assert got.shares.tobytes() == want.shares.tobytes()


def paper_picks(quotes, outdir, n_list) -> dict[int, set]:
    """``select`` in paper mode (k=10): each N's picks as a set of (ticker,
    source eigenvector, extremum kind)."""
    assert run(["select", "--quotes", str(quotes), "--study-year", "2020", "--outdir",
                str(outdir), "--k", "10", "--mode", "paper",
                "--n-list", ",".join(map(str, n_list))]) == 0
    return {n: {(row[1], row[2], row[3])
                for row in csv.reader((outdir / f"constituents_{n:03d}.csv").open())}
            - {("ticker", "source_eigenvector", "extremum_kind")} for n in n_list}


@pytest.mark.parametrize("n_stocks, seed", [(360, 1), (600, 2)])
def test_ticker_relabelling_keeps_paper_picks(tmp_path, n_stocks, seed):
    """Renaming every ticker so that their sort order, and so the order of
    the points, changes gives the same picks in paper mode on a connected
    market, as a set of (ticker, source eigenvector, kind) for each N.  The
    pick order may differ: one eigenvector's extrema are listed by point
    index."""
    assert run(["synth", "--outdir", str(tmp_path), "--n-stocks", str(n_stocks),
                "--m-days", "61", "--n-years", "1", "--seed", str(seed)]) == 0
    plain = tmp_path / "quotes.csv"
    panel = marketdata.load_quotes(plain)
    frame = marketdata.build_market_frame(panel, marketdata.calendar_from_quotes(panel, 2020))
    _, weights, _ = manifold.build_operator(frame.vectors, k=10, mode="paper")
    assert connected_components(abs(weights.entries), directed=False)[0] == 1
    tickers = list(panel.tickers)
    renamed = dict(zip(tickers, random.Random(seed).sample(tickers, len(tickers))))
    assert [renamed[t] for t in tickers] != tickers
    header, *rows = plain.read_text().splitlines()
    relabelled = tmp_path / "relabelled.csv"
    relabelled.write_text(lf_lines([header, *(
        ",".join([date, renamed[ticker], *rest])
        for date, ticker, *rest in map(lambda row: row.split(","), rows))]))
    want = paper_picks(plain, tmp_path / "plain", (10, 20, 40))
    got = paper_picks(relabelled, tmp_path / "relabelled", (10, 20, 40))
    original = {new: old for old, new in renamed.items()}
    assert {n: {(original[t], v, kind) for t, v, kind in picks} for n, picks in got.items()} == want


def test_solver_variation_keeps_paper_picks(tmp_path, monkeypatch):
    """On a connected market above the dense cutoff, paper mode (k=10) gives
    the same constituent files, so the same ordered (member, source
    eigenvector, kind) lists, for N=10, 20 and 40 on the dense path, with
    Lanczos seeds 0 and 1, with EIGEN_BATCH 8 and 32, and with one OpenBLAS
    thread in a child process."""
    from manifold_index import spectral

    market = synth_market(tmp_path, "--seed", "4", "--n-stocks", "360", "--m-days", "65",
                          "--n-sectors", "6", "--n-years", "1")
    panel = marketdata.load_quotes(market / "quotes.csv")
    frame = marketdata.build_market_frame(panel, marketdata.calendar_from_quotes(panel, 2020))
    _, weights, _ = manifold.build_operator(frame.vectors, k=10, mode="paper")
    assert frame.n > spectral.DENSE_CUTOFF
    assert connected_components(abs(weights.entries), directed=False)[0] == 1
    argv = ["select", "--quotes", str(market / "quotes.csv"), "--study-year", "2020",
            "--k", "10", "--mode", "paper", "--n-list", "10,20,40"]

    def lists(outdir):
        return {p.name: p.read_bytes() for p in sorted(outdir.glob("constituents_*.csv"))}

    lanczos = spectral.LanczosFactorization
    variants = {
        "dense": (spectral, "DENSE_CUTOFF", frame.n),
        "lanczos-seed-1": (spectral, "LanczosFactorization", partial(lanczos, seed=1)),
        "batch-8": (cli, "EIGEN_BATCH", 8),
    }
    assert run([*argv, "--outdir", str(tmp_path / "plain")]) == 0
    want = lists(tmp_path / "plain")
    assert len(want) == 3
    for name, (module, attribute, value) in variants.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attribute, value)
            assert run([*argv, "--outdir", str(tmp_path / name)]) == 0
        assert lists(tmp_path / name) == want, name
    done = subprocess.run([sys.executable, "-m", "manifold_index.cli", *argv,
                           "--outdir", str(tmp_path / "one-thread")],
                          env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert lists(tmp_path / "one-thread") == want


@pytest.mark.parametrize("read", [
    cli.load_config, synth.read_benchmark_csv, indexcalc.read_series_csv,
    selection.read_constituents_csv, indexcalc.read_actions_csv,
])
@pytest.mark.parametrize("data, line", [
    (b"date,level\n2021-01-04,1000.0\xff\n", 2),
    (b"date,level\r2021-01-04,1000.0\r2021-01-05,999.\xff\r", 3),
], ids=["lf", "cr"])
def test_readers_reject_non_utf8_naming_the_line(tmp_path, read, data, line):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    where = re.escape(f"{path}:{line}:")
    with pytest.raises(ParseError, match=f"^{where} not UTF-8 text: byte 0xff"):
        read(path)


# Each small CSV reader with a valid header, a valid row and a column it needs.
SMALL_FILES = {
    "benchmark": (synth.read_benchmark_csv, "date,level", "2021-01-04,1000.0", "level"),
    "series": (indexcalc.read_series_csv, "date,level,divisor", "2021-01-04,1000.0,0.5",
               "divisor"),
    "constituents": (selection.read_constituents_csv,
                     "rank,ticker,source_eigenvector,extremum_kind,market_cap",
                     "1,S0001,0,max,1000.0", "ticker"),
    "actions": (indexcalc.read_actions_csv,
                "effective_date,ticker,kind,new_shares,replacement_price",
                "2021-02-01,S0001,share_change,5000,", "kind"),
}


@pytest.mark.parametrize("which", SMALL_FILES)
@pytest.mark.parametrize("case, line", [
    ("long-row", 3), ("short-row", 3), ("missing-column", 1), ("blank-line-first", 4),
    ("field-past-csv-limit", 3),
])
def test_small_readers_share_one_row_rule(tmp_path, which, case, line):
    """Every row of a small CSV input has one field per header column, and
    the header names the columns its reader needs; a fault names its line."""
    read, header, row, needed = SMALL_FILES[which]
    width = header.count(",") + 1
    lines, message = {
        "long-row": ([header, row, row + ",junk"], f"expected {width} fields, got {width + 1}"),
        "short-row": ([header, row, row.rsplit(",", 1)[0]],
                      f"expected {width} fields, got {width - 1}"),
        "missing-column": ([header.replace(needed, "other"), row],
                           f"missing required column {needed!r}"),
        "blank-line-first": ([header, row, " \t ", row + ",junk"],
                             f"expected {width} fields, got {width + 1}"),
        "field-past-csv-limit": ([header, row, '"' + "x" * 200_000], "bad CSV: field larger"),
    }[case]
    path = tmp_path / f"{which}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{line}: {message}')}") as caught:
        read(path)
    assert caught.value.line_no == line


@pytest.fixture(scope="module")
def fuzz_quotes(tmp_path_factory):
    """A small valid quote file that ``select`` runs through."""
    outdir = tmp_path_factory.mktemp("fuzz")
    rc = run(["synth", "--outdir", str(outdir), "--seed", "2",
              "--n-stocks", "12", "--m-days", "20", "--n-sectors", "3"])
    assert rc == 0
    return (outdir / "quotes.csv").read_bytes()


BYTES = st.sampled_from([b'"', b"\r", b"\n", b",", b"\xff", b"\xe9", b"\x00", b" ", b"N"])
BYTE_MUTATION = st.tuples(
    st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 30_000),
    BYTES | st.binary(min_size=1, max_size=1),
)
ROW_MUTATION = st.tuples(
    st.sampled_from(["repeat", "drop", "swap"]), st.integers(0, 200), st.integers(0, 200)
)


def mutate(data: bytes, mutations) -> bytes:
    """Apply byte mutations (flip, insert or delete one byte) and row
    mutations (repeat or drop a line, swap two lines) in order."""
    for kind, at, arg in mutations:
        if kind in ("flip", "insert", "delete"):
            buf = bytearray(data)
            at %= len(buf) or 1
            if kind == "flip":
                buf[at:at + 1] = arg
            elif kind == "insert":
                buf[at:at] = arg
            else:
                del buf[at:at + 1]
            data = bytes(buf)
            continue
        lines = data.splitlines(keepends=True)
        if not lines:
            continue
        at %= len(lines)
        if kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "drop":
            del lines[at]
        else:
            other = arg % len(lines)
            lines[at], lines[other] = lines[other], lines[at]
        data = b"".join(lines)
    return data


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(BYTE_MUTATION, min_size=1, max_size=4))
def test_mutated_quote_file_exits_cleanly(fuzz_quotes, tmp_path, capsys, mutations):
    quotes = tmp_path / "quotes.csv"
    quotes.write_bytes(mutate(fuzz_quotes, mutations))
    capsys.readouterr()
    rc = run(["select", "--quotes", str(quotes), "--study-year", "2020",
              "--outdir", str(tmp_path / "out"), "--k", "3", "--n-list", "2"])
    err = capsys.readouterr().err.splitlines()
    assert rc in (0, 1)
    if rc == 1:
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a 12-stock market and the valid benchmark,
    constituents, series, actions and config files that ``index``,
    ``metrics`` and ``backtest`` read over it."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    assert run(["synth", "--outdir", str(root), "--seed", "2", "--n-stocks", "12",
                "--m-days", "65", "--n-sectors", "3", "--n-years", "2"]) == 0
    (root / "config.csv").write_text(
        "k = 3\nn_list = 4\nt = auto\nmode = balanced\nbase_level = 1000\n"
    )
    assert run(["backtest", "--config", str(root / "config.csv"),
                "--quotes", str(root / "quotes.csv"), "--benchmark", str(root / "benchmark.csv"),
                "--outdir", str(root / "out"), "--start-year", "2020", "--end-year", "2020"]) == 0
    (root / "out" / "2020" / "constituents_004.csv").rename(root / "constituents.csv")
    (root / "out" / "2020" / "index_004_2021.csv").rename(root / "series.csv")
    ticker = selection.read_constituents_csv(root / "constituents.csv")[0]
    (root / "actions.csv").write_text(
        "effective_date,ticker,kind,new_shares,replacement_price\n"
        f"2021-02-01,{ticker},share_change,5000,\n"
    )
    return root


# The commands that read each fuzzed file.
FUZZ_READERS = {
    "quotes": ("index", "backtest"),
    "benchmark": ("metrics", "backtest"),
    "constituents": ("index",),
    "series": ("metrics",),
    "actions": ("index", "backtest"),
    "config": ("index", "metrics", "backtest"),
}

def listing(directory):
    """Each path under ``directory`` with its bytes (None for a directory),
    or None when ``directory`` does not exist."""
    if not directory.exists():
        return None
    return {str(p.relative_to(directory)): None if p.is_dir() else p.read_bytes()
            for p in directory.rglob("*")}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated=st.dictionaries(
    st.sampled_from(sorted(FUZZ_READERS)),
    st.lists(BYTE_MUTATION | ROW_MUTATION, min_size=1, max_size=3),
    min_size=1, max_size=2,
))
def test_mutated_inputs_exit_cleanly(fuzz_inputs, tmp_path, capsys, mutated):
    """index, metrics and backtest end with exit 0, or exit 1 and one
    ``error:`` line, whatever the mutations do to one or two files they
    read, and leave ``--outdir`` as they found it when they exit 1."""
    paths = {name: fuzz_inputs / f"{name}.csv" for name in FUZZ_READERS}
    for which, mutations in mutated.items():
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_bytes(mutate((fuzz_inputs / f"{which}.csv").read_bytes(), mutations))
    # examples share tmp_path, so each starts from its own, not yet created, --outdir
    outdir = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    quotes, out = str(paths["quotes"]), str(outdir)
    argv = {
        "index": ["index", "--quotes", quotes, "--study-year", "2020",
                  "--actions", str(paths["actions"]), "--constituents", str(paths["constituents"])],
        "metrics": ["metrics", "--benchmark", str(paths["benchmark"]),
                    "--series", str(paths["series"])],
        "backtest": ["backtest", "--quotes", quotes, "--benchmark", str(paths["benchmark"]),
                     "--actions", str(paths["actions"]), "--start-year", "2020",
                     "--end-year", "2020"],
    }
    for command in dict.fromkeys(c for which in mutated for c in FUZZ_READERS[which]):
        before = listing(outdir)
        capsys.readouterr()
        rc = run(argv[command] + ["--config", str(paths["config"]), "--outdir", out])
        err = capsys.readouterr().err.splitlines()
        assert rc in (0, 1), command
        if rc == 1:
            assert len(err) == 1 and err[0].startswith("error: "), (command, err)
            assert listing(outdir) == before, command  # a failing command writes nothing

