"""Batch pipeline CLI.

Subcommands:

    synth     generate a synthetic market (quotes.csv + benchmark.csv)
    select    study-year preprocessing, operator build, eigen solve and
              constituent selection; one constituent CSV per requested N
    index     divisor-maintained index series for the year after the study
              year from constituent CSVs; one series CSV per input
    metrics   per-index-per-year reports against a benchmark, plus the
              stability summary
    backtest  select + index over consecutive year pairs, then metrics

Configuration is a flat ``key=value`` file ('#' starts a comment) whose keys
are the PipelineConfig fields; a command's flags are the fields it reads, and
any flag given on the command line overrides the file.  Stages communicate
through CSV artifacts only, so each can be re-run from the previous stage's
output.  Exit code is 0 on success; failures, usage errors included, print
one diagnostic line to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import indexcalc, manifold, marketdata, metrics, selection, spectral, synth
from .errors import (
    InsufficientFeaturesError,
    ParameterError,
    ParseError,
    PipelineError,
    open_text,
)

DEFAULT_N_LIST = (50, 100, 150, 180, 380)
EIGEN_BATCH = 32  # eigenpairs added to the basis per growth step

_SELECTING = ("select", "backtest")


def _parse_t(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"bandwidth must be a number or 'auto', got {text!r}") from None


def _parse_n_list(text: str) -> tuple[int, ...]:
    values = tuple(int(tok) for tok in text.replace(",", " ").split())
    if not values or any(v < 1 for v in values):
        raise ParameterError(f"bad constituent-count list {text!r}")
    return values


def _parse_mode(text: str) -> str:
    if text not in manifold.MODES:
        raise ParameterError(f"expected one of {manifold.MODES}, got {text!r}")
    return text


def _setting(default, parse, help: str, commands: tuple[str, ...]):
    """A PipelineConfig field: ``parse`` reads its config-file value and its
    flag's text; the flag exists on ``commands`` only."""
    return field(default=default, metadata={"parse": parse, "help": help, "commands": commands})


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of the pipeline commands.  Each field is a config-file key
    and the flag ``--name`` (``_`` written ``-``) of the commands that read it."""

    quotes: str | None = _setting(None, str, "quote CSV path", ("select", "index", "backtest"))
    benchmark: str | None = _setting(None, str, "benchmark CSV path", ("metrics", "backtest"))
    actions: str | None = _setting(None, str, "corporate-action CSV path", ("index", "backtest"))
    outdir: str = _setting(
        "out", str, "output directory", ("select", "index", "metrics", "backtest")
    )
    study_year: int | None = _setting(
        None, int, "study year; index values the year after it", ("select", "index")
    )
    k: int = _setting(manifold.DEFAULT_K, int, "KNN neighbor count", _SELECTING)
    t: float | None = _setting(
        None, _parse_t, "kernel bandwidth, or 'auto' for the mean squared KNN distance", _SELECTING
    )
    mode: str = _setting(
        "balanced", _parse_mode, f"operator mode, one of {manifold.MODES}", _SELECTING
    )
    n_list: tuple[int, ...] = _setting(
        DEFAULT_N_LIST, _parse_n_list, "comma-separated constituent counts", _SELECTING
    )
    base_level: float = _setting(
        indexcalc.DEFAULT_BASE_LEVEL, float, "index level on the first day", ("index", "backtest")
    )


def load_config(path) -> PipelineConfig:
    """Read a flat key=value config file into a PipelineConfig."""
    parsers = {f.name: f.metadata["parse"] for f in fields(PipelineConfig)}
    values = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, line_no, f"expected key=value, got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ParseError(path, line_no, f"unknown config key {key!r}")
            try:
                values[key] = parsers[key](text)
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad value for {key}: {exc}") from None
    return PipelineConfig(**values)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings overridden by the flags given, whose text
    goes through the same parsers."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    updates = {}
    for f in fields(PipelineConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            try:
                updates[f.name] = f.metadata["parse"](text)
            except ValueError as exc:
                raise ParameterError(f"bad value for {_flag(f.name)}: {exc}") from None
    return replace(cfg, **updates)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# pipeline stages


def grow_basis_and_select(
    weights: manifold.WeightMatrix,
    mass: manifold.MassMatrix,
    graph: manifold.AdjacencyGraph,
    caps: np.ndarray,
    n_targets,
) -> dict[int, selection.Picks]:
    """Select constituents for each target count from the smallest basis of
    ``spectral.growing_bases`` (EIGEN_BATCH more eigenpairs per step) whose
    features suffice.  Fatal once all n eigenpairs are exhausted."""
    bases = spectral.growing_bases(weights, mass, EIGEN_BATCH)
    basis = next(bases)
    out: dict[int, selection.Picks] = {}
    for n_target in sorted(n_targets):
        while True:
            try:
                out[n_target] = selection.select_constituents(basis, graph, n_target, caps)
                break
            except InsufficientFeaturesError:
                if basis.count >= weights.n:
                    raise
                basis = next(bases)
    return out


def cmd_select(cfg: PipelineConfig, quotes: marketdata.QuotePanel) -> list[Path]:
    """Run marketdata -> manifold -> spectral -> selection for the study year
    and write one constituent CSV per requested N."""
    if cfg.study_year is None:
        raise ParameterError("select needs --study-year")
    rows = marketdata.calendar_from_quotes(quotes, cfg.study_year)
    frame = marketdata.build_market_frame(quotes, rows)
    for n_target in cfg.n_list:
        if n_target >= frame.n:
            raise ParameterError(
                f"requested N={n_target} but only {frame.n} stocks survive screening"
            )
    _log(f"select: {frame.n} stocks x {frame.vectors.shape[1]} days after preprocessing")

    graph, weights, mass = manifold.build_operator(frame.vectors, k=cfg.k, t=cfg.t, mode=cfg.mode)
    picks = grow_basis_and_select(weights, mass, graph, frame.caps, cfg.n_list)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for n_target in cfg.n_list:
        path = outdir / f"constituents_{n_target:03d}.csv"
        selection.write_constituents_csv(path, picks[n_target], frame.tickers, frame.caps)
        paths.append(path)
        _log(f"select: wrote {path}")
    return paths


def cmd_index(cfg: PipelineConfig, quotes: marketdata.QuotePanel, constituent_files) -> list[Path]:
    """Compute the index series of the year after the study year for each
    constituent CSV, then write them all."""
    if cfg.study_year is None:
        raise ParameterError("index needs --study-year")
    target_year = cfg.study_year + 1
    outdir = Path(cfg.outdir)
    rows = marketdata.calendar_from_quotes(quotes, target_year)
    actions = indexcalc.read_actions_csv(cfg.actions) if cfg.actions else []

    written: dict[Path, tuple[Path, indexcalc.IndexSeries]] = {}  # output -> (list, series)
    for cfile in map(Path, constituent_files):
        stem = cfile.stem.replace("constituents", "index")
        path = outdir / f"{stem}_{target_year}.csv"
        if path in written:
            raise ParameterError(f"constituent lists {written[path][0]} and {cfile} "
                                 f"share the output name {path.name!r}")
        tickers = selection.read_constituents_csv(cfile)
        closes, shares = marketdata.index_inputs(quotes, rows, tickers)
        members = [indexcalc.Constituent(t, s) for t, s in zip(tickers, shares.tolist())]
        written[path] = cfile, indexcalc.compute_series(
            quotes.dates[rows], closes, members, cfg.base_level, actions
        )

    outdir.mkdir(parents=True, exist_ok=True)
    for path, (_, series) in written.items():
        indexcalc.write_series_csv(path, series)
        _log(f"index: wrote {path}")
    return list(written)


def cmd_metrics(cfg: PipelineConfig, series_files) -> tuple[Path, Path]:
    """Evaluate each series CSV against the benchmark, one report row per
    index per calendar year, then summarize stability across years and
    across series."""
    if cfg.benchmark is None:
        raise ParameterError("metrics needs --benchmark")
    named: dict[str, Path] = {}  # a report names its series by the file's stem
    for sfile in sorted(Path(p) for p in series_files):
        if sfile.stem in named:
            raise ParameterError(
                f"series {named[sfile.stem]} and {sfile} share the name {sfile.stem!r}"
            )
        named[sfile.stem] = sfile
    benchmark = synth.read_benchmark_csv(cfg.benchmark)
    reports: list[tuple[str, int, dict[str, float]]] = []
    for name, sfile in named.items():
        series = indexcalc.read_series_csv(sfile)
        for year in sorted({date.year for date in series.dates}):
            bench_rows = marketdata.year_rows(benchmark.dates, year)
            if bench_rows.start == bench_rows.stop:
                raise ParameterError(f"benchmark has no dates for year {year} ({sfile})")
            chunk = series.rows(marketdata.year_rows(series.dates, year))
            reports.append((name, year, metrics.evaluate(chunk, benchmark.rows(bench_rows))))
    stability = metrics.stability_rows(reports)

    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "metrics.csv"
    metrics.write_reports_csv(report_path, reports)
    _log(f"metrics: wrote {report_path}")
    stability_path = outdir / "stability.csv"
    metrics.write_stability_csv(stability_path, stability)
    _log(f"metrics: wrote {stability_path}")
    return report_path, stability_path


def cmd_synth(args) -> tuple[Path, Path]:
    """Generate a synthetic market and emit quotes.csv + benchmark.csv."""
    given = {f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)}
    config = synth.SynthConfig(**{k: v for k, v in given.items() if v is not None})
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    market = synth.generate_market(config)
    quotes_path = outdir / "quotes.csv"
    bench_path = outdir / "benchmark.csv"
    synth.write_quotes_csv(quotes_path, market)
    synth.write_benchmark_csv(bench_path, market.benchmark)
    _log(f"synth: wrote {quotes_path} and {bench_path}")
    return quotes_path, bench_path


def cmd_backtest(
    cfg: PipelineConfig, quotes: marketdata.QuotePanel, start_year: int, end_year: int
) -> tuple[Path, Path]:
    """Annual refresh loop: for each study year in [start, end], select
    constituents and compute the next year's index, then evaluate all series
    against the benchmark."""
    if cfg.benchmark is None:
        raise ParameterError("backtest needs --benchmark")
    if start_year > end_year:
        raise ParameterError(f"start year {start_year} is after end year {end_year}")
    for year in range(start_year, end_year + 2):  # every study year and target year
        marketdata.calendar_from_quotes(quotes, year)
    series_files: list[Path] = []
    for study_year in range(start_year, end_year + 1):
        year_cfg = replace(
            cfg, study_year=study_year, outdir=str(Path(cfg.outdir) / str(study_year))
        )
        constituent_files = cmd_select(year_cfg, quotes)
        series_files.extend(cmd_index(year_cfg, quotes, constituent_files))
    return cmd_metrics(cfg, series_files)


# ---------------------------------------------------------------------------
# argument parsing


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into the one-line ``error:`` exit of ``main``."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manifold-index", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic market")
    p_synth.add_argument("--outdir", default="out", help="output directory")
    for f in fields(synth.SynthConfig):
        p_synth.add_argument(_flag(f.name), type=type(f.default), help=f"default {f.default}")

    commands = {
        "select": sub.add_parser("select", help="select constituents from the study year"),
        "index": sub.add_parser("index", help="index series of the year after the study year"),
        "metrics": sub.add_parser("metrics", help="evaluate series against a benchmark"),
        "backtest": sub.add_parser(
            "backtest", help="run select+index over year pairs, then metrics"
        ),
    }
    for command in commands.values():
        command.add_argument("--config", help="flat key=value config file")
    for f in fields(PipelineConfig):
        for name in f.metadata["commands"]:
            commands[name].add_argument(_flag(f.name), help=f.metadata["help"])
    commands["index"].add_argument("--constituents", nargs="+", required=True,
                                   help="constituent CSVs from the select stage")
    commands["metrics"].add_argument("--series", nargs="+", required=True,
                                     help="index series CSVs")
    commands["backtest"].add_argument("--start-year", type=int, required=True,
                                      help="first study year")
    commands["backtest"].add_argument("--end-year", type=int, required=True,
                                      help="last study year")
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "synth":
        cmd_synth(args)
        return
    cfg = _config_from_args(args)
    if args.command == "metrics":
        cmd_metrics(cfg, args.series)
        return
    if cfg.quotes is None:
        raise ParameterError(f"{args.command} needs --quotes")
    # parsed once, however many years the command covers
    quotes = marketdata.load_quotes(cfg.quotes)
    if args.command == "select":
        cmd_select(cfg, quotes)
    elif args.command == "index":
        cmd_index(cfg, quotes, args.constituents)
    else:
        cmd_backtest(cfg, quotes, args.start_year, args.end_year)


def main(argv=None) -> int:
    # stderr is held back until the command succeeds, so a failing command
    # prints its one error line and nothing else
    held = io.StringIO()
    try:
        with contextlib.redirect_stderr(held):
            _dispatch(_build_parser().parse_args(argv))
    except (PipelineError, OSError) as exc:
        # escaped, text quoted from an input cannot break the line
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 1
    sys.stderr.write(held.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
