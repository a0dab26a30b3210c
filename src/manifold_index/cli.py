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
any flag given on the command line overrides the file.  The stage commands
communicate through CSV artifacts, so each can be re-run from the previous
stage's output; backtest hands them on in memory.  A command writes its
files only once it has computed all of them, so a failing command writes
nothing.  Exit code is 0 on success; failures, usage errors included, print
one diagnostic line to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import indexcalc, manifold, marketdata, metrics, selection, spectral, synth
from .errors import ParameterError, ParseError, PipelineError, read_text

DEFAULT_N_LIST = (50, 100, 150, 180, 380)
EIGEN_BATCH = 32  # eigenpairs added to the basis per growth step

# The files a command will write: output path -> (stage, function writing it there).
Writes = dict[Path, tuple[str, Callable[[Path], None]]]

_SELECTING = ("select", "backtest")
_REQUIRED = ("quotes", "benchmark", "study_year")  # every command reading these needs a value


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
    for line_no, raw in enumerate(read_text(path), start=1):
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
    mass: np.ndarray,
    graph: manifold.AdjacencyGraph,
    caps: np.ndarray,
    n_targets,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Select constituents for each target count N: its members in pick
    order, with the per-point source and kind arrays of the basis that met
    it.  Each basis of ``spectral.growing_bases`` (EIGEN_BATCH more
    eigenpairs per step) is scanned once for every N still unmet; an N
    takes its list at the first eigenvector where the features number at
    least N.  Fatal once all n eigenpairs leave an N unmet."""
    pending = sorted(set(n_targets))
    out = {}
    for basis in spectral.growing_bases(weights, mass, EIGEN_BATCH):
        members, source, kind, counts = selection.first_seen(basis, graph)
        while pending and counts[-1] >= pending[0]:
            n_target = pending.pop(0)
            prefix = members[: counts[np.searchsorted(counts, n_target)]]
            out[n_target] = selection.select_constituents(prefix, n_target, caps), source, kind
        if not pending:
            return out
    raise PipelineError(
        f"all {weights.n} eigenvectors give fewer than {pending[0]} feature "
        "points; only a smaller --n-list or a smaller --k can help"
    )


def cmd_select(
    cfg: PipelineConfig, quotes: marketdata.QuotePanel, writes: Writes
) -> dict[Path, list[str]]:
    """Run marketdata -> manifold -> spectral -> selection for the study year.
    Adds one constituent CSV per requested N to ``writes`` and returns each
    CSV's tickers in rank order."""
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
    lists = {}
    for n_target in cfg.n_list:
        path = Path(cfg.outdir) / f"constituents_{n_target:03d}.csv"
        members, source, kind = picks[n_target]
        writes[path] = "select", partial(
            selection.write_constituents_csv, members=members, source=source, kind=kind,
            tickers=frame.tickers, caps=frame.caps,
        )
        lists[path] = [frame.tickers[i] for i in members]
    return lists


def cmd_index(
    cfg: PipelineConfig, quotes: marketdata.QuotePanel, lists: dict[Path, list[str]],
    writes: Writes,
) -> dict[Path, indexcalc.IndexSeries]:
    """Compute the index series of the year after the study year for each
    constituent list (its CSV's path -> tickers).  Adds one series CSV per
    list to ``writes`` and returns the series by output path."""
    target_year = cfg.study_year + 1
    rows = marketdata.calendar_from_quotes(quotes, target_year)
    actions = indexcalc.read_actions_csv(cfg.actions) if cfg.actions else []

    sources: dict[Path, Path] = {}  # output -> the list it values
    out: dict[Path, indexcalc.IndexSeries] = {}
    for cfile, tickers in lists.items():
        stem = cfile.stem.replace("constituents", "index")
        path = Path(cfg.outdir) / f"{stem}_{target_year}.csv"
        if path in sources:
            raise ParameterError(f"constituent lists {sources[path]} and {cfile} "
                                 f"share the output name {path.name!r}")
        sources[path] = cfile
        closes, shares = marketdata.index_inputs(quotes, rows, tickers)
        out[path] = indexcalc.compute_series(
            quotes.dates[rows], closes, tickers, shares, cfg.base_level, actions
        )
        writes[path] = "index", partial(indexcalc.write_series_csv, series=out[path])
    return out


def cmd_metrics(
    cfg: PipelineConfig, series: dict[Path, indexcalc.IndexSeries], writes: Writes
) -> tuple[Path, Path]:
    """Evaluate each series (its CSV's path -> series) against the benchmark,
    one report row per index per calendar year, then summarize stability
    across years and across series.  Adds metrics.csv and stability.csv to
    ``writes``."""
    named: dict[str, Path] = {}  # a report names its series by the file's stem
    for sfile in sorted(series):
        if sfile.stem in named:
            raise ParameterError(
                f"series {named[sfile.stem]} and {sfile} share the name {sfile.stem!r}"
            )
        named[sfile.stem] = sfile
    benchmark = synth.read_benchmark_csv(cfg.benchmark)
    reports: list[tuple[str, int, dict[str, float]]] = []
    for name, sfile in named.items():
        one = series[sfile]
        for year in sorted({date.year for date in one.dates}):
            bench_rows = marketdata.year_rows(benchmark.dates, year)
            if bench_rows.start == bench_rows.stop:
                raise ParameterError(f"benchmark has no dates for year {year} ({sfile})")
            chunk = one.rows(marketdata.year_rows(one.dates, year))
            try:
                reports.append((name, year, metrics.evaluate(chunk, benchmark.rows(bench_rows))))
            except PipelineError as exc:
                raise PipelineError(f"{exc} ({sfile}, year {year})") from None

    report_path = Path(cfg.outdir) / "metrics.csv"
    stability_path = Path(cfg.outdir) / "stability.csv"
    writes[report_path] = "metrics", partial(metrics.write_reports_csv, rows=reports)
    writes[stability_path] = "metrics", partial(
        metrics.write_stability_csv, rows=metrics.stability_rows(reports)
    )
    return report_path, stability_path


def cmd_synth(args) -> tuple[Path, Path]:
    """Generate a synthetic market and emit quotes.csv + benchmark.csv."""
    given = {f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)}
    config = synth.SynthConfig(**{k: v for k, v in given.items() if v is not None})
    market = synth.generate_market(config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    quotes_path = outdir / "quotes.csv"
    bench_path = outdir / "benchmark.csv"
    synth.write_quotes_csv(quotes_path, market)
    synth.write_benchmark_csv(bench_path, market.benchmark)
    _log(f"synth: wrote {quotes_path} and {bench_path}")
    return quotes_path, bench_path


def cmd_backtest(
    cfg: PipelineConfig, quotes: marketdata.QuotePanel, start_year: int, end_year: int,
    writes: Writes,
) -> tuple[Path, Path]:
    """Annual refresh loop: for each study year in [start, end], select
    constituents and compute the next year's index, then evaluate all series
    against the benchmark.  Every stage's files go to ``writes``, so nothing
    is written unless the whole loop succeeds."""
    if start_year > end_year:
        raise ParameterError(f"start year {start_year} is after end year {end_year}")
    for year in range(start_year, end_year + 2):  # every study year and target year
        marketdata.calendar_from_quotes(quotes, year)
    series: dict[Path, indexcalc.IndexSeries] = {}
    for study_year in range(start_year, end_year + 1):
        year_cfg = replace(
            cfg, study_year=study_year, outdir=str(Path(cfg.outdir) / str(study_year))
        )
        series.update(cmd_index(year_cfg, quotes, cmd_select(year_cfg, quotes, writes), writes))
    return cmd_metrics(cfg, series, writes)


def write_all(writes: Writes) -> None:
    """Write each file of ``writes`` in order, creating its directory."""
    for path, (stage, write) in writes.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        _log(f"{stage}: wrote {path}")


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


def _read_each(files, read) -> dict:
    """``read`` of each named file, by path; a file named twice is an error."""
    out = {}
    for path in map(Path, files):
        if path in out:
            raise ParameterError(f"{path} is named twice")
        out[path] = read(path)
    return out


def _import_scipy() -> None:
    """Load the SciPy modules of the operator and the eigensolver."""
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "synth":
        cmd_synth(args)
        return
    cfg = _config_from_args(args)
    for f in fields(PipelineConfig):
        needed = f.name in _REQUIRED and args.command in f.metadata["commands"]
        if needed and getattr(cfg, f.name) is None:
            raise ParameterError(f"{args.command} needs {_flag(f.name)}")
    writes: Writes = {}
    if args.command == "metrics":
        cmd_metrics(cfg, _read_each(args.series, indexcalc.read_series_csv), writes)
    else:
        # parsed once, on two CPUs; select and backtest import SciPy meanwhile
        meanwhile = _import_scipy if args.command in _SELECTING else None
        quotes = marketdata.load_quotes(cfg.quotes, meanwhile=meanwhile)
        if args.command == "select":
            cmd_select(cfg, quotes, writes)
        elif args.command == "index":
            lists = _read_each(args.constituents, selection.read_constituents_csv)
            cmd_index(cfg, quotes, lists, writes)
        else:
            cmd_backtest(cfg, quotes, args.start_year, args.end_year, writes)
    # every input is read and every artifact computed before the first write
    write_all(writes)


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
