"""Span tracing of the pipeline from outside the package.

The traced benchmark child replaces public functions of each layer module
with timing wrappers before it calls ``manifold_index.cli.main``.  This
reaches every call because ``cli`` calls the layers through their modules
(``marketdata.load_quotes(...)``) and calls inside a module resolve through
that module's globals.

Only coarse functions are wrapped: the finest, ``selection.detect_extrema``,
runs a few hundred times per pipeline run, so the wrappers cost little.
A name that a later version of the package no longer defines is reported as
absent; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

PACKAGE = "manifold_index"

# Artifact readers and writers, bucketed together as ``cli.artifact_io_s``.
ARTIFACT_IO = "cli.artifact_io_s"

# (module, function, metric that receives the span's self time).  Every
# wrapped function feeds exactly one metric, so the self-time metrics plus
# ``cli.startup_s`` partition the child's wall time.
PLAN = (
    ("cli", "main", "cli.glue_s"),
    ("cli", "cmd_backtest", "cli.glue_s"),
    ("cli", "cmd_select", "cli.glue_s"),
    ("cli", "cmd_index", "cli.glue_s"),
    ("cli", "cmd_metrics", "cli.glue_s"),
    ("cli", "grow_basis_and_select", "cli.glue_s"),
    ("marketdata", "load_quotes", "marketdata.load_s"),
    ("marketdata", "calendar_from_quotes", "marketdata.calendar_s"),
    ("marketdata", "build_market_frame", "marketdata.frame_s"),
    ("manifold", "build_operator", "manifold.operator_s"),
    ("manifold", "knn_graph", "manifold.knn_s"),
    ("manifold", "auto_bandwidth", "manifold.operator_s"),
    ("manifold", "weight_tilde", "manifold.operator_s"),
    ("manifold", "symmetrize", "manifold.operator_s"),
    ("manifold", "mass_matrix", "manifold.operator_s"),
    ("spectral", "solve_generalized", "spectral.solve_s"),
    ("spectral", "residuals", "spectral.residual_s"),
    ("selection", "select_constituents", "selection.select_s"),
    ("selection", "detect_extrema", "selection.select_s"),
    ("selection", "write_constituents_csv", ARTIFACT_IO),
    ("selection", "read_constituents_csv", ARTIFACT_IO),
    ("indexcalc", "read_actions_csv", ARTIFACT_IO),
    ("indexcalc", "compute_series", "indexcalc.series_s"),
    ("indexcalc", "adjust_divisor", "indexcalc.series_s"),
    ("indexcalc", "write_series_csv", ARTIFACT_IO),
    ("indexcalc", "read_series_csv", ARTIFACT_IO),
    ("metrics", "evaluate", "metrics.evaluate_s"),
    ("metrics", "write_reports_csv", ARTIFACT_IO),
    ("metrics", "write_stability_csv", ARTIFACT_IO),
    ("synth", "read_benchmark_csv", ARTIFACT_IO),
)

# Span of the package import in the traced child; a root beside cli.main.
IMPORT_SPAN = "startup.import"
ROOT_SPAN = "cli.main"

# Subcommand spans reported with their inclusive duration.
INCLUSIVE = {
    "cli.select_s": "cli.cmd_select",
    "cli.index_s": "cli.cmd_index",
    "cli.metrics_s": "cli.cmd_metrics",
}

# Spans that run with tracemalloc on; nothing else pays for it.
MEMORY_SPANS = {"manifold.knn_graph"}


def _first(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_knn(args, kwargs, result):
    return {"n": int(result.neighbors.shape[0])}


def _count_symmetrize(args, kwargs, result):
    return {"edges": (int(result.entries.nnz) - int(result.n)) // 2}


def _count_solve(args, kwargs, result):
    return {"p": int(_first(args, kwargs, 2, "p"))}


def _count_residuals(args, kwargs, result):
    return {"worst": float(max(result))}


def _count_frame(args, kwargs, result):
    return {"kept": int(result.n)}


def _count_series(args, kwargs, result):
    dates = _first(args, kwargs, 0, "dates")
    members = _first(args, kwargs, 2, "constituents")
    return {"member_days": len(dates) * len(members)}


def _count_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_first(args, kwargs, 0, "path"))}


# Counts recorded at the span boundary from the call's arguments and result.
COUNTERS = {
    "marketdata.build_market_frame": _count_frame,
    "manifold.knn_graph": _count_knn,
    "manifold.symmetrize": _count_symmetrize,
    "spectral.solve_generalized": _count_solve,
    "spectral.residuals": _count_residuals,
    "indexcalc.compute_series": _count_series,
    "selection.write_constituents_csv": _count_written,
    "indexcalc.write_series_csv": _count_written,
    "metrics.write_reports_csv": _count_written,
    "metrics.write_stability_csv": _count_written,
}


class Tracer:
    """In-memory span recorder.  A span is a dict with ``name``, ``start``,
    ``end`` (perf_counter seconds), ``parent`` (index or None), ``error``
    (exception class name or None) and ``attrs`` (boundary counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "error": None, "attrs": {}}
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        span = self._open(name)
        span["start"], span["end"] = start, end

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            span = self._open(name)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if memory:
                    span["attrs"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                try:
                    span["attrs"].update(counter(args, kwargs, result))
                except Exception as exc:  # a count must never break the run
                    span["attrs"]["counter_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self, plan=PLAN) -> list[str]:
        """Replace every planned function with its traced wrapper; return the
        ``module.function`` names the package does not define."""
        absent = []
        for module_name, attr, _ in plan:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(name)
                continue
            setattr(module, attr, self.wrap(fn, name))
        return absent


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children of one span run one after another, never overlapping."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def root_indices(spans: list[dict]) -> list[int]:
    return [i for i, s in enumerate(spans) if s["parent"] is None]


def layer_metrics(spans: list[dict], quote_rows: int, universe: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    ``quote_rows`` is the number of data rows in the input quote file and
    ``universe`` the number of distinct tickers in it; every ``load_quotes``
    call parses the whole file and every frame build starts from the whole
    universe.  Every metric in seconds is a self time, except the
    subcommand durations in INCLUSIVE.
    """
    bucket_of = {f"{m}.{f}": bucket for m, f, bucket in PLAN}
    selfs = self_times(spans)
    out: dict[str, float] = {bucket: 0.0 for bucket in bucket_of.values()}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)
        if s["name"] in bucket_of:
            out[bucket_of[s["name"]]] += selfs[i]
    for metric, name in INCLUSIVE.items():
        out[metric] = sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ()))

    out["marketdata.load_calls"] = calls("marketdata.load_quotes")
    out["marketdata.rows_parsed"] = out["marketdata.load_calls"] * quote_rows
    out["marketdata.rows_per_s"] = (
        out["marketdata.rows_parsed"] / out["marketdata.load_s"] if out["marketdata.load_s"] else 0.0
    )
    kept = attr_sum("marketdata.build_market_frame", "kept")
    out["marketdata.stocks_kept"] = kept
    out["marketdata.stocks_dropped"] = calls("marketdata.build_market_frame") * universe - kept

    knn = by_name.get("manifold.knn_graph", ())
    out["manifold.knn_peak_mb"] = max(
        (spans[i]["attrs"].get("peak_bytes", 0) for i in knn), default=0
    ) / 2**20
    out["manifold.knn_bytes_computed"] = sum(16 * spans[i]["attrs"].get("n", 0) ** 2 for i in knn)
    out["manifold.edges"] = attr_sum("manifold.symmetrize", "edges")

    solves = by_name.get("spectral.solve_generalized", ())
    out["spectral.solve_calls"] = len(solves)
    out["spectral.pairs_requested"] = attr_sum("spectral.solve_generalized", "p")
    # The basis a select call ends with is its last solve's; earlier solves
    # of the same caller were thrown away when the basis grew.
    last_by_parent = {spans[i]["parent"]: i for i in solves}
    out["spectral.pairs_kept"] = sum(spans[i]["attrs"].get("p", 0) for i in last_by_parent.values())
    out["spectral.useful_ratio"] = (
        out["spectral.pairs_kept"] / out["spectral.pairs_requested"]
        if out["spectral.pairs_requested"] else 0.0
    )
    out["spectral.worst_residual"] = max(
        (spans[i]["attrs"].get("worst", 0.0) for i in by_name.get("spectral.residuals", ())),
        default=0.0,
    )

    selects = by_name.get("selection.select_constituents", ())
    short = sum(1 for i in selects if spans[i]["error"] == "InsufficientFeaturesError")
    out["selection.calls"] = len(selects)
    out["selection.short_calls"] = short
    out["selection.success_ratio"] = (len(selects) - short) / len(selects) if selects else 0.0
    out["selection.vectors_scanned"] = calls("selection.detect_extrema")

    out["indexcalc.series_calls"] = calls("indexcalc.compute_series")
    out["indexcalc.member_days"] = attr_sum("indexcalc.compute_series", "member_days")
    out["indexcalc.divisor_events"] = calls("indexcalc.adjust_divisor")

    out["metrics.evaluate_calls"] = calls("metrics.evaluate")
    out["cli.artifact_bytes"] = sum(
        attr_sum(f"{m}.{f}", "bytes") for m, f, bucket in PLAN if bucket == ARTIFACT_IO
    )
    return out
