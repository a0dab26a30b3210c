"""Constituent selection: local extrema of eigenvectors over KNN neighborhoods.

A point is a feature when the eigenvector value at that point is strictly
above (maximum) or strictly below (minimum) every value over the point's
own directed KNN list.  Features accumulate eigenvector by eigenvector in
ascending eigenvalue order (accumulate_features); a target count N takes
them at the first eigenvector where they number at least N, and
select_constituents trims any surplus smallest-market-cap first.

Comparisons are strict, on exact floats: equal neighbor values disqualify
both tests, so a constant (or numerically near-constant) eigenvector
contributes little or nothing and needs no special-casing.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from .errors import ParseError, read_rows, write_rows
from .manifold import AdjacencyGraph
from .spectral import EigenBasis


# Selected points in pick order, each with where it was first seen:
# member index -> (eigenvector index, "max" | "min").
Picks = dict[int, tuple[int, str]]


def detect_extrema(phi: np.ndarray, graph: AdjacencyGraph) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima of ``phi`` over each point's
    directed KNN neighborhood, both in ascending index order; ``phi``
    holds one value per graph point."""
    phi = np.asarray(phi, dtype=float)
    neighbor_vals = phi[graph.neighbors]
    own = phi[:, None]
    maxima = np.nonzero(np.all(neighbor_vals < own, axis=1))[0]
    minima = np.nonzero(np.all(neighbor_vals > own, axis=1))[0]
    return maxima, minima


def accumulate_features(basis: EigenBasis, graph: AdjacencyGraph) -> Iterator[Picks]:
    """Yield the growing picks after each eigenvector of ``basis``, in
    ascending eigenvalue order: every extremum so far, once, with the
    vector and kind it was first seen at.  The one dict is yielded each
    time and grows in place on the next step."""
    picks: Picks = {}
    for vec_idx in range(basis.count):
        maxima, minima = detect_extrema(basis.vectors[:, vec_idx], graph)
        # pooled union in ascending index order, so the accumulated list is
        # invariant under sign flips of any eigenvector
        pooled = sorted([(int(i), "max") for i in maxima] + [(int(i), "min") for i in minima])
        for i, kind in pooled:
            picks.setdefault(i, (vec_idx, kind))
        yield picks


def select_constituents(picks: Picks, n_target: int, caps: np.ndarray) -> Picks:
    """A new dict of ``picks`` in pick order without its smallest-cap
    members (ties by ascending point index), down to ``n_target``."""
    caps = np.asarray(caps, dtype=float)
    drop = set(heapq.nsmallest(len(picks) - n_target, picks, key=lambda i: (caps[i], i)))
    return {i: source for i, source in picks.items() if i not in drop}


def write_constituents_csv(path, picks: Picks, tickers, caps) -> None:
    """Export ``rank,ticker,source_eigenvector,extremum_kind,market_cap``."""
    caps = np.asarray(caps, dtype=float)
    write_rows(path, ["rank", "ticker", "source_eigenvector", "extremum_kind", "market_cap"],
               ([rank, tickers[idx], eigvec, kind, repr(float(caps[idx]))]
                for rank, (idx, (eigvec, kind)) in enumerate(picks.items(), start=1)))


def read_constituents_csv(path) -> list[str]:
    """Tickers from a constituent export, in rank order: at least one row,
    and every row names a ticker no other row names."""
    lines: dict[str, int] = {}  # ticker -> line naming it
    for line_no, row in read_rows(path, ("ticker",)):
        ticker = row["ticker"]
        if not ticker:
            raise ParseError(path, line_no, "no ticker")
        if ticker in lines:
            raise ParseError(path, line_no, f"ticker {ticker!r} repeats line {lines[ticker]}")
        lines[ticker] = line_no
    if not lines:
        raise ParseError(path, None, "no constituents")
    return list(lines)
