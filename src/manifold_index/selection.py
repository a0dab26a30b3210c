"""Constituent selection: local extrema of eigenvectors over KNN neighborhoods.

A point is a feature when the eigenvector value at that point is strictly
above (maximum) or strictly below (minimum) every value over the point's
own directed KNN list.  first_seen scans a basis once, eigenvector by
eigenvector in ascending eigenvalue order, into arrays: the features in pick
order and their counts up to each eigenvector; a target count N takes them
at the first eigenvector where they number at least N, and
select_constituents trims any surplus smallest-market-cap first.

Comparisons are strict, on exact floats: equal neighbor values disqualify
both tests, so a constant (or numerically near-constant) eigenvector
contributes little or nothing and needs no special-casing.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, read_rows, write_rows
from .manifold import AdjacencyGraph
from .spectral import EigenBasis


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


def first_seen(basis: EigenBasis, graph: AdjacencyGraph) -> tuple[np.ndarray, ...]:
    """``(members, source, kind, counts)`` of ``basis``: ``source[i]`` is
    the first eigenvector where point i is an extremum (``basis.count`` if
    none) and ``kind[i]`` "max" or "min" there; ``members`` are the features
    by (source, index), so sign flips of an eigenvector keep their order, and
    the first ``counts[j]`` of them are those of eigenvectors 0..j."""
    source = np.full(graph.neighbors.shape[0], basis.count)
    kind = np.full(len(source), "", dtype="<U3")
    for col in range(basis.count):
        for found, name in zip(detect_extrema(basis.vectors[:, col], graph), ("max", "min")):
            new = found[source[found] == basis.count]
            source[new], kind[new] = col, name
    counts = np.cumsum(np.bincount(source, minlength=basis.count + 1)[:-1])
    return np.argsort(source, kind="stable")[: counts[-1]], source, kind, counts


def select_constituents(members: np.ndarray, n_target: int, caps: np.ndarray) -> np.ndarray:
    """``members`` in their order without the smallest-cap ones (ties by
    ascending point index), down to ``n_target``."""
    return np.delete(members, np.lexsort((members, caps[members]))[: len(members) - n_target])


def write_constituents_csv(path, members, source, kind, tickers, caps) -> None:
    """Export ``rank,ticker,source_eigenvector,extremum_kind,market_cap``, a
    row for each point of ``members`` in order, from the per-point arrays
    ``source``, ``kind`` and ``caps``."""
    write_rows(path, ["rank", "ticker", "source_eigenvector", "extremum_kind", "market_cap"],
               ([rank, tickers[i], source[i], kind[i], repr(float(caps[i]))]
                for rank, i in enumerate(members.tolist(), start=1)))


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
