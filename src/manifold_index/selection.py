"""Constituent selection: local extrema of eigenvectors over KNN neighborhoods.

A point is a feature when the eigenvector value at that point is strictly
above (maximum) or strictly below (minimum) every value over the point's
own directed KNN list.  Features accumulate eigenvector by eigenvector in
ascending eigenvalue order until the target count is reached; any surplus
is trimmed smallest-market-cap first.

Comparisons are strict, on exact floats: equal neighbor values disqualify
both tests, so a constant (or numerically near-constant) eigenvector
contributes little or nothing and needs no special-casing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientFeaturesError, ParameterError, ParseError, open_text
from .manifold import AdjacencyGraph
from .spectral import EigenBasis


@dataclass
class FeatureSet:
    """Insertion-ordered feature points with first-seen provenance:
    member index -> (eigenvector index, "max" | "min")."""

    members: list[int] = field(default_factory=list)
    provenance: dict[int, tuple[int, str]] = field(default_factory=dict)

    def add(self, index: int, eigvec: int, kind: str) -> None:
        if index not in self.provenance:
            self.members.append(index)
            self.provenance[index] = (eigvec, kind)

    def __len__(self) -> int:
        return len(self.members)


def detect_extrema(phi: np.ndarray, graph: AdjacencyGraph) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict local maxima and minima of ``phi`` over each point's
    directed KNN neighborhood, both in ascending index order."""
    phi = np.asarray(phi, dtype=float)
    if len(phi) != graph.n:
        raise ParameterError(f"phi has length {len(phi)}, graph has {graph.n} points")
    neighbor_vals = phi[graph.neighbors]
    own = phi[:, None]
    maxima = np.nonzero(np.all(neighbor_vals < own, axis=1))[0]
    minima = np.nonzero(np.all(neighbor_vals > own, axis=1))[0]
    return maxima, minima


def select_constituents(
    basis: EigenBasis,
    graph: AdjacencyGraph,
    n_target: int,
    caps: np.ndarray,
) -> FeatureSet:
    """Accumulate extrema over eigenvectors in ascending eigenvalue order,
    stop once the set holds at least ``n_target`` points, then trim the
    smallest-cap members (ties by ascending point index) down to exactly
    ``n_target``.

    Raises InsufficientFeaturesError when the basis runs out first; the
    error carries the counts so the caller can request more eigenpairs.
    """
    if n_target < 1:
        raise ParameterError(f"target constituent count must be >= 1, got {n_target}")
    caps = np.asarray(caps, dtype=float)
    if len(caps) != graph.n:
        raise ParameterError(f"caps has length {len(caps)}, graph has {graph.n} points")

    selected = FeatureSet()
    for vec_idx in range(basis.count):
        maxima, minima = detect_extrema(basis.vectors[:, vec_idx], graph)
        # pooled union in ascending index order, so the accumulated list is
        # invariant under sign flips of any eigenvector
        pooled = sorted([(int(i), "max") for i in maxima] + [(int(i), "min") for i in minima])
        for i, kind in pooled:
            selected.add(i, vec_idx, kind)
        if len(selected) >= n_target:
            break
    else:
        raise InsufficientFeaturesError(len(selected), n_target)

    if len(selected) > n_target:
        doomed = sorted(selected.members, key=lambda i: (caps[i], i))
        drop = set(doomed[: len(selected) - n_target])
        selected.members = [i for i in selected.members if i not in drop]
        selected.provenance = {i: selected.provenance[i] for i in selected.members}
    return selected


def write_constituents_csv(path, selected: FeatureSet, tickers, caps) -> None:
    """Export ``rank,ticker,source_eigenvector,extremum_kind,market_cap``."""
    caps = np.asarray(caps, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "ticker", "source_eigenvector", "extremum_kind", "market_cap"])
        for rank, idx in enumerate(selected.members, start=1):
            eigvec, kind = selected.provenance[idx]
            writer.writerow([rank, tickers[idx], eigvec, kind, repr(float(caps[idx]))])


def read_constituents_csv(path) -> list[str]:
    """Tickers from a constituent export, in rank order: at least one row,
    and every row names a ticker no other row names."""
    lines: dict[str, int] = {}  # ticker -> line naming it
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        if "ticker" not in (reader.fieldnames or ()):
            raise ParseError(path, 1, "missing required column 'ticker'")
        for row in reader:
            ticker = row["ticker"]  # None in a short row
            if not ticker:
                raise ParseError(path, reader.line_num, "no ticker")
            if ticker in lines:
                raise ParseError(
                    path, reader.line_num, f"ticker {ticker!r} repeats line {lines[ticker]}"
                )
            lines[ticker] = reader.line_num
    if not lines:
        raise ParseError(path, None, "no constituents")
    return list(lines)
