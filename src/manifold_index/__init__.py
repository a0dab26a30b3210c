"""Spectral constituent selection and cap-weighted index construction.

Stocks are unit-norm price vectors; a KNN-graph operator pair (W, A) over
that point cloud yields eigenvectors whose strict local extrema become
index constituents, weighted by market cap with a divisor-maintained level.
"""

__version__ = "0.1.0"
