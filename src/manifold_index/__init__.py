"""Spectral constituent selection and cap-weighted index construction.

Stocks are unit-norm price vectors; a KNN-graph operator pair (W, A) over
that point cloud yields eigenvectors whose strict local extrema become
index constituents, weighted by market cap with a divisor-maintained level.
"""

import os

# NumPy's and SciPy's OpenBLAS pools each spin an idle worker for 2**28 cycles, on the
# CPU the other needs; 4 lets it sleep at once.  Read at load, so set before NumPy.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
