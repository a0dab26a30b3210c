"""Spectral constituent selection and cap-weighted index construction.

Stocks are unit-norm price vectors; a KNN-graph operator pair (W, A) over
that point cloud yields eigenvectors whose strict local extrema become
index constituents, weighted by market cap with a divisor-maintained level.
"""

from .errors import PipelineError
from .indexcalc import (
    Constituent,
    CorporateAction,
    DivisorState,
    IndexSeries,
    adjust_divisor,
    compute_series,
    index_value,
    init_divisor,
)
from .manifold import (
    AdjacencyGraph,
    MassMatrix,
    WeightMatrix,
    auto_bandwidth,
    build_operator,
    knn_graph,
    mass_matrix,
    symmetrize,
    weight_tilde,
)
from .marketdata import (
    MarketFrame,
    QuotePanel,
    TradingCalendar,
    build_market_frame,
    complete_series,
    load_quotes,
    normalize,
    screen_universe,
)
from .metrics import (
    MetricsReport,
    ReturnSeries,
    alpha,
    beta,
    evaluate,
    jensen_alpha,
    mean_baseline_distance,
    monthly_returns,
    pearson,
    stability_std,
)
from .selection import FeatureSet, detect_extrema, select_constituents
from .spectral import EigenBasis, dense_oracle, solve_generalized
from .synth import SynthConfig, SyntheticMarket, generate_market

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "Constituent",
    "CorporateAction",
    "DivisorState",
    "EigenBasis",
    "FeatureSet",
    "IndexSeries",
    "MarketFrame",
    "MassMatrix",
    "MetricsReport",
    "PipelineError",
    "QuotePanel",
    "ReturnSeries",
    "SynthConfig",
    "SyntheticMarket",
    "TradingCalendar",
    "WeightMatrix",
    "adjust_divisor",
    "alpha",
    "auto_bandwidth",
    "beta",
    "build_market_frame",
    "build_operator",
    "complete_series",
    "compute_series",
    "dense_oracle",
    "detect_extrema",
    "evaluate",
    "generate_market",
    "index_value",
    "init_divisor",
    "jensen_alpha",
    "knn_graph",
    "load_quotes",
    "mass_matrix",
    "mean_baseline_distance",
    "monthly_returns",
    "normalize",
    "pearson",
    "screen_universe",
    "select_constituents",
    "solve_generalized",
    "stability_std",
    "symmetrize",
    "weight_tilde",
]
