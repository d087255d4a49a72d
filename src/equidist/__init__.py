"""Effective multiple-equidistribution laboratory.

Exact constant ledgers and parameter selection for r-fold correlation
bounds, plus numerical experiments on two concrete models: Wiener
measures on tori and translated closed horocycles on the modular
surface.
"""

from .constants import (
    AssumptionParams,
    BoundLedger,
    BoundValue,
    ConstantGrowth,
    LedgerRow,
    PowerLawGrowth,
    TabulatedGrowth,
    base_case,
    bound_evaluate,
    build_ledger,
)
from .geometry import (
    DirectionSelection,
    RootAction,
    TranslationTuple,
    TupleStats,
    log_star_norm,
    select_direction,
    star_norm,
    tuple_stats,
)
from .modular import (
    BumpProfile,
    ConstantObservable,
    DecayFit,
    EisensteinObservable,
    HorocycleMeasure,
    IntegralEstimate,
    check_integral_estimate,
    correlation,
    delta_statistics,
    fit_decay,
    mu_integral,
    reduce_arrays,
    s_norm_surrogate,
)
from .selection import WindowChoice, choose_window, pigeonhole
from .wiener import (
    TorusMeasure,
    TorusObservable,
    character_expansion_check,
    character_twist,
    equivariance_check,
    wiener_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionParams", "BoundLedger", "BoundValue", "ConstantGrowth",
    "LedgerRow", "PowerLawGrowth", "TabulatedGrowth", "base_case",
    "bound_evaluate", "build_ledger",
    "DirectionSelection", "RootAction", "TranslationTuple", "TupleStats",
    "log_star_norm", "select_direction", "star_norm", "tuple_stats",
    "BumpProfile", "ConstantObservable", "DecayFit", "EisensteinObservable",
    "HorocycleMeasure", "IntegralEstimate", "check_integral_estimate",
    "correlation", "delta_statistics", "fit_decay", "mu_integral",
    "reduce_arrays", "s_norm_surrogate",
    "WindowChoice", "choose_window", "pigeonhole",
    "TorusMeasure", "TorusObservable",
    "character_expansion_check", "character_twist", "equivariance_check",
    "wiener_norm",
    "__version__",
]
