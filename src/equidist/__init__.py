"""Effective multiple-equidistribution laboratory.

Exact constant ledgers and parameter selection for r-fold correlation
bounds, plus numerical experiments on two concrete models: Wiener
measures on tori and translated closed horocycles on the modular
surface.

The root re-exports each module's public names lazily (PEP 562): a name
is looked up in its module when it is read, and the module is imported
on first use, so `import equidist` imports none of the modules and no
numpy.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, in module order; the modules keep
# no __all__ of their own
_EXPORTS = {
    "constants": (
        "PowerLawGrowth", "TabulatedGrowth", "ConstantGrowth",
        "AssumptionParams", "LedgerRow", "BoundLedger", "BoundValue",
        "base_case", "build_ledger", "bound_evaluate"),
    "geometry": (
        "RootAction", "TupleStack", "StatsColumns", "SelectionColumns",
        "star_norm", "log_star_norm", "tuple_stats", "select_direction"),
    "modular": (
        "BumpProfile", "EisensteinObservable", "ConstantObservable",
        "HorocycleMeasure", "IntegralEstimate", "DecayFit", "reduce_arrays",
        "mu_integral", "correlation", "check_integral_estimate",
        "fit_decay", "delta_statistics", "s_norm_surrogate"),
    "selection": ("pigeonhole", "choose_window", "WindowChoice"),
    "wiener": (
        "TorusMeasure", "TorusObservable", "wiener_norm", "character_twist",
        "equivariance_check", "character_expansion_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__),
                       name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
