"""Exact domination polynomials of small graphs.

Count dominating sets by brute force, evaluate the cycle-family
recurrences in exact integer arithmetic, and verify at desk scale that
a cycle's domination polynomial identifies it uniquely.

The names below are re-exported from their modules on first use
(PEP 562), so importing the package, or one module of it, loads no other
module: a cycle-family CLI call never compiles the graph or oracle code.
"""

from importlib import import_module

# Each re-exported name, by the module that defines it.
_EXPORTS = {
    "cycles": ("alpha", "beta", "cycle_polynomial", "predicted_ord3", "theta"),
    "errors": (
        "Graph6FormatError",
        "Graph6ParseError",
        "Graph6RangeError",
        "InputError",
        "InternalInconsistencyError",
        "ParameterDomainError",
        "SizeGuardError",
        "ValuationError",
    ),
    "graphs": (
        "Graph",
        "build_family",
        "complete",
        "complete_cycle_join",
        "cycle",
        "disjoint_union",
        "encode_graph6",
        "iter_graph6_records",
        "join",
        "parse_graph6",
        "path",
        "wheel",
    ),
    "oracle": ("DEFAULT_GUARD", "domination_number", "domination_polynomial", "domination_profile"),
    "polynomials": ("IntPolynomial", "ord_p"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
