"""Symbolic thermodynamics toolkit: exterior-calculus verification on
contact charts, axiomatic entropy from accessibility orders, and Galois
connections between entropy systems.

Each exported name loads its module on first access (PEP 562), so
``import entropykit`` loads no submodule and a command line run loads
only the layers its command reaches.
"""

import importlib

_EXPORTS = {
    "expr": (
        "Chart", "Confidence", "DomainError", "Expr", "ExprError", "ParseError",
        "UnknownSymbolError", "ZeroResult", "ZeroTestConfig", "ZeroVerdict",
        "exp", "is_zero", "ln", "parse",
    ),
    "forms": (
        "ContactResult", "ContactStatus", "FactorStatus", "Form",
        "FrobeniusResult", "FrobeniusStatus", "IntegratingFactorResult",
        "SmoothMap", "SymmetryResult", "SymmetryStatus", "contact_check",
        "contact_symmetry_check", "frobenius_check", "pullback",
        "verify_integrating_factor",
    ),
    "thermo": (
        "AdiabaticStatus", "LegendreSpec", "PathSegment", "ProcessPath",
        "ThermoChart", "ThermoError",
        "adiabatic_entropy_check", "check_legendre", "cycle_audit",
        "first_law_balance", "first_law_form", "heat_form",
        "legendre_transform", "maxwell_relations", "path_integral", "work_form",
    ),
    "access": (
        "Accessibility", "AccessError", "AxiomConfig", "AxiomReport",
        "AxiomStatus", "CompositeState", "ConstructionImpossible",
        "EdgeRelation", "EntropyFn", "EntropyOracle", "MemoizedOracle",
        "Relation", "StateSpace", "calibrate", "check_axioms",
        "comparison_hypothesis", "construct_entropy", "derived_relations",
        "verify_entropy",
    ),
    "galois": (
        "AdjointResult", "GaloisError", "GaloisResult", "MonotoneMap", "Poset",
        "check_galois", "check_monotone", "closure_report", "landauer_check",
        "left_adjoint", "poset_from_entropy", "right_adjoint",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a layer read as an attribute, as entropykit.access
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
