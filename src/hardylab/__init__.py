"""hardylab: numerical verification of weighted Hardy-type inequalities,
Bessel-pair ODE characterizations, sharp constants, and the algebraic
identities they rest on, across concrete subelliptic gauge geometries.

The package names below load their module on first access (PEP 562), so
`import hardylab` itself loads no layer."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "scenarios": ("Exponents", "RadialWeightPair", "Scenario",
                  "ParameterDomainError", "CheckFailure", "scenario_catalog",
                  "default_catalog", "scenario_to_json", "scenario_from_json"),
    "profiles": ("Profile", "smooth_bump", "random_profile", "power_profile"),
    "quadrature": ("QuadratureEstimate", "QuadratureError",
                   "integrate_adaptive"),
    "functional": ("ReducedFunctional", "InvalidProfileError",
                   "reduce_radial_functional", "random_profile_slacks"),
}.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
