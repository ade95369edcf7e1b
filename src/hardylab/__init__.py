"""hardylab: numerical verification of weighted Hardy-type inequalities,
Bessel-pair ODE characterizations, sharp constants, and the algebraic
identities they rest on, across concrete subelliptic gauge geometries."""

from .functional import (InvalidProfileError, ReducedFunctional,
                         random_profile_slacks, reduce_radial_functional)
from .profiles import Profile, power_profile, random_profile, smooth_bump
from .quadrature import QuadratureError, QuadratureEstimate, integrate_adaptive
from .scenarios import (CheckFailure, Exponents, ParameterDomainError,
                        RadialWeightPair, Scenario, default_catalog,
                        scenario_catalog, scenario_from_json, scenario_to_json)

__version__ = "0.1.0"

__all__ = [
    "Exponents", "RadialWeightPair", "Scenario", "ParameterDomainError",
    "CheckFailure", "scenario_catalog", "default_catalog", "scenario_to_json",
    "scenario_from_json", "Profile", "smooth_bump", "random_profile",
    "power_profile", "QuadratureEstimate", "QuadratureError",
    "integrate_adaptive", "ReducedFunctional", "InvalidProfileError",
    "reduce_radial_functional", "random_profile_slacks",
    "__version__",
]
