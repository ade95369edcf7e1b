"""Scenario catalog: every weighted Hardy-type inequality instance the
package verifies, as an immutable bundle of exponents, a radial weight pair
whose lambda is the claimed sharp constant, and the closed-form maximizer
when one exists.

Each 1-D reduction lives on the measure r^(Q-1) dr, where Q is the effective
homogeneous dimension tied to the weight homogeneity beta through
Q = 1 - (beta-1)(p-1); for gauge geometries beta = (p-Q)/(p-1) and the two
closed forms |(Q-p*theta)/p|^p and |(beta(p-1)+p(theta-1))/p|^p coincide.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .profiles import Profile, power_profile

__all__ = [
    "Exponents",
    "RadialWeightPair",
    "Scenario",
    "ParameterDomainError",
    "CheckFailure",
    "UnsupportedScenarioError",
    "require_p",
    "require_annulus",
    "closed_form_maximizer",
    "scenario_catalog",
    "scenario_to_json",
    "scenario_from_json",
    "default_catalog",
    "SCENARIO_NAMES",
    "SCENARIO_PARAMETERS",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED     # every seeded check's default seed

SCENARIO_NAMES = (
    "power", "log_radial", "log_cylindrical", "gaussian_a", "gaussian_b",
    "annulus", "cylindrical", "strip", "antisymmetric", "improved_weight",
)


class ParameterDomainError(ValueError):
    """The input violates a hypothesis of the theorem or the check (exit 2)."""


class CheckFailure(RuntimeError):
    """A mathematical check failed or could not be carried out (exit 1)."""


class UnsupportedScenarioError(ParameterDomainError):
    """The scenario has no closed-form maximizer."""


def require_p(p: float) -> None:
    """Every identity and inequality here needs a finite p >= 2 (NaN fails)."""
    if not (p >= 2 and math.isfinite(p)):
        raise ParameterDomainError(f"p must be >= 2 and finite, got {p}")


def require_annulus(a: float, b: float) -> None:
    """An annulus a < r < b needs 0 < a < b and a finite ratio b/a, whose
    logarithm every annulus eigenvalue is a function of (NaN fails)."""
    if not (0 < a < b and math.isfinite(b / a)):
        raise ParameterDomainError(
            f"annulus needs 0 < a < b and a finite b/a, got a={a}, b={b}")


@dataclass(frozen=True)
class Exponents:
    p: float
    theta: float
    Q: float

    def __post_init__(self) -> None:
        require_p(self.p)
        if not (self.Q >= 1 and math.isfinite(self.Q)):
            raise ParameterDomainError(f"Q must be >= 1 and finite, got {self.Q}")
        if not math.isfinite(self.theta):
            raise ParameterDomainError(f"theta must be finite, got {self.theta}")

    @property
    def beta(self) -> float:
        """Homogeneity of the fundamental-solution power d^((p-Q)/(p-1)),
        so that Q - 1 = -(beta-1)(p-1)."""
        return (self.p - self.Q) / (self.p - 1.0)

    @property
    def measure_exponent(self) -> float:
        """Exponent m in the reduced 1-D measure r^m dr."""
        return self.Q - 1.0


@dataclass(frozen=True)
class RadialWeightPair:
    V: Callable
    W: Callable
    lam: float
    interval: tuple[float, float]
    W_nonnegative: bool = True

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ParameterDomainError(
                f"lambda must be positive and finite, got {self.lam}")
        if not self.interval[0] < self.interval[1]:
            raise ParameterDomainError(f"empty weight interval {self.interval}")
        probe = self._probe_points()
        with np.errstate(over="ignore"):   # an overflow to inf is >= 0
            v = np.asarray(self.V(probe), dtype=float)
            if np.any(np.isnan(v)) or np.any(v < 0.0):
                raise ParameterDomainError("V must be nonnegative on the interval")
            if self.W_nonnegative:
                w = np.asarray(self.W(probe), dtype=float)
                if np.any(np.isnan(w)) or np.any(w < 0.0):
                    raise ParameterDomainError(
                        "W flagged nonnegative but takes negative values; "
                        "construct with W_nonnegative=False")

    def _probe_points(self, n: int = 24) -> np.ndarray:
        lo, hi = self.interval
        lo = max(lo, 1e-6) * (1.0 + 1e-9)
        hi = (min(hi, 1e3) if math.isfinite(hi) else 1e3) * (1.0 - 1e-9)
        if not lo < hi:
            return np.array([0.5 * (self.interval[0] + self.interval[1])])
        return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class Scenario:
    name: str
    exponents: Exponents
    pair: RadialWeightPair
    maximizer: Profile | str
    extra: dict = field(default_factory=dict)
    # optional zeroth-order numerator weight z(r): adds int r^(Q-1) z |phi|^p dr
    # to the reduced numerator (used by the antisymmetric sector reduction)
    numerator_zero_order: Callable | None = None
    # keyword arguments of the scenario_catalog call that built it
    params: dict = field(default_factory=dict)
    # the closed-form maximizer phi in t = ln r, where it cancels the weights:
    # t -> (psi, chi, rho, z), psi = (V r^(Q-p))^(1/p) phi, chi = psi r
    # phi'/phi, rho = W r^Q phi^p and the constant z = (zero-order weight)
    # r^Q phi^p
    maximizer_in_t: Callable | None = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ParameterDomainError(f"unknown scenario name {self.name!r}")

    @property
    def sharp_constant(self) -> float:
        """The claimed sharp constant: the weight pair's lambda."""
        return self.pair.lam


def closed_form_maximizer(scenario: Scenario) -> Profile:
    """The scenario's explicit maximizer with analytic derivative."""
    if isinstance(scenario.maximizer, Profile):
        return scenario.maximizer
    raise UnsupportedScenarioError(
        f"scenario {scenario.name!r} has no closed-form maximizer "
        f"(tag: {scenario.maximizer})")


def _power_weights(p: float, theta: float) -> tuple[Callable, Callable]:
    v_exp = -p * (theta - 1.0)
    w_exp = -p * theta

    def V(r):
        return np.asarray(r, dtype=float) ** v_exp

    def W(r):
        return np.asarray(r, dtype=float) ** w_exp

    return V, W


def _power(Q: float | None = None, p: float = 2.0, theta: float = 1.0,
           beta: float | None = None) -> Scenario:
    if Q is None and beta is None:
        raise ParameterDomainError("power scenario needs Q or beta")
    require_p(p)
    if beta is not None:
        Q_eff = 1.0 - (beta - 1.0) * (p - 1.0)
        if Q is not None and abs(Q - Q_eff) > 1e-9 * (1.0 + abs(Q)):
            raise ParameterDomainError(
                f"Q={Q} and beta={beta} are inconsistent (beta implies Q={Q_eff})")
        Q = Q_eff
    exps = Exponents(p=p, theta=theta, Q=Q)
    gamma = (exps.beta * (p - 1.0) + p * (theta - 1.0)) / p
    lam = abs(gamma) ** p
    if lam == 0:
        raise ParameterDomainError(
            "critical case Q = p*theta: the power constant vanishes; "
            "use the log_radial scenario instead")
    V, W = _power_weights(p, theta)
    return Scenario(
        name="power", exponents=exps,
        pair=RadialWeightPair(V, W, lam, (0.0, math.inf)),
        maximizer=power_profile(gamma, (0.0, math.inf)),
        extra={"gamma": gamma},
        maximizer_in_t=lambda t: (1.0, gamma, 1.0, 0.0),
    )


def _log_weights(p: float, theta: float, R: float, Q: float):
    def V(r):
        r = np.asarray(r, dtype=float)
        return r ** (p - Q) * np.log(R / r) ** (theta + p)

    def W(r):
        r = np.asarray(r, dtype=float)
        return r ** (-Q) * np.log(R / r) ** theta

    return V, W


def _log_maximizer(p: float, theta: float, R: float) -> Profile:
    e = -(theta + 1.0) / p

    def value(r):
        return np.log(R / np.asarray(r, dtype=float)) ** e

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return -e * np.log(R / r) ** (e - 1.0) / r

    return Profile(value, derivative, (0.0, R))


def _log_radial(p: float = 2.0, theta: float = 0.0, R: float = 1.0,
                Q: float | None = None) -> Scenario:
    if not (R > 0 and math.isfinite(R)):
        raise ParameterDomainError(f"R must be > 0 and finite, got {R}")
    if theta == -1.0:
        raise ParameterDomainError("theta = -1 makes the log constant vanish")
    Q = p if Q is None else Q
    exps = Exponents(p=p, theta=theta, Q=Q)
    lam = abs((theta + 1.0) / p) ** p
    V, W = _log_weights(p, theta, R, Q)
    return Scenario(
        name="log_radial", exponents=exps,
        pair=RadialWeightPair(V, W, lam, (0.0, R)),
        maximizer=_log_maximizer(p, theta, R),
        extra={"R": R},
    )


def _log_cylindrical(p: float = 2.0, theta: float = 0.0, R: float = 1.0,
                     m: int = 3, N: int | None = None) -> Scenario:
    if m < 1:
        raise ParameterDomainError(f"cylindrical split needs m >= 1, got {m}")
    base = _log_radial(p=p, theta=theta, R=R, Q=float(m))
    return replace(base, name="log_cylindrical",
                   extra={"R": R, "m": m, "N": N if N is not None else m + 1})


def _require_gaussian(alpha: float, beta: float) -> None:
    if not (alpha >= 2 and math.isfinite(alpha)):
        raise ParameterDomainError(f"alpha must be >= 2 and finite, got {alpha}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ParameterDomainError(f"beta must be > 0 and finite, got {beta}")


def _gaussian_a(p: float = 2.0, alpha: float = 2.0, beta: float = 2.0,
                Q: float = 3.0) -> Scenario:
    _require_gaussian(alpha, beta)
    exps = Exponents(p=p, theta=1.0, Q=Q)
    lam = (alpha / (p * beta)) ** p
    corr = (p * beta / alpha) * (alpha * (p - 1.0) + Q - p)

    def V(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-(r ** alpha) / beta)

    def W(r):
        r = np.asarray(r, dtype=float)
        return (r ** (p * (alpha - 1.0)) - corr * r ** (alpha * (p - 1.0) - p)) \
            * np.exp(-(r ** alpha) / beta)

    def max_value(r):
        return np.exp(np.asarray(r, dtype=float) ** alpha / (p * beta))

    def max_derivative(r):
        r = np.asarray(r, dtype=float)
        return (alpha / (p * beta)) * r ** (alpha - 1.0) * max_value(r)

    def in_t(t):
        psi = np.exp((Q - p) / p * t)
        rho = np.exp(Q * t) * (np.exp(p * (alpha - 1.0) * t) - corr
                               * np.exp((alpha * (p - 1.0) - p) * t))
        return psi, alpha / (p * beta) * np.exp(alpha * t) * psi, rho, 0.0

    return Scenario(
        name="gaussian_a", exponents=exps,
        pair=RadialWeightPair(V, W, lam, (0.0, math.inf), W_nonnegative=False),
        maximizer=Profile(max_value, max_derivative, (0.0, math.inf)),
        extra={"alpha": alpha, "beta": beta,
               "correction_coefficient": lam ** ((p - 1.0) / p) * (alpha * (p - 1.0) + Q - p)},
        maximizer_in_t=in_t,
    )


def _gaussian_b(p: float = 2.0, theta: float = 1.0, alpha: float = 2.0,
                beta: float = 2.0, Q: float = 5.0) -> Scenario:
    _require_gaussian(alpha, beta)
    x = (Q - p * theta) / p
    if x == 0:
        raise ParameterDomainError("gaussian_b needs Q != p*theta")
    exps = Exponents(p=p, theta=theta, Q=Q)
    lam = abs(x) ** p
    corr = (alpha / beta) / x   # coefficient of the r^(alpha - p*theta) term

    def V(r):
        r = np.asarray(r, dtype=float)
        return r ** (-p * (theta - 1.0)) * np.exp(-(r ** alpha) / beta)

    def W(r):
        r = np.asarray(r, dtype=float)
        return (r ** (-p * theta) - corr * r ** (alpha - p * theta)) \
            * np.exp(-(r ** alpha) / beta)

    def in_t(t):
        # exp(alpha t - r^alpha/beta), since r^alpha itself overflows
        e = np.exp(alpha * t) / beta
        psi = np.exp(-e / p)
        return (psi, -x * psi,
                np.exp(-e) - (alpha / beta) / x * np.exp(alpha * t - e), 0.0)

    return Scenario(
        name="gaussian_b", exponents=exps,
        pair=RadialWeightPair(V, W, lam, (0.0, math.inf), W_nonnegative=False),
        maximizer=power_profile(-x, (0.0, math.inf)),
        extra={"alpha": alpha, "beta": beta},
        maximizer_in_t=in_t,
    )


def closed_form_lambda1_p2(Q: float, theta: float, a: float, b: float) -> float:
    """First eigenvalue of the annulus problem for p = 2 (Cauchy-Euler form)."""
    require_annulus(a, b)
    return ((Q - 2.0 * theta) / 2.0) ** 2 + (math.pi / math.log(b / a)) ** 2


def _annulus_maximizer_p2(Q: float, theta: float, a: float, b: float):
    """phi = r^-s sin(c ln(r/a)) in r, and in t = ln r: with
    tau = c (t - ln a), psi = sin tau, chi = c cos tau - s sin tau and
    rho = sin^2 tau."""
    s = (Q - 2.0 * theta) / 2.0
    c, ln_a = math.pi / math.log(b / a), math.log(a)

    def value(r):
        r = np.asarray(r, dtype=float)
        return r ** (-s) * np.sin(c * np.log(r / a))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return r ** (-s - 1.0) * (-s * np.sin(c * np.log(r / a))
                                  + c * np.cos(c * np.log(r / a)))

    def in_t(t):
        tau = c * (t - ln_a)
        sin = np.sin(tau)
        return sin, c * np.cos(tau) - s * sin, sin * sin, 0.0

    return Profile(value, derivative, (a, b)), in_t


def _annulus(Q: float = 3.0, p: float = 2.0, theta: float = 1.0,
             a: float = 1.0, b: float = math.e) -> Scenario:
    exps = Exponents(p=p, theta=theta, Q=Q)
    if p == 2:
        lam = closed_form_lambda1_p2(Q, theta, a, b)
        maximizer, in_t = _annulus_maximizer_p2(Q, theta, a, b)
    else:
        # no closed form: search for lam_1 (spectral, so imported here)
        from .spectral import AnnulusProblem, eigenvalue

        lam = eigenvalue(AnnulusProblem(Q, p, theta, a, b)).lam
        maximizer, in_t = "eigenfunction", None
    V, W = _power_weights(p, theta)
    return Scenario(
        name="annulus", exponents=exps,
        pair=RadialWeightPair(V, W, lam, (a, b)),
        maximizer=maximizer,
        extra={"a": a, "b": b},
        maximizer_in_t=in_t,
    )


def _cylindrical(m: int = 3, p: float = 2.0, theta: float = 1.0,
                 N: int | None = None) -> Scenario:
    if m < 1:
        raise ParameterDomainError(f"cylindrical split needs m >= 1, got {m}")
    base = _power(Q=float(m), p=p, theta=theta)
    return replace(base, name="cylindrical",
                   extra={"m": m, "N": N if N is not None else m + 1,
                          "gamma": base.extra["gamma"]})


def _strip(theta: float = 1.0, p: float = 2.0) -> Scenario:
    """Strip (-pi/2, pi/2) x R with the harmonic gauge e^y cos x: beta = 1,
    so the reduced measure is r^0 dr and the constant is ((2 theta - 1)/2)^2."""
    if p != 2:
        raise ParameterDomainError("the strip inequality is stated for p = 2")
    if theta == 0.5:
        raise ParameterDomainError("theta = 1/2 makes the strip constant vanish")
    base = _power(p=p, theta=theta, beta=1.0)
    return replace(base, name="strip", extra={
        "domain": "(-pi/2, pi/2) x R", "gauge": "exp(y) cos(x)",
        "gamma": base.extra["gamma"]})


def _antisymmetric(N: int = 3, theta: float = 1.0) -> Scenario:
    """Ordered sector x_1 < ... < x_N with the Vandermonde factor: separated
    profiles u = phi(r) * (Vandermonde restricted to the sphere) reduce to a
    1-D quotient whose numerator carries the sphere-eigenvalue term."""
    if N < 2 or N != int(N):
        raise ParameterDomainError(f"antisymmetric scenario needs integer N >= 2, got {N}")
    N = int(N)
    if N * N <= 2.0 * theta:
        raise ParameterDomainError(
            f"hypothesis N^2 > 2*theta violated: N^2={N*N}, 2*theta={2*theta}")
    p = 2.0
    Q = float(N)
    exps = Exponents(p=p, theta=theta, Q=Q)
    k = N * (N - 1) / 2.0
    sphere_eig = k * (k + N - 2.0)
    sharp = ((N * N - 2.0 * theta) / 2.0) ** 2 + N * (N - 1.0) * (theta - 1.0)
    gamma = -(N - 2.0 * theta) / 2.0
    V, W = _power_weights(p, theta)

    def zero_order(r):
        r = np.asarray(r, dtype=float)
        return sphere_eig * V(r) / r ** 2

    return Scenario(
        name="antisymmetric", exponents=exps,
        pair=RadialWeightPair(V, W, sharp, (0.0, math.inf)),
        maximizer=power_profile(gamma, (0.0, math.inf)),
        extra={"N": N, "sphere_eigenvalue": sphere_eig,
               "vandermonde_degree": k},
        numerator_zero_order=zero_order,
        # z = sphere_eig V r^-2 r^Q r^(2 gamma) = sphere_eig
        maximizer_in_t=lambda t: (1.0, gamma, 1.0, sphere_eig),
    )


def _improved_weight(Q: float = 5.0, p: float = 2.0) -> Scenario:
    """Hardy weight improved by c_p (p-1) (1-d)/d with c_p = 2^-p; holds with
    constant 1 although it exceeds the critical weight on d < 1."""
    exps = Exponents(p=p, theta=1.0, Q=Q)
    cp = 2.0 ** (-p)
    hardy = abs((Q - p) / p) ** p

    def V(r):
        return np.ones_like(np.asarray(r, dtype=float))

    def W(r):
        r = np.asarray(r, dtype=float)
        return hardy * r ** (-p) + cp * (p - 1.0) * (1.0 - r) / r

    return Scenario(
        name="improved_weight", exponents=exps,
        pair=RadialWeightPair(V, W, 1.0, (0.0, math.inf), W_nonnegative=False),
        maximizer="none",
        extra={"c_p": cp, "hardy_constant": hardy},
    )


_BUILDERS = {
    "power": _power,
    "log_radial": _log_radial,
    "log_cylindrical": _log_cylindrical,
    "gaussian_a": _gaussian_a,
    "gaussian_b": _gaussian_b,
    "annulus": _annulus,
    "cylindrical": _cylindrical,
    "strip": _strip,
    "antisymmetric": _antisymmetric,
    "improved_weight": _improved_weight,
}

# keyword arguments each scenario builder accepts, read off its signature
SCENARIO_PARAMETERS = {name: tuple(inspect.signature(builder).parameters)
                       for name, builder in _BUILDERS.items()}


def scenario_catalog(name: str, **params) -> Scenario:
    """Build a fully populated catalog scenario, validating every hypothesis."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ParameterDomainError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}") from None
    try:
        return replace(builder(**params), params=dict(params))
    except OverflowError:   # a power or exp of the parameters, as |gamma|^p
        raise ParameterDomainError(
            f"scenario {name!r} overflows the float range at {params}") from None


def default_catalog() -> list[Scenario]:
    """One representative instance per scenario family (used by sampling runs)."""
    return [
        scenario_catalog("power", Q=5.0, p=2.0, theta=1.0),
        scenario_catalog("log_radial", p=2.0, theta=0.0, R=1.0),
        scenario_catalog("log_cylindrical", p=2.0, theta=0.0, R=1.0, m=3),
        scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0),
        scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0),
        scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e),
        scenario_catalog("cylindrical", m=3, p=2.0, theta=1.0, N=5),
        scenario_catalog("strip", theta=1.0),
        scenario_catalog("antisymmetric", N=3, theta=1.0),
        scenario_catalog("improved_weight", Q=5.0, p=2.0),
    ]


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario to JSON; weights are rebuilt from the name and
    the builder params on load, numbers are IEEE doubles."""
    doc = {
        "name": scenario.name,
        "params": scenario.params,
        "exponents": {
            "p": scenario.exponents.p, "theta": scenario.exponents.theta,
            "beta": scenario.exponents.beta, "Q": scenario.exponents.Q,
        },
        "pair": {
            "lambda": scenario.pair.lam,
            "interval": list(scenario.pair.interval),
        },
        "sharp_constant": scenario.sharp_constant,
        "maximizer": ("closed_form" if isinstance(scenario.maximizer, Profile)
                      else scenario.maximizer),
        "extra": {k: v for k, v in scenario.extra.items()
                  if isinstance(v, (int, float, str))},
    }
    return json.dumps(doc)


def scenario_from_json(text: str) -> Scenario:
    doc = json.loads(text)
    try:
        rebuilt = scenario_catalog(doc["name"], **doc["params"])
        stored = doc["sharp_constant"]
        tampered = abs(rebuilt.sharp_constant - stored) > 1e-12 * (1.0 + abs(stored))
    except (KeyError, TypeError) as exc:
        raise ParameterDomainError(f"malformed scenario JSON: {exc!r}") from None
    if tampered:
        raise ParameterDomainError(
            f"stored sharp_constant {stored} does not match the closed form "
            f"{rebuilt.sharp_constant} for {rebuilt.name}")
    return rebuilt
