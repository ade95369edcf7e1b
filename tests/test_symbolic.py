"""The catalog's closed forms, written by hand in sympy from their formulas
and not from the numpy builders: each must solve its Bessel equation

    (V r^(Q-1) Phi_p(phi'))' + (lam W - z) r^(Q-1) Phi_p(phi) = 0,

Phi_p(x) = |x|^(p-2) x, exactly, and each builder's numpy V, W, phi, phi',
lam and z must match the hand-written ones."""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from hardylab.besselpair import improved_weight_auxiliary_pair
from hardylab.scenarios import closed_form_maximizer, scenario_catalog

r = sp.Symbol("r", positive=True)
p, theta, k, x, alpha, beta, Q, s, a, b, N = sp.symbols(
    "p theta k x alpha beta Q s a b N", positive=True)


def _power(Q, p, theta):
    k = Q - p * theta
    return dict(p=p, Q=Q, V=r ** (-p * (theta - 1)), W=r ** (-p * theta),
                lam=(k / p) ** p, z=0, phi=r ** (-k / p))


def _gaussian_a(p, alpha, beta, Q):
    corr = (p * beta / alpha) * (alpha * (p - 1) + Q - p)
    e = sp.exp(-r ** alpha / beta)
    return dict(p=p, Q=Q, V=e,
                W=(r ** (p * (alpha - 1)) - corr * r ** (alpha * (p - 1) - p)) * e,
                lam=(alpha / (p * beta)) ** p, z=0,
                phi=sp.exp(r ** alpha / (p * beta)))


def _gaussian_b(p, theta, alpha, beta, Q):
    x = (Q - p * theta) / p
    e = sp.exp(-r ** alpha / beta)
    return dict(p=p, Q=Q, V=r ** (-p * (theta - 1)) * e,
                W=(r ** (-p * theta)
                   - alpha / (beta * x) * r ** (alpha - p * theta)) * e,
                lam=x ** p, z=0, phi=r ** (-x))


def _annulus(Q, theta, a, b):
    # p = 2: phi = r^-s sin(c ln(r/a)), c = pi / ln(b/a)
    s, c = (Q - 2 * theta) / 2, sp.pi / sp.log(b / a)
    return dict(p=2, Q=Q, V=r ** (-2 * (theta - 1)), W=r ** (-2 * theta),
                lam=s ** 2 + c ** 2, z=0,
                phi=r ** (-s) * sp.sin(c * sp.log(r / a)))


def _antisymmetric(N, theta):
    # the Vandermonde factor of degree k = N(N-1)/2 on the sphere S^(N-1)
    k = N * (N - 1) / 2
    V = r ** (-2 * (theta - 1))
    return dict(p=2, Q=N, V=V, W=r ** (-2 * theta),
                lam=(((N ** 2 - 2 * theta) / 2) ** 2
                     + N * (N - 1) * (theta - 1)),
                z=k * (k + N - 2) * V / r ** 2,
                phi=r ** (-(N - 2 * theta) / 2))


def _improved_weight_auxiliary(Q, p):
    V = r ** (-(Q - p))
    return dict(p=p, Q=Q, V=V, W=V * (1 - r) / r, lam=p - 1, z=0,
                phi=sp.exp(-r))


def _log_radial(p, theta, R, Q):
    e, L = -(theta + 1) / p, sp.log(R / r)
    return dict(p=p, Q=Q, V=r ** (p - Q) * L ** (theta + p),
                W=r ** (-Q) * L ** theta, lam=((theta + 1) / p) ** p, z=0,
                phi=L ** e)


def _built(name, **kw):
    """(pair, phi, z) of the numpy builder."""
    if name == "improved_weight":
        pair, phi = improved_weight_auxiliary_pair(kw["Q"], kw["p"])
        return pair, phi, None
    sc = scenario_catalog(name, **kw)
    return sc.pair, closed_form_maximizer(sc), sc.numerator_zero_order


def _draw(name, rng):
    """Seeded builder parameters inside each family's hypotheses."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    if name == "power":
        P, T = u(2, 4), u(0.5, 1.5)
        return dict(Q=P * T + u(0.5, 3), p=P, theta=T)
    if name == "gaussian_a":
        return dict(p=u(2, 4), alpha=u(2, 3), beta=u(1, 3), Q=u(1, 5))
    if name == "gaussian_b":
        P, T = u(2, 4), u(0.5, 1.5)
        return dict(p=P, theta=T, alpha=u(2, 3), beta=u(1, 3),
                    Q=P * (T + u(0.5, 2)))
    if name == "annulus":
        T = u(0.5, 1.5)
        return dict(Q=2 * T + 2 * u(0.5, 2), theta=T, a=u(0.05, 0.15),
                    b=u(6, 10))
    if name == "antisymmetric":
        return dict(N=int(rng.integers(3, 6)), theta=u(0.5, 2))
    if name == "improved_weight":
        return dict(Q=u(3, 6), p=u(2, 4))
    return dict(p=u(2, 4), theta=u(0, 1), R=u(6, 10), Q=u(1, 5))


# name, hand form, and its parameters as positive symbols for simplify
# (None: simplify leaves log_radial unclosed, so it is checked at 50 digits)
CASES = [
    ("power", _power, dict(Q=p * theta + k, p=p, theta=theta)),
    ("gaussian_a", _gaussian_a, dict(p=p, alpha=alpha, beta=beta, Q=Q)),
    ("gaussian_b", _gaussian_b,
     dict(p=p, theta=theta, alpha=alpha, beta=beta, Q=p * (theta + x))),
    ("annulus", _annulus, dict(Q=2 * theta + 2 * s, theta=theta, a=a, b=b)),
    ("antisymmetric", _antisymmetric, dict(N=N, theta=theta)),
    ("improved_weight", _improved_weight_auxiliary, dict(Q=Q, p=p)),
    ("log_radial", _log_radial, None),
]


def _terms(form):
    """The two terms of the Bessel equation: the flux's derivative and the
    zero-order term."""
    def Phi(v):
        return sp.Abs(v) ** (form["p"] - 2) * v

    mu = form["Q"] - 1
    flux = form["V"] * r ** mu * Phi(sp.diff(form["phi"], r))
    return (sp.diff(flux, r),
            (form["lam"] * form["W"] - form["z"]) * r ** mu * Phi(form["phi"]))


def _floats(kw):
    """Builder parameters as sympy numbers holding their exact float values."""
    return {key: v if isinstance(v, int) else sp.Float(v, 60)
            for key, v in kw.items()}


@pytest.mark.parametrize("name, hand, symbols", CASES,
                         ids=[c[0] for c in CASES])
def test_closed_form_solves_its_bessel_equation(name, hand, symbols):
    if symbols is not None:
        flux, zero_order = _terms(hand(**symbols))
        assert sp.simplify(flux + zero_order) == 0, name
        return
    rng = np.random.default_rng(33)
    for _ in range(5):
        kw = _draw(name, rng)
        flux, zero_order = _terms(hand(**_floats(kw)))
        for t in rng.uniform(0.05, 0.95, 3):
            at = {r: sp.Float(float(t) * kw["R"], 50)}
            f, z = flux.evalf(50, subs=at), zero_order.evalf(50, subs=at)
            assert abs(f + z) <= sp.Float(1e-40) * (abs(f) + abs(z)), (kw, t)


@pytest.mark.parametrize("name, hand", [c[:2] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_builder_matches_the_hand_closed_form(name, hand):
    # each at seeded parameters, on r = geomspace(0.2, 5, 9)
    grid = np.geomspace(0.2, 5.0, 9)
    rng = np.random.default_rng(19)
    for _ in range(3):
        kw = _draw(name, rng)
        pair, phi, z = _built(name, **kw)
        form = hand(**_floats(kw))
        assert math.isclose(pair.lam, float(form["lam"]), rel_tol=1e-13), kw
        built = {"V": pair.V(grid), "W": pair.W(grid), "phi": phi.value(grid),
                 "phi'": phi.derivative(grid),
                 "z": np.zeros_like(grid) if z is None else z(grid)}
        exprs = {"V": form["V"], "W": form["W"], "phi": form["phi"],
                 "phi'": sp.diff(form["phi"], r), "z": sp.sympify(form["z"])}
        with mpmath.workdps(30):
            for key, expr in exprs.items():
                f = sp.lambdify(r, expr, "mpmath")
                ref = np.array([float(f(mpmath.mpf(float(t)))) for t in grid])
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(built[key] - ref)) <= 1e-13 * scale, \
                    (name, key, kw)
