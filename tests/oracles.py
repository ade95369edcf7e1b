"""Independent quadrature oracles, profile helpers and test-only checks.

Deliberately disjoint from hardylab.quadrature: fixed composite
Gauss-Legendre grids (numpy's leggauss) with geometric panel grading, and
mpmath evaluations straight from the definitions. Frozen expected values in
the tests were computed with these routines. `check_cp_lower_bound` is a
sampled check that only the tests call, and `dense_bump_sum` the per-bump
dense evaluation that ``Bumps`` must match.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from hardylab.identities import rhs_closed_form, sample_complex_pairs
from hardylab.profiles import Profile
from hardylab.scenarios import ParameterDomainError, require_p


def check_derivative(phi: Profile, tol: float = 1e-5, n: int = 200,
                     margin: float = 1e-3) -> float:
    """Max relative mismatch between a profile's stored derivative and a
    central finite difference of its value; ValueError above tol."""
    lo, hi = phi.support
    pad = margin * (hi - lo)
    r = np.linspace(lo + pad, hi - pad, n)
    h = 1e-6 * (hi - lo)
    fd = (phi.value(r + h) - phi.value(r - h)) / (2 * h)
    scale = np.max(np.abs(phi.derivative(r))) + 1e-300
    err = float(np.max(np.abs(fd - phi.derivative(r))) / scale)
    if err > tol:
        raise ValueError(f"derivative inconsistent with value: rel FD error {err:.3e}")
    return err


def scaled(phi: Profile, c: float) -> Profile:
    """c * phi, with the same support and knots."""
    return Profile(lambda r: c * phi.value(r), lambda r: c * phi.derivative(r),
                   phi.support, phi.knots)


def composite_gauss(f, a: float, b: float, panels: int = 64,
                    nodes: int = 20) -> float:
    """Composite Gauss-Legendre on a uniform panel mesh."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return float(np.sum(wts * f(pts)))


def graded_gauss(f, a: float, b: float, toward: str = "left",
                 levels: int = 60, nodes: int = 20) -> float:
    """Composite Gauss-Legendre on a mesh graded geometrically toward one
    endpoint (for integrable endpoint singularities)."""
    t = (b - a) * 0.5 ** np.arange(1, levels + 1)
    if toward == "left":
        edges = np.concatenate([[a], a + t[::-1], [b]])
    else:
        edges = np.concatenate([[a], b - t, [b]])
    edges = np.unique(edges)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return float(np.sum(wts * f(pts)))


def decades_gauss(f, a: float, b: float, per_decade: int = 8,
                  nodes: int = 24) -> float:
    """Composite Gauss-Legendre on log-spaced panels (multi-decade spans)."""
    assert a > 0 and b > a
    n_dec = int(np.ceil(np.log10(b / a)))
    edges = np.geomspace(a, b, per_decade * n_dec + 1)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return float(np.sum(wts * f(pts)))


def initial_edges(a: float, b: float, singular_left: bool,
                  singular_right: bool, points) -> list[float]:
    """One owner's seed edges, built with a set and sorted: the per-owner
    reference for `hardylab.quadrature._seed_mesh`."""
    edges = {a, b}
    for p in points:
        if a < p < b:
            edges.add(float(p))
    width = b - a
    if singular_left:
        edges.update(a + width * 0.5 ** k for k in range(1, 19))
    if singular_right:
        edges.update(b - width * 0.5 ** k for k in range(1, 19))
    if a > 0 and b / a > 100.0:
        if b / a == math.inf:
            raise ParameterDomainError(
                f"span [{a}, {b}] is wider than a float ratio holds")
        k = math.ceil(math.log10(b / a))
        edges.update(a * 10.0 ** j for j in range(1, k))
    return sorted(e for e in edges if a <= e <= b)


def seed_mesh_per_owner(a, b, singular_left, singular_right, points):
    """(lefts, rights, owner) of a batch's seed intervals, one owner at a
    time in order; an improper owner is seeded in t = (r - a)/(1 + r - a)."""
    lefts, rights, owner = [], [], []
    for k, (lo, hi) in enumerate(zip(a, b)):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(
                f"integration bounds must satisfy a < b, got [{lo}, {hi}]")
        if math.isinf(hi):
            with np.errstate(invalid="ignore"):     # a point at inf
                inner = [(p - lo) / (1.0 + p - lo) for p in points[k]
                         if p > lo]
            edges = initial_edges(0.0, 1.0, singular_left[k], True, inner)
        else:
            edges = initial_edges(lo, hi, singular_left[k], singular_right[k],
                                  points[k])
        lefts += edges[:-1]
        rights += edges[1:]
        owner += [k] * (len(edges) - 1)
    return np.array(lefts), np.array(rights), np.array(owner, dtype=int)


def psi_energy(psi: Profile) -> float:
    """int r psi'(r)^2 dr over the support, by decades_gauss between
    consecutive knots (psi' may jump at a knot)."""
    def integrand(r):
        return r * psi.derivative(r) ** 2

    return sum(decades_gauss(integrand, a, b)
               for a, b in zip(psi.knots, psi.knots[1:]))


def segment_identity_oracle(p: float, f: complex, g: complex,
                            n: int = 400_000) -> tuple[float, float]:
    """Brute-force midpoint evaluation of the two identity s-integrals,
    straight from their definitions (no parabola rewriting)."""
    s = (np.arange(n) + 0.5) / n
    h = s * g + (1.0 - s) * f
    habs = np.abs(h)
    re = np.real((f - g) * np.conj(h))
    im = np.imag(f * np.conj(g))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        core = np.where(habs > 0, habs ** (p - 4.0), 0.0)
    w_term = p * (p - 1.0) * np.mean(s * core * re ** 2)
    wt_term = p * np.mean(s * core * im ** 2)
    return float(w_term), float(wt_term)


def check_cp_lower_bound(p: float, sample_count: int, seed: int) -> dict:
    """Sampled check of rhs_closed >= 2^-p |f-g|^p (the guaranteed lower end
    of the c_p window)."""
    require_p(p)
    rng = np.random.default_rng(seed)
    f, g = sample_complex_pairs(rng, sample_count)
    rhs = rhs_closed_form(p, f, g)
    slack = rhs - 2.0 ** (-p) * np.abs(f - g) ** p
    return {"min_slack": float(np.min(slack)), "slacks": slack}


def near_collinear_pairs(rng: np.random.Generator, per_kind: int,
                         radius: float = 10.0, eps_range=(1e-12, 1e-3)):
    """Scalar pairs g ~ f, g ~ -f and g ~ 0, per_kind of each in that order,
    with eps log-spaced over eps_range so that every decade of it is drawn."""
    n = 3 * per_kind
    f = radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    eps = np.tile(np.geomspace(*eps_range, per_kind), 3)
    kind = np.repeat(np.arange(3), per_kind)
    wiggle = np.exp(2j * np.pi * rng.uniform(size=n))
    g = np.where(kind == 0, f * (1.0 + eps * wiggle),
                 np.where(kind == 1, -f * (1.0 + eps * wiggle),
                          eps * wiggle * radius))
    return f, g


def near_collinear_vectors(rng: np.random.Generator, per_kind: int, h: int,
                           radius: float = 10.0):
    """Vector pairs in C^h that are near-collinear as a whole: X = r Z with
    one complex ratio r per row, r ~ 1, r ~ -1 or r ~ 0, so X ~ Z, X ~ -Z
    and X ~ 0 with every component following the same relation."""
    f, g = near_collinear_pairs(rng, per_kind, radius)
    Z = rng.normal(size=(f.size, h)) + 1j * rng.normal(size=(f.size, h))
    Z *= radius / np.linalg.norm(Z, axis=1, keepdims=True)
    return Z, (g / f)[:, None] * Z


def _mp_segment(f, g):
    import mpmath

    f = mpmath.mpc(f.real, f.imag)
    g = mpmath.mpc(g.real, g.imag)
    D = f - g
    A = abs(D) ** 2
    s0 = mpmath.re(mpmath.conj(f) * D) / A
    return f, g, D, A, s0, abs(f - s0 * D) ** 2


def segment_split_mp(p: float, f: complex, g: complex, dps: int = 50):
    """The two scalar identity s-integrals at dps digits, straight from their
    definitions on h(s) = s g + (1-s) f (no parabola rewriting), by
    mpmath.quad. The substitution s = s0 + w sinh(t), w = |h(s0)|/|f-g|,
    spreads the feature of width w around the nearest point s0 over t ~ 1,
    and t = 0 (s = s0) is a breakpoint. Returns (w_term, wtilde_term) as
    mpf; the double inputs are taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        f, g, D, A, s0, d2 = _mp_segment(f, g)
        p = mpmath.mpf(p)
        w = mpmath.sqrt(d2 / A)

        def point(t):
            s = s0 + w * mpmath.sinh(t)
            h = s * g + (1 - s) * f
            return w * mpmath.cosh(t) * s * abs(h) ** (p - 4), h

        def w_integrand(t):
            c, h = point(t)
            return c * mpmath.re(D * mpmath.conj(h)) ** 2

        ta, tb = mpmath.asinh(-s0 / w), mpmath.asinh((1 - s0) / w)
        pts = [ta, 0, tb] if ta < 0 < tb else [ta, tb]
        w_term = p * (p - 1) * mpmath.quad(w_integrand, pts)
        wtilde = p * mpmath.im(f * mpmath.conj(g)) ** 2 * mpmath.quad(
            lambda t: point(t)[0], pts)
        return w_term, wtilde


def segment_split_p4(f: complex, g: complex, dps: int = 50):
    """Exact p = 4 splits from polynomial s-kernels, at dps digits:
    K1m4 = 1/2, K2m4 = 1/4 - 2 s0/3 + s0^2/2, K1m2 = A K2m4 + d^2/2.
    Returns ((w, wtilde) scalar, (w, wtilde) vector with h = 1) as mpf."""
    import mpmath

    with mpmath.workdps(dps):
        f, g, D, A, s0, d2 = _mp_segment(f, g)
        K1m4 = mpmath.mpf(1) / 2
        K2m4 = mpmath.mpf(1) / 4 - 2 * s0 / 3 + s0 ** 2 / 2
        K1m2 = A * K2m4 + d2 / 2
        im = mpmath.im(f * mpmath.conj(g))
        return ((12 * A ** 2 * K2m4, 4 * im ** 2 * K1m4),
                (4 * A * K1m2, 8 * A ** 2 * K2m4))


def half_period_mp(Q: float, p: float, theta: float, lam, dps: int = 30):
    """Half-period T(lam) of the annulus equation from the Riccati period
    integral, at dps digits.

    In t = ln r the annulus equation is autonomous,
    (Phi_p(phi_t))' + kappa Phi_p(phi_t) + lam Phi_p(phi) = 0, kappa = Q - p theta,
    and v = phi_t/phi runs from +inf to -inf between consecutive zeros in time
    T(lam) = int_R (p-1)|v|^(p-2) dv / (lam + kappa |v|^(p-2) v + (p-1)|v|^p).
    mpmath.quad splits at 0 and at v* = -sign(kappa)|kappa/p|, where the
    denominator is smallest. No shooting, no hardylab code. Returns an mpf;
    lam is taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        p, kappa = mpmath.mpf(p), mpmath.mpf(Q) - mpmath.mpf(p) * mpmath.mpf(theta)
        lam = mpmath.mpf(lam)
        cuts = sorted({mpmath.mpf(0), -mpmath.sign(kappa) * abs(kappa / p)})

        def f(v):
            x = abs(v) ** (p - 2)
            return (p - 1) * x / (lam + kappa * x * v + (p - 1) * x * v * v)

        return mpmath.quad(f, [-mpmath.inf, *cuts, mpmath.inf])


def annulus_eigenvalue_mp(Q: float, p: float, theta: float, a: float, b: float,
                          n: int = 1, dps: int = 30, bracket=None):
    """n-th annulus eigenvalue at dps digits: the root of
    n half_period_mp(lam) = ln(b/a) above |kappa/p|^p, by mpmath.findroot's
    secant from the kappa = 0 value, or by its Anderson solver from a
    bracket (lo, hi) above c, which a root close to c needs. Returns an mpf."""
    import mpmath

    with mpmath.workdps(dps):
        P = mpmath.mpf(p)
        c = abs(mpmath.mpf(Q) / P - mpmath.mpf(theta)) ** P
        L = mpmath.log(mpmath.mpf(b) / mpmath.mpf(a))

        def f(lam):
            return n * half_period_mp(Q, p, theta, lam, dps) - L

        if bracket is not None:
            return mpmath.findroot(f, tuple(map(mpmath.mpf, bracket)),
                                   solver="anderson")
        pi_p = 2 * mpmath.pi * (P - 1) ** (1 / P) / (P * mpmath.sin(mpmath.pi / P))
        return mpmath.findroot(f, c + (n * pi_p / L) ** P)


def strip_quotient_mp(theta: float, eps: float, dps: int = 30):
    """The strip quotient of u = P(x) E(y) at dps digits, as the ratio

        (X1 Y1 - 2 X2 Y2 + X3 Y3) / (X4 Y1)

    of the seven unexpanded 1-D integrals of the tensor form, in x itself:
    X1 = int sin^2 P'^2 c^(2-2 theta), X2 = int sin cos P P' c^(2-2 theta),
    X3 = int cos^2 P^2 c^(2-2 theta), X4 = int P^2 c^(-2 theta) over
    [0, x_out], Y1 = int E^2 w, Y2 = int E E' w, Y3 = int E'^2 w over [-1, 1],
    with c = cos x, w = e^((2-2 theta) y), P = c^(theta-1/2) f_eps,
    E = e^((theta-1/2) y) eta, f_eps the quintic step from 1 at
    x_in = (pi/2)/(1+2 eps) to 0 at x_out = (pi/2)/(1+eps) and
    eta = exp(1 - 1/(1-y^2)). mpmath.quad splits [0, x_in] where the distance
    to the edge grows by factors of 100. No hardylab code and no integration
    by parts. Returns an mpf; theta and eps are taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        theta, eps = mpmath.mpf(theta), mpmath.mpf(eps)
        half_pi = mpmath.pi / 2
        x_in, x_out = half_pi / (1 + 2 * eps), half_pi / (1 + eps)
        sig = theta - mpmath.mpf(1) / 2

        def f(x):
            if x <= x_in:
                return mpmath.mpf(1), mpmath.mpf(0)
            t = (x_out - x) / (x_out - x_in)
            return (t ** 3 * (10 - 15 * t + 6 * t ** 2),
                    -30 * t ** 2 * (1 - t) ** 2 / (x_out - x_in))

        @functools.cache     # the four x-integrals share their nodes
        def P(x):
            c, s = mpmath.cos(x), mpmath.sin(x)
            v, dv = f(x)
            dp = -sig * c ** (sig - 1) * s * v + c ** sig * dv
            return c, s, c ** sig * v, dp

        @functools.cache
        def E(y):
            eta = mpmath.exp(1 - 1 / (1 - y * y))
            deta = eta * (-2 * y / (1 - y * y) ** 2)
            e = mpmath.exp(sig * y)
            w = mpmath.exp((2 - 2 * theta) * y)
            return w, e * eta, sig * e * eta + e * deta

        def X(k):
            def integrand(x):
                c, s, p, dp = P(x)
                vw = c ** (2 - 2 * theta)
                return (s * s * dp * dp * vw, s * c * p * dp * vw,
                        c * c * p * p * vw, p * p * c ** (-2 * theta))[k]
            return integrand

        def Y(k):
            def integrand(y):
                w, e, de = E(y)
                return (e * e * w, e * de * w, de * de * w)[k]
            return integrand

        gap, cuts = half_pi - x_in, []
        while gap * 100 < half_pi:
            gap *= 100
            cuts.append(half_pi - gap)
        xs = [0, *cuts[::-1], x_in, x_out]
        X1, X2, X3, X4 = (mpmath.quad(X(k), xs) for k in range(4))
        Y1, Y2, Y3 = (mpmath.quad(Y(k), [-1, 0, 1]) for k in range(3))
        return (X1 * Y1 - 2 * X2 * Y2 + X3 * Y3) / (X4 * Y1)


def scalar_bump_draws(rng: np.random.Generator, interval, count: int):
    """(c, w, amp) of each bump of count random profiles, one generator call
    per number: random_bumps' draw order written as a loop of scalar
    draws, n = integers(1, 5) bumps, then per bump c = uniform(left, right),
    w = uniform(0.2, 0.95) min(c - lo, hi - c), amp = uniform(0.2, 1) and,
    after the first bump, a sign flip when random() < 0.4."""
    lo = max(interval[0], 1e-6)
    hi = interval[1] if np.isfinite(interval[1]) else 30.0
    left, right = lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)
    draws = []
    for _ in range(count):
        bumps = []
        for i in range(int(rng.integers(1, 5))):
            c = rng.uniform(left, right)
            w = rng.uniform(0.2, 0.95) * min(c - lo, hi - c)
            amp = rng.uniform(0.2, 1.0)
            if i > 0 and rng.random() < 0.4:
                amp = -amp
            bumps.append((c, w, amp))
        draws.append(bumps)
    return draws


def dense_bump_sum(bumps, r, rows, derivative: bool):
    """Bumps.value (derivative=False) or Bumps.derivative of the batch
    bumps, densely: rows broadcast against r's leading axes, and every bump,
    zero-amplitude pads too, evaluated at every point and added in bump
    order."""
    r = np.asarray(r, dtype=float)
    pick = (slice(None), rows) + (None,) * (r.ndim - np.ndim(rows))
    out = None
    for cj, wj, aj in zip(bumps.centers[pick], bumps.halfwidths[pick],
                          bumps.amplitudes[pick]):
        t = (r - cj) / wj
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        q = 1.0 - ts**2
        core = np.exp(1.0 - 1.0 / q)
        if derivative:
            core = core * (-2.0 * ts / q**2)
            aj = aj / wj
        term = np.where(inside, aj * core, 0.0)
        out = term if out is None else out + term
    return out[()]


def bump_quotient_mp(bumps, Q: float, p: float, pieces: int, dps: int = 30):
    """int r^(Q-1) |phi'|^p dr / int r^(Q-1-p) |phi|^p dr for the bump sum
    phi = sum a exp(1 - 1/(1 - t^2)), t = (r - c)/w, over the (c, w, a) of
    bumps: the power scenario's reduced quotient at theta = 1, at dps digits.
    mpmath.quad splits at every bump edge c -+ w, where phi is not analytic,
    and on a uniform grid of `pieces` pieces of the support, which puts the
    kinks of |phi'|^p and |phi|^p (p not even) near a split. No hardylab
    code. Returns an mpf; the parameters are taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        params = [tuple(map(mpmath.mpf, b)) for b in bumps]
        lo = min(c - w for c, w, _ in params)
        hi = max(c + w for c, w, _ in params)
        cuts = {lo + (hi - lo) * k / pieces for k in range(pieces + 1)}
        cuts |= {c + s * w for c, w, _ in params for s in (-1, 1)}

        def phi(r, derivative):
            total = mpmath.mpf(0)
            for c, w, a in params:
                t = (r - c) / w
                if abs(t) < 1:
                    q = 1 - t * t
                    term = a * mpmath.exp(1 - 1 / q)
                    total += term * -2 * t / (w * q * q) if derivative else term
            return total

        num = mpmath.quad(lambda r: r ** (Q - 1) * abs(phi(r, True)) ** p,
                          sorted(cuts))
        den = mpmath.quad(lambda r: r ** (Q - 1 - p) * abs(phi(r, False)) ** p,
                          sorted(cuts))
        return num / den
