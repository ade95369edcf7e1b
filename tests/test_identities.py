import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from hardylab.identities import (_CHUNK, _graded_panels,
                                 picone_remainder, realified_identity_oracle,
                                 rhs_closed_form, sample_complex_pairs,
                                 scalar_identity_batch,
                                 vector_identity_batch)
from hardylab.scenarios import CheckFailure, ParameterDomainError

from oracles import (check_cp_lower_bound, near_collinear_pairs,
                     near_collinear_vectors, segment_identity_oracle,
                     segment_split_mp, segment_split_p4)

_U = 2.0 ** -53


def _one_pair(batch, p, f, g):
    """The batch split of a single pair (scalars, or C^h vectors), as floats
    named like the batch keys."""
    out = batch(p, np.array([f]), np.array([g]))
    return SimpleNamespace(**{k: float(v[0]) for k, v in out.items()})


def test_p2_collapses_to_squared_difference():
    b = _one_pair(scalar_identity_batch, 2.0, 1.0, 1j)
    assert b.rhs_closed == pytest.approx(2.0, abs=1e-14)
    assert b.w_term + b.wtilde_term == pytest.approx(2.0, abs=1e-10)
    assert b.residual <= 1e-10


def test_p3_real_pair_analytic_split():
    # w^2 = 6 int_0^1 s(2-s) ds = 4, wtilde = 0 (real pair)
    b = _one_pair(scalar_identity_batch, 3.0, 2.0, 1.0)
    assert b.rhs_closed == pytest.approx(4.0, abs=1e-14)
    assert b.w_term == pytest.approx(4.0, rel=1e-12)
    assert b.wtilde_term == 0.0
    assert b.residual <= 1e-12


def test_random_pairs_residual_p2_5():
    rng = np.random.default_rng(1234)
    f, g = sample_complex_pairs(rng, 10_000, radius=1.0)
    out = scalar_identity_batch(2.5, f, g)
    tol = 1e-9 * (1.0 + np.abs(out["rhs_closed"]))
    assert np.max(out["residual"] / tol) <= 1.0


def test_split_terms_match_bruteforce_oracle():
    rng = np.random.default_rng(77)
    f, g = sample_complex_pairs(rng, 12, radius=3.0, adversarial=False)
    for p in (2.0, 2.5, 3.0, 4.0):
        out = scalar_identity_batch(p, f, g)
        for i in range(f.size):
            w_o, wt_o = segment_identity_oracle(p, complex(f[i]), complex(g[i]))
            assert out["w_term"][i] == pytest.approx(w_o, rel=5e-6, abs=1e-8)
            assert out["wtilde_term"][i] == pytest.approx(wt_o, rel=5e-6, abs=1e-8)


def test_nonnegativity_property():
    rng = np.random.default_rng(5150)
    f, g = sample_complex_pairs(rng, 5000)
    for p in (2.0, 2.5, 3.0, 4.0):
        out = scalar_identity_batch(p, f, g)
        assert np.min(out["rhs_closed"]) >= -1e-12 * (1 + np.abs(out["rhs_closed"]).max())
        assert np.min(out["w_term"]) >= 0.0
        assert np.min(out["wtilde_term"]) >= 0.0


def test_zero_characterization():
    rng = np.random.default_rng(31)
    f, g = sample_complex_pairs(rng, 4000)
    out = scalar_identity_batch(3.0, f, g)
    total = out["w_term"] + out["wtilde_term"]
    near = np.abs(f - g) <= 1e-7 * (np.abs(f) + np.abs(g))
    assert np.all(total[~near] > 1e-12)
    # exact equality really vanishes
    b = _one_pair(scalar_identity_batch, 3.0, 0.3 + 0.4j, 0.3 + 0.4j)
    assert b.w_term + b.wtilde_term <= 1e-15


def test_vector_trivial_cases():
    z = np.array([1 + 2j, -0.5j, 0.25])
    same = _one_pair(vector_identity_batch, 3.3, z, z)
    assert same.rhs_closed == pytest.approx(0.0, abs=1e-13)
    assert same.w_term + same.wtilde_term <= 1e-13
    collapse = _one_pair(vector_identity_batch, 3.3, z, np.zeros(3))
    norm = float(np.linalg.norm(z))
    assert collapse.rhs_closed == pytest.approx(norm ** 3.3, rel=1e-13)
    assert collapse.w_term + collapse.wtilde_term == pytest.approx(
        norm ** 3.3, rel=1e-10)


def test_vector_p2_is_squared_distance():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(100, 3)) + 1j * rng.normal(size=(100, 3))
    X = rng.normal(size=(100, 3)) + 1j * rng.normal(size=(100, 3))
    out = vector_identity_batch(2.0, Z, X)
    d2 = np.sum(np.abs(Z - X) ** 2, axis=1)
    assert np.max(np.abs(out["rhs_closed"] - d2)) <= 1e-12 * (1 + d2.max())
    assert np.max(out["residual"]) <= 1e-12 * (1 + d2.max())
    assert np.max(out["wtilde_term"]) == 0.0  # coefficient p-2 vanishes


def test_vector_h1_consistent_with_scalar():
    rng = np.random.default_rng(99)
    for p in (2.0, 2.5, 3.0, 4.0):
        f, g = sample_complex_pairs(rng, 1000, radius=5.0)
        sc = scalar_identity_batch(p, f, g)
        vc = vector_identity_batch(p, f[:, None], g[:, None])
        tol = 1e-9 * (1.0 + np.abs(sc["rhs_closed"]))
        assert np.max(np.abs(sc["rhs_closed"] - vc["rhs_closed"]) / tol) <= 1.0
        total_s = sc["w_term"] + sc["wtilde_term"]
        total_v = vc["w_term"] + vc["wtilde_term"]
        assert np.max(np.abs(total_s - total_v) / tol) <= 1.0


def test_realified_oracle_examples():
    out = realified_identity_oracle(3.0, np.array([2.0, 0.0]),
                                    np.array([1.0, 0.0]))
    assert out["lhs"] == pytest.approx(4.0, abs=1e-14)
    assert out["rhs"] == pytest.approx(4.0, rel=1e-10)
    mu = np.array([0.3, -0.7, 1.1, 0.2])
    nu = np.array([-0.5, 0.4, 0.0, 0.9])
    out2 = realified_identity_oracle(2.0, mu, nu)
    assert out2["rhs"] == pytest.approx(float(np.sum((mu - nu) ** 2)), rel=1e-12)
    out3 = realified_identity_oracle(4.0, np.array([1.0, 1.0]),
                                     np.array([0.0, 0.0]))
    assert out3["lhs"] == pytest.approx(4.0, abs=1e-13)
    assert out3["rhs"] == pytest.approx(4.0, rel=1e-11)


def test_path_independence_vector_vs_taylor():
    rng = np.random.default_rng(2024)
    for p in (2.0, 2.5, 3.5):
        Z = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        X = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        out = vector_identity_batch(p, Z, X)
        for i in range(50):
            mu = np.array([Z[i, 0].real, Z[i, 0].imag, Z[i, 1].real, Z[i, 1].imag])
            nu = np.array([X[i, 0].real, X[i, 0].imag, X[i, 1].real, X[i, 1].imag])
            oro = realified_identity_oracle(p, mu, nu)
            total = out["w_term"][i] + out["wtilde_term"][i]
            tol = 1e-9 * (1.0 + abs(oro["lhs"]))
            assert abs(total - oro["rhs"]) <= tol
            assert abs(out["rhs_closed"][i] - oro["lhs"]) <= tol


def test_cp_examples():
    # slack at p=2, f=1, g=0: rhs=1, 2^-2 |f-g|^2 = 1/4
    r = rhs_closed_form(2.0, np.array([1.0 + 0j]), np.array([0.0 + 0j]))[0]
    assert r - 0.25 == pytest.approx(0.75, abs=1e-15)
    # p=3, f=2, g=1: rhs=4, 2^-3 |f-g|^3 = 1/8
    r3 = rhs_closed_form(3.0, np.array([2.0 + 0j]), np.array([1.0 + 0j]))[0]
    assert r3 - 0.125 == pytest.approx(3.875, abs=1e-13)


def test_cp_lower_bound_sampled():
    out = check_cp_lower_bound(2.7, 100_000, seed=42)
    assert out["min_slack"] >= -1e-12


def _mp_remainder(p, f, g):
    """|f|^p + (p-1)|g|^p - p |g|^(p-2) Re<g, f> at 50 digits; f and g are
    complex scalars or C^h rows."""
    import mpmath

    f = [mpmath.mpc(z.real, z.imag) for z in np.atleast_1d(f)]
    g = [mpmath.mpc(z.real, z.imag) for z in np.atleast_1d(g)]
    nf = mpmath.sqrt(sum(abs(z) ** 2 for z in f))
    ng = mpmath.sqrt(sum(abs(z) ** 2 for z in g))
    re_gf = sum(mpmath.re(mpmath.conj(b) * a) for a, b in zip(f, g))
    return float(nf ** p + (p - 1) * ng ** p - p * ng ** (p - 2) * re_gf)


def test_rhs_closed_form_against_high_precision():
    # relative error against a 50-digit evaluation: near-collinear scalar and
    # C^3 pairs, where the three terms cancel to 1e-24 of their size, generic
    # sampled pairs, and real (g, d) with |d/g| from 1e-10 to 10
    import mpmath

    rng = np.random.default_rng(2718)
    f, g = near_collinear_pairs(rng, 20)
    F, G = near_collinear_vectors(rng, 20, h=3)
    fs, gs = sample_complex_pairs(rng, 60, radius=10.0)
    ratio = np.geomspace(1e-10, 10.0, 41) * np.tile([1.0, -1.0], 21)[:41]
    gr = rng.uniform(0.1, 10.0, ratio.size) * rng.choice([-1.0, 1.0], ratio.size)
    dr = ratio * gr
    with mpmath.workdps(50):
        for p in (2.0, 2.5, 3.0, 4.0, 12.0):
            for ours, pairs in ((rhs_closed_form(p, f, g), zip(f, g)),
                                (rhs_closed_form(p, F, G, vector=True),
                                 zip(F, G)),
                                (rhs_closed_form(p, fs, gs), zip(fs, gs))):
                exact = np.array([_mp_remainder(p, a, b) for a, b in pairs])
                rel = np.abs(ours - exact) / exact
                assert rel.max() <= 1e-13, (p, int(rel.argmax()), rel.max())
        for p in (2.5, 3.0, 4.0, 20.0):
            ours = picone_remainder(p, gr, dr)
            assert ours.dtype == np.float64
            exact = np.array([_mp_remainder(p, b + d, b) for b, d in
                              zip(map(mpmath.mpf, gr), map(mpmath.mpf, dr))])
            rel = np.abs(ours - exact) / exact
            assert rel.max() <= 1e-13, (p, int(rel.argmax()), rel.max())


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        scalar_identity_batch(1.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        check_cp_lower_bound(1.0, 10, seed=0)


def test_sample_count_must_be_positive():
    for count in (0, -2):
        with pytest.raises(ValueError, match="sample count"):
            sample_complex_pairs(np.random.default_rng(0), count)


def _wtilde_rtol(f, g):
    """A-priori relative rounding bound of the computed wtilde_term on double
    inputs, set from the dtype. im = Im(f conj g) cancels with condition
    (|Im f Re g| + |Re f Im g|)/|im|. The nodes and s0 are stored to u
    absolutely, which is u/w relative to the feature width
    w = |h(s0)|/|f-g|, and d^2 = |h(s0)|^2 cancels by as much where the
    segment passes near 0. w_term, whose integrand vanishes at s0, has
    neither loss."""
    diff = f - g
    A = np.abs(diff) ** 2
    s0 = np.real(np.conj(f) * diff) / A
    width = np.abs(f - s0 * diff) / np.sqrt(A)
    im = np.imag(f * np.conj(g))
    kappa = (np.abs(f.imag * g.real) + np.abs(f.real * g.imag)) / np.abs(im)
    return 1e-12 + 4.0 * _U / width + 4.0 * _U * kappa


def test_split_terms_match_exact_oracles():
    """w_term and wtilde_term each against an exact value, relative to it,
    on near-collinear pairs down to |f - g| = 1e-12 |f|: p = 4 from the
    polynomial kernels, p in {2, 2.5, 3} from 50-digit mpmath.quad."""
    rng = np.random.default_rng(404)
    f, g = near_collinear_pairs(rng, 20)
    rtol_w, rtol_wt = 1e-13, _wtilde_rtol(f, g)
    exact4 = [segment_split_p4(f[i], g[i]) for i in range(f.size)]
    sc = scalar_identity_batch(4.0, f, g)
    vc = vector_identity_batch(4.0, f[:, None], g[:, None])
    for i, (scalar, vector) in enumerate(exact4):
        for got, want, rtol in ((sc["w_term"][i], scalar[0], rtol_w),
                                (sc["wtilde_term"][i], scalar[1], rtol_wt[i]),
                                (vc["w_term"][i], vector[0], rtol_w),
                                (vc["wtilde_term"][i], vector[1], rtol_w)):
            assert abs(got - float(want)) <= rtol * abs(float(want)), (i, got, want)
    for p, sl in ((2.0, slice(0, None, 3)), (2.5, slice(1, None, 3)),
                  (3.0, slice(2, None, 3))):
        idx = np.arange(f.size)[sl]
        out = scalar_identity_batch(p, f[idx], g[idx])
        for j, i in enumerate(idx):
            w, wt = (float(x) for x in segment_split_mp(p, f[i], g[i]))
            assert abs(out["w_term"][j] - w) <= rtol_w * w, (p, i, out["w_term"][j], w)
            assert abs(out["wtilde_term"][j] - wt) <= rtol_wt[i] * wt, (
                p, i, out["wtilde_term"][j], wt)


def test_coupled_near_collinear_vectors():
    rng = np.random.default_rng(8080)
    for h in (2, 5):
        Z, X = near_collinear_vectors(rng, 40, h)
        for p in (2.0, 2.5, 3.0, 4.0):
            out = vector_identity_batch(p, Z, X)
            tol = 1e-9 * (1.0 + np.abs(out["rhs_closed"]))
            assert np.max(out["residual"] / tol) <= 1.0, (h, p)


def test_live_panels_tile_unit_interval():
    rng = np.random.default_rng(17)
    f, g = sample_complex_pairs(rng, 4000)
    fa, ga = near_collinear_pairs(rng, 30)
    f, g = np.concatenate([f, fa]), np.concatenate([g, ga])
    diff = f - g
    A = np.abs(diff) ** 2
    s0 = np.real(np.conj(f) * diff) / A
    d2 = np.abs(f - s0 * diff) ** 2
    owner, lo, hi = _graded_panels(A, s0, d2)
    assert np.all(hi > lo)
    total = np.bincount(owner, hi - lo, minlength=f.size)
    assert np.max(np.abs(total - 1.0)) <= 1e-15
    generic = np.arange(400, 4000)      # sample_complex_pairs puts 400 adversarial first
    count = np.bincount(owner, minlength=f.size)
    assert np.mean(count[generic]) < 8.0


def _full_depth_panels(A, s0, d2):
    """The graded panels from all 42 offsets per side, every candidate built
    and the empty ones dropped afterwards: the reference for the depth cut."""
    offsets = np.concatenate([[0.0], 2.0 ** np.arange(41.0), [np.inf]])
    width = np.clip(np.sqrt(np.maximum(d2, 0.0) / A), 1e-12, 0.25)
    offs = width[:, None] * offsets[None, :]
    right = np.clip(s0[:, None] + offs, 0.0, 1.0)
    left = np.clip(s0[:, None] - offs, 0.0, 1.0)
    lo = np.concatenate([right[:, :-1], left[:, 1:]], axis=1)
    hi = np.concatenate([right[:, 1:], left[:, :-1]], axis=1)
    owner, k = np.nonzero(hi != lo)
    return owner, lo[owner, k], hi[owner, k]


def test_graded_panels_match_full_depth():
    """The panels cut at the depth a batch needs are those of the full table,
    in the same order, for every pair alone and for every block of _CHUNK."""
    rng = np.random.default_rng(2929)
    f, g = sample_complex_pairs(rng, 2000)          # generic and adversarial
    fa, ga = near_collinear_pairs(rng, 40, eps_range=(1e-12, 1e-1))
    fe = 10.0 * np.exp(2j * np.pi * rng.uniform(size=20))
    ge = fe * (1.0 + 1e-14 * np.exp(2j * np.pi * rng.uniform(size=20)))
    # width clamped at 1e-12 (a segment through 0) and at 0.25
    fw = np.array([1.0, 2.0 + 1j, 10.0, 3.0])
    gw = np.array([-1.0, -4.0 - 2j, 10j, 3.0 + 9j])
    f, g = np.concatenate([f, fa, fe, fw]), np.concatenate([g, ga, ge, gw])
    diff = f - g
    A = np.abs(diff) ** 2
    s0 = np.real(np.conj(f) * diff) / A
    d2 = np.abs(f - s0 * diff) ** 2
    width = np.sqrt(d2 / A)
    assert np.max(np.abs(s0)) > 1e12
    assert np.min(width) < 1e-12 and np.max(width) > 0.25
    for step in (1, _CHUNK):
        for start in range(0, f.size, step):
            sl = slice(start, start + step)
            got = _graded_panels(A[sl], s0[sl], d2[sl])
            want = _full_depth_panels(A[sl], s0[sl], d2[sl])
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (step, start)
    # an overflowing pair, whose reach is not finite, takes the full table
    A, s0, d2 = (np.array([1.0, np.inf]), np.array([0.3, np.nan]),
                 np.array([1.0, np.nan]))
    for a, b in zip(_graded_panels(A, s0, d2), _full_depth_panels(A, s0, d2)):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.nan)])
def test_nonfinite_pairs_are_rejected_before_arithmetic(bad):
    # under tier-1's warnings-as-errors: no numpy warning comes first
    finite = np.array([1.0, 2.0 - 1j, 0.5j, 3.0])
    spoilt = finite.copy()
    spoilt[2] = bad
    for f, g in ((spoilt, finite), (finite, spoilt)):
        with pytest.raises(ParameterDomainError,
                           match="f and g must be finite: row 2 is not"):
            scalar_identity_batch(3.0, f, g)
    with pytest.raises(ParameterDomainError, match="row 0 is not"):
        scalar_identity_batch(3.0, [bad], [1.0])
    Z = np.ones((4, 3), dtype=complex)
    X = Z.copy()
    X[1, 2] = bad
    with pytest.raises(ParameterDomainError,
                       match="zeta and xi must be finite: row 1 is not"):
        vector_identity_batch(3.0, Z, X)


def test_finite_overflow_is_a_check_failure():
    with pytest.raises(CheckFailure, match="overflows the float range"):
        scalar_identity_batch(3.0, [1e200], [1.0])
    with pytest.raises(CheckFailure, match="overflows the float range"):
        vector_identity_batch(3.0, np.full((2, 3), 1e200), np.ones((2, 3)))


def test_realified_oracle_near_antipodal_sweep():
    """The Taylor-remainder oracle against 40-digit mpmath on pairs whose
    segment passes close to 0, where |c(t)| has a narrow kink."""
    import mpmath

    rng = np.random.default_rng(55)
    f, g = near_collinear_pairs(rng, 30, eps_range=(1e-12, 1e-1))
    with mpmath.workdps(40):
        for p in (2.0, 2.5, 3.0, 4.0, 5.5):
            for i in range(f.size):
                mu = np.array([f[i].real, f[i].imag])
                nu = np.array([g[i].real, g[i].imag])
                m, n = (mpmath.mpc(*x) for x in (mu, nu))
                exact = float(abs(m) ** p + (p - 1) * abs(n) ** p
                              - p * abs(n) ** (p - 2) * mpmath.re(mpmath.conj(n) * m))
                got = realified_identity_oracle(p, mu, nu)["rhs"]
                assert abs(got - exact) <= 1e-9 * (1.0 + abs(exact)), (p, i, got, exact)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_pair_result_does_not_depend_on_its_block(p):
    """The kernel takes pairs in blocks of _CHUNK; a batch's output must equal
    that of sub-batches cut across block edges, and that of each pair alone."""
    rng = np.random.default_rng(1515)
    f, g = sample_complex_pairs(rng, 480)
    fa, ga = near_collinear_pairs(rng, 40)
    f, g = np.concatenate([f, fa]), np.concatenate([g, ga])
    F, G = np.stack([sample_complex_pairs(rng, 600) for _ in range(3)], axis=2)
    Z, X = near_collinear_vectors(rng, 40, 3)
    F[::5], G[::5] = Z, X
    cuts = np.cumsum([0, 1, _CHUNK - 1, _CHUNK + 1])
    for batch, a, b in ((scalar_identity_batch, f, g),
                        (vector_identity_batch, F, G)):
        whole = batch(p, a, b)
        pieces = [batch(p, a[lo:hi], b[lo:hi])
                  for lo, hi in zip(cuts, np.append(cuts[1:], a.shape[0]))]
        alone = [batch(p, a[i:i + 1], b[i:i + 1]) for i in range(a.shape[0])]
        for key, value in whole.items():
            assert np.array_equal(value, np.concatenate([x[key] for x in pieces])), key
            assert np.array_equal(value, np.concatenate([x[key] for x in alone])), key


def test_split_outputs_are_pinned():
    """The four output arrays of seeded 2,000-pair batches, bit for bit: the
    scalar split at p in {2, 2.5, 3, 4} and the C^3 split at p = 3, whose
    first 200 rows are near-collinear as whole vectors."""
    rng = np.random.default_rng(3030)
    digest = hashlib.sha256()
    for p in (2.0, 2.5, 3.0, 4.0):
        out = scalar_identity_batch(p, *sample_complex_pairs(rng, 2000))
        digest.update(b"".join(out[k].tobytes() for k in sorted(out)))
    F, G = np.stack([sample_complex_pairs(rng, 2000) for _ in range(3)], axis=2)
    G[:200] = F[:200] * (G[:200, :1] / F[:200, :1])
    out = vector_identity_batch(3.0, F, G)
    digest.update(b"".join(out[k].tobytes() for k in sorted(out)))
    assert digest.hexdigest() == "6a6b8654669279325e4c178576e52c3aa7071936e1838b43fe29aa16592d2a43"
