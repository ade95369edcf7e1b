import importlib
import inspect

import pytest

import hardylab

LIBRARY_MODULES = ("besselpair", "functional", "geometry", "identities",
                   "profiles", "quadrature", "reports", "scenarios",
                   "sharpness", "spectral")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_only_what_it_defines(name):
    # a function or class listed in a module's __all__ is defined there; the
    # package __init__ alone re-exports
    module = importlib.import_module(f"hardylab.{name}")
    for attr in module.__all__:
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (name, attr)


def test_package_exports_resolve():
    for attr in hardylab.__all__:
        assert hasattr(hardylab, attr), attr


def test_each_verdict_passes_and_fails(monkeypatch):
    # every pass rule, called without the CLI on one passing and one failing
    # input: each lives next to the quantity it judges
    from dataclasses import replace

    import numpy as np

    from hardylab import functional
    from hardylab.besselpair import verify_bessel_pair
    from hardylab.geometry import (bound_verdict, grushin,
                                   measure_homogeneity_check,
                                   vandermonde_checks)
    from hardylab.identities import identity_verdict
    from hardylab.scenarios import scenario_catalog
    from hardylab.sharpness import improved_weight_check, is_stable

    def split(residual):
        return {"residual": np.array([1e-12, residual]),
                "rhs_closed": np.array([5.0, 1.0])}

    assert identity_verdict(split(2e-9)) == (1.0, None)
    worst, failure = identity_verdict(split(3e-9))
    assert worst == pytest.approx(1.5) and failure == (
        "scalar/vector identity residual exceeded 1e-9 (1 + |rhs|)")

    power = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    cert = verify_bessel_pair(power, (1.0, 10.0))
    assert cert.failure is None
    for key in ("max_flux_over_budget", "max_phi_over_budget"):
        assert replace(cert, **{key: 10.0}).failure is None
    for change in ({"is_positive": False}, {"max_flux_over_budget": 10.5},
                   {"max_phi_over_budget": 10.5},
                   {"max_flux_over_budget": float("nan")}):
        assert replace(cert, **change).failure.startswith(
            "Bessel-pair certificate"), change

    assert is_stable([4.0, 8.0], [0.5, 0.25]) and is_stable([4.0, 8.0])
    assert not is_stable([4.0, 8.1])
    assert not is_stable([4.0, 4.5], [0.25, 0.5])

    assert improved_weight_check(5.0, 2.0, 5, seed=7)["failure"] is None
    assert functional.slack_verdict(power, [{"slack": -1e-8}]) == (-1e-8, None)
    assert functional.slack_verdict(power, [{"slack": 0.5}, {"slack": -2e-8}]) \
        == (-2e-8, "sampled quotient fell below the sharp constant for power "
                   "(min normalized slack -2e-08)")
    monkeypatch.setattr(functional, "random_profile_slacks",
                        lambda *a: [{"slack": 0.5}, {"slack": -2e-9}])
    assert improved_weight_check(5.0, 2.0, 2, seed=7)["failure"] == (
        "improved-weight inequality violated (slack below -1e-9)")

    assert bound_verdict("strip", 1.0 - 1e-9, 1.5) == (1.0, True)
    assert bound_verdict("strip", 1.0 - 2e-9, 1.5) == (1.0, False)
    # above 1 the slack is 1e-9 relative: a quotient 1e-6 relative below
    # the bound still fails
    for theta in (1.0, 1e4, 1e8):
        expected = ((2.0 * theta - 1.0) / 2.0) ** 2
        assert bound_verdict("strip", expected / (1.0 + 1e-6), theta) == \
            (expected, False)
    assert bound_verdict("gradient", 1e-6) == (0.0, True)
    assert bound_verdict("gradient", 2e-6) == (0.0, False)
    for check in ("homogeneity", "orthogonality"):
        assert bound_verdict(check, 1e-12) == (0.0, True)
        assert bound_verdict(check, 2e-12) == (0.0, False)

    model = grushin(1, 1, 1.0)
    assert measure_homogeneity_check(model, 2.0, 1.0, 2.0, 20000)["pass"]
    for dQ in (0.25, 1e-6):
        assert not measure_homogeneity_check(replace(model, Q=model.Q + dQ),
                                             2.0, 1.0, 2.0, 20000)["pass"]

    assert vandermonde_checks(3, 1.0, 20000, epsilon=1e-3)["pass"]
    real = functional.reduce_radial_functional

    def reduced_off_by_a_tenth(*args):
        red = real(*args)
        return replace(red, quotient=1.1 * red.quotient)

    monkeypatch.setattr(functional, "reduce_radial_functional",
                        reduced_off_by_a_tenth)
    assert not vandermonde_checks(3, 1.0, 20000, epsilon=1e-3)["pass"]
