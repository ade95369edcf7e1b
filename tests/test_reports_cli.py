import argparse
import faulthandler
import hashlib
import json
import math
import pkgutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hardylab
from hardylab.cli import run
from hardylab.reports import format_number, render_csv, render_json

from oracles import strip_quotient_mp


def _cli(args, capsys):
    """(exit code, stdout, stderr) of `run(args)` in this process. An
    exception that escapes run fails the test, as a traceback would; a run
    that hangs ends the suite after 60 s with the stacks of its threads."""
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        code = run(args)
    finally:
        faulthandler.cancel_dump_traceback_later()
    out = capsys.readouterr()
    return code, out.out, out.err


def test_format_number_17_digits():
    assert format_number(math.pi) == "3.1415926535897931"
    assert format_number(1.0) == "1"
    assert format_number(3) == "3"


def test_render_csv_quoting_and_header():
    text = render_csv([{"a": 1.5, "b": 'x,"y"'}])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == '1.5,"x,""y"""'


def test_render_csv_empty_rows_rejected():
    with pytest.raises(ValueError):
        render_csv([])


def test_render_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_csv([{"a": 1}, {"b": 2}])


def test_render_json_structure():
    doc = json.loads(render_json({"seed": 1}, [{"x": 2.0}], {"ok": True}))
    assert set(doc) == {"config", "rows", "summary"}


def test_eig_cli_json(capsys):
    code, out, err = _cli(["eig", "--p", "2", "--Q", "3", "--theta", "1",
                           "--a", "1", "--b", "2.718281828"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["lambda"] == pytest.approx(10.1196044, rel=1e-6)
    assert doc["summary"]["zero_count"] == 0
    assert doc["config"]["command"] == "eig"


def test_eig_cli_any_which(capsys):
    # the n-th eigenvalue for any n >= 1: n = 3 against the p = 2 closed form
    code, out, _ = _cli(["eig", "--Q", "3", "--p", "2", "--theta", "1",
                         "--a", "1", "--b", "2", "--which", "3"], capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["lambda"] == pytest.approx(
        0.25 + (3 * math.pi / math.log(2.0)) ** 2, rel=1e-8)
    assert summary["zero_count"] == 2
    code, _, err = _cli(["eig", "--which", "0"], capsys)
    assert code == 2
    assert err.startswith("parameter error: which must be >= 1")


def test_eig_cli_wide_annulus_with_large_kappa(capsys):
    # kappa/p = 9 against u = (lam - c)^(1/2) = 0.027: (lam - c)/lam is
    # 9e-6, the kappa v < 0 side of the period integrand peaks at about
    # lam/(lam - c) = 1e5, and the half-period check passes there
    code, out, err = _cli(["eig", "--Q", "20", "--p", "2", "--theta", "1",
                           "--a", "1", "--b", "1e50"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["lambda"] == pytest.approx(
        81.0 + (math.pi / math.log(1e50)) ** 2, abs=1e-12)


def test_eig_cli_rejects_bad_interval(capsys):
    code, out, err = _cli(["eig", "--p", "2", "--Q", "3", "--a", "0",
                           "--b", "1"], capsys)
    assert code == 2
    assert "a" in err or "parameter" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = _cli(["eig", "--frequency", "1"], capsys)
    assert code == 2


def test_unknown_scenario_exits_2(capsys):
    code, _, err = _cli(["rayleigh", "--scenario", "sobolev"], capsys)
    assert code == 2
    assert "unknown scenario" in err


def test_identity_cli_csv_schema(capsys):
    code, out, err = _cli(["identity", "--p", "2.5", "--samples", "50",
                           "--seed", "7"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["p", "h", "re_f1", "im_f1", "re_g1", "im_g1",
                      "residual", "w_term", "wtilde_term"]
    assert len(out.splitlines()) == 51
    cfg = json.loads(err.splitlines()[0])
    assert cfg["summary"]["pass"] is True


def test_identity_cli_vector_pairs(capsys):
    code, out, err = _cli(["identity", "--p", "3", "--h", "2",
                           "--samples", "20", "--seed", "3"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["p", "h"]
    assert "re_f2" in header and "im_g2" in header
    assert json.loads(err.splitlines()[0])["summary"]["pass"] is True


def test_identity_cli_vector_pairs_include_near_collinear_rows(capsys):
    # each component is one draw's own (f, g), so the adversarial rows of the
    # draws make whole vectors with G ~ F, G ~ -F or G ~ 0
    code, out, err = _cli(["identity", "--p", "3", "--h", "2", "--samples",
                           "1000", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(err.splitlines()[0])["summary"]["pass"] is True
    lines = out.splitlines()
    header = lines[0].split(",")
    cols = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

    def vec(name):
        return np.stack([cols[:, header.index(f"re_{name}{j}")]
                         + 1j * cols[:, header.index(f"im_{name}{j}")]
                         for j in (1, 2)], axis=1)

    F, G = vec("f"), vec("g")
    size = np.linalg.norm(F, axis=1)
    for other in (F - G, F + G, G):
        assert np.min(np.linalg.norm(other, axis=1) / size) < 1e-3


@pytest.mark.parametrize("h", ["0", "-1"])
def test_identity_cli_rejects_h_below_1(capsys, h):
    code, out, err = _cli(["identity", "--h", h], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: h must be ≥ 1")


def test_sharpness_cli_csv_schema(capsys):
    code, out, _ = _cli(["sharpness", "--scenario", "power", "--Q", "5",
                         "--p", "2", "--theta", "1",
                         "--eps-grid", "1e-2,1e-3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "epsilon,quotient,deficit,scaled_deficit"


def test_rayleigh_cli(capsys):
    code, out, err = _cli(["rayleigh", "--scenario", "cylindrical", "--m", "3",
                           "--p", "2", "--theta", "1", "--profiles", "5"],
                          capsys)
    assert code == 0
    assert out.splitlines()[0] == "index,quotient,slack"
    summary = json.loads(err.splitlines()[0])["summary"]
    assert summary["min_slack"] >= -1e-8


def test_catalog_lists_all_scenarios(capsys):
    code, out, _ = _cli(["catalog"], capsys)
    assert code == 0
    doc = json.loads(out)
    names = {row["name"] for row in doc["rows"]}
    assert names == {"power", "log_radial", "log_cylindrical", "gaussian_a",
                     "gaussian_b", "annulus", "cylindrical", "strip",
                     "antisymmetric", "improved_weight"}


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 2.0, "Q": 3.0, "theta": 1.0,
                               "a": 1.0, "b": 2.0}))
    code, out, _ = _cli(["eig", "--config", str(cfg), "--b", "4.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["b"] == 4.0      # flag wins
    assert doc["config"]["a"] == 1.0      # config supplies the rest


def test_config_integer_for_a_float_flag_writes_the_flags_report(tmp_path,
                                                                capsys):
    # a JSON integer for a float flag is echoed as the flag's float
    out, cfg = tmp_path / "report.json", tmp_path / "run.json"
    cfg.write_text(json.dumps({"Q": 5, "p": 2, "a": 1}))
    reports = []
    for argv in (["--Q", "5", "--p", "2", "--a", "1"], ["--config", str(cfg)]):
        assert _cli(["eig", *argv, "--theta", "1", "--b", "2", "--format",
                     "json", "--out", str(out)], capsys)[0] == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert isinstance(json.loads(reports[1])["config"]["Q"], float)


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # "gamma" is a geometry key that no scenario builder takes; the last
    # three are flags of other subcommands, which this one would ignore
    cases = [({"frequency": 3}, ["eig"]),
             ({"gamma": 1.0}, ["rayleigh", "--scenario", "power", "--Q", "5",
                               "--p", "2", "--profiles", "2"]),
             ({"beta": 3}, ["eig"]),
             ({"R": 5}, ["identity", "--samples", "3"]),
             ({"Q": 5}, ["catalog"])]
    for doc, argv in cases:
        cfg.write_text(json.dumps(doc))
        code, _, err = _cli([*argv, "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config keys" in err


# one run per subcommand as a config file, and one flag that contradicts it
_MERGE_RUNS = [
    ("identity", {"p": 3.0, "samples": 5, "h": 2, "seed": 4}, {"samples": 3}),
    ("bessel", {"scenario": "power", "Q": 5.0, "p": 2.0, "theta": 1.0,
                "r0": 1.0, "r1": 5.0}, {"r1": 4.0}),
    ("eig", {"Q": 3.0, "p": 2.0, "theta": 1.0, "a": 1.0, "b": 2.0,
             "format": "csv"}, {"b": 3.0}),
    ("sharpness", {"mode": "psi", "Q": 5.0, "p": 2.0, "R_grid": "10,100"},
     {"R_grid": "10,1000"}),
    ("geometry", {"model": "greiner", "n": 1, "gamma": 2.0,
                  "check": "gradient", "seed": 3}, {"gamma": 1.0}),
    ("rayleigh", {"scenario": "power", "Q": 5.0, "p": 2.0, "theta": 1.0,
                  "profiles": 3}, {"profiles": 2}),
    ("catalog", {"format": "csv", "seed": 7}, {"format": "json"}),
]


def _flags(doc):
    return [x for k, v in doc.items()
            for x in (f"--{k.replace('_', '-')}", str(v))]


@pytest.mark.parametrize("command, doc, override", _MERGE_RUNS,
                         ids=[run[0] for run in _MERGE_RUNS])
def test_config_file_equals_flags(tmp_path, capsys, command, doc, override):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    flagged = _cli([command, *_flags(doc)], capsys)
    assert flagged[0] == 0, flagged
    assert _cli([command, "--config", str(path)], capsys) == flagged
    overridden = _cli([command, *_flags({**doc, **override})], capsys)
    assert overridden[0] == 0 and overridden != flagged
    assert _cli([command, "--config", str(path), *_flags(override)],
                capsys) == overridden


def test_scenario_flags_cover_builder_params():
    from hardylab.cli import _add_scenario_args
    from hardylab.scenarios import SCENARIO_PARAMETERS

    sp = argparse.ArgumentParser()
    _add_scenario_args(sp)
    flags = {opt for action in sp._actions for opt in action.option_strings}
    for name, keys in SCENARIO_PARAMETERS.items():
        for key in keys:
            assert f"--{key}" in flags, (name, key)


@pytest.mark.parametrize("argv", [["eig", "--p", "nan"],
                                  ["identity", "--p", "nan", "--samples", "20"],
                                  ["eig", "--Q", "nan"], ["eig", "--theta", "nan"],
                                  ["eig", "--Q", "inf"], ["eig", "--b", "inf"],
                                  ["eig", "--tol", "nan"]])
def test_nan_p_exits_2(argv, capsys):
    # a NaN or infinite parameter that reaches the eig search never returns:
    # `_cli`'s hang guard ends it rather than the suite's time
    code, _, err = _cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"parameter error: {argv[1][2:]} must be")


def test_byte_identical_reruns(tmp_path):
    csv_path = tmp_path / "run.csv"
    env_args = ["rayleigh", "--scenario", "power", "--Q", "5", "--p", "2",
                "--theta", "1", "--profiles", "8", "--seed", "99",
                "--out", str(csv_path)]
    blobs = []
    for _ in range(2):
        assert run(env_args) == 0
        blobs.append(csv_path.read_bytes())
    assert blobs[0] == blobs[1]
    json_path = tmp_path / "run.json"
    jargs = ["eig", "--p", "2", "--Q", "3", "--theta", "1", "--a", "1",
             "--b", "2.0", "--out", str(json_path)]
    jblobs = []
    for _ in range(2):
        assert run(jargs) == 0
        jblobs.append(json_path.read_bytes())
    assert jblobs[0] == jblobs[1]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hardylab.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "improved_weight" in proc.stdout


@pytest.mark.parametrize("argv, code, line", [
    (["eig", "--p", "nan"], 2, "parameter error: p must be"),
    (["identity", "--p", "400", "--samples", "100"], 1,
     "FAIL: w_term is not finite at p = 400.0"),
], ids=["parameter_error", "fail"])
def test_module_exits_with_the_run_code(argv, code, line):
    # python -m hardylab.cli: main() hands run's exit code to sys.exit, and
    # the failure is one line on stderr with no traceback and no report
    proc = subprocess.run([sys.executable, "-m", "hardylab.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(line)
    assert proc.stdout == ""


# the twelve README commands at small sample counts, each with the hardylab
# modules it may load beyond the CLI's own (cli, reports, scenarios and the
# profiles that scenarios builds on)
_CLI_LAYERS = {"cli", "reports", "scenarios", "profiles"}
_REDUCTION = {"functional", "quadrature"}
_SWEEPS = {"sharpness"} | _REDUCTION
# the sweep and psi modes, in t, with the Picone remainder of identities
_T_SWEEPS = {"sharpness", "quadrature", "identities"}
_EIG = {"spectral", "quadrature"}   # eig: T and phi by quadrature
_COLD_COMMANDS = {
    "catalog": (["catalog"], set()),
    "identity": (["identity", "--p", "2.5", "--samples", "200", "--seed", "7"],
                 {"identities"}),
    "bessel": (["bessel", "--scenario", "power", "--Q", "5", "--p", "2",
                "--theta", "1", "--r0", "1", "--r1", "10"],
               {"besselpair", "quadrature"}),
    "eig_p2": (["eig", "--Q", "3", "--p", "2", "--theta", "1", "--a", "1",
                "--b", "2.718281828"], _EIG),
    "eig_p3_which2": (["eig", "--Q", "5", "--p", "3", "--theta", "1", "--a",
                       "1", "--b", "2", "--which", "2",
                       "--eigenfunction-out", "{tmp}/phi2.csv"], _EIG),
    "sharpness_sweep": (["sharpness", "--scenario", "power", "--Q", "5",
                         "--p", "2", "--theta", "1",
                         "--eps-grid", "1e-2,1e-3,1e-4"], _T_SWEEPS),
    "sharpness_psi": (["sharpness", "--mode", "psi", "--Q", "5", "--p", "2",
                       "--R-grid", "10,100,1000"], _T_SWEEPS),
    "sharpness_improved": (["sharpness", "--mode", "improved", "--Q", "5",
                            "--p", "2", "--profiles", "5"], _SWEEPS),
    "geometry_measure": (["geometry", "--model", "grushin", "--n", "1",
                          "--k", "1", "--gamma", "1", "--check", "measure",
                          "--samples", "20000"], {"geometry", "quadrature"}),
    "geometry_vandermonde": (["geometry", "--check", "vandermonde", "--N", "3",
                              "--theta", "1", "--samples", "20000"],
                             {"geometry"} | _SWEEPS),
    "geometry_strip": (["geometry", "--check", "strip", "--theta", "1",
                        "--epsilon", "1e-3"], {"geometry"} | _SWEEPS),
    "rayleigh": (["rayleigh", "--scenario", "gaussian_b", "--Q", "5",
                  "--p", "2", "--theta", "1", "--alpha", "2", "--beta", "2",
                  "--profiles", "10"], _REDUCTION),
}


def _cold_modules(code: str, *args: str):
    """Run `code` in a fresh interpreter; it ends by printing, as JSON, its
    result and then its loaded hardylab and scipy modules."""
    probe = ("\nimport sys\nprint(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('hardylab', 'scipy'))))")
    proc = subprocess.run([sys.executable, "-c", code + probe, *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_import_hardylab_loads_no_submodule():
    assert _cold_modules("import json, hardylab") == [["hardylab"]]


def test_cold_path_loads_no_scipy(tmp_path):
    # each command, in its own fresh interpreter, loads only the layers it
    # runs, and none loads scipy: no command integrates an ODE
    assert any(m.split(".")[0] == "scipy" for m in _cold_modules(
        "import json, scipy.integrate")[0])     # the probe can see scipy
    for name, (argv, layers) in _COLD_COMMANDS.items():
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, loaded = _cold_modules(
            "import json, sys, hardylab.cli\n"
            "print(hardylab.cli.run(json.loads(sys.argv[1])))",
            json.dumps(argv + ["--out", str(tmp_path / f"{name}.out")]))
        assert code == 0, name
        ours = {m.split(".", 1)[1] for m in loaded
                if m.startswith("hardylab.")}
        assert ours <= _CLI_LAYERS | layers, (name, ours - _CLI_LAYERS - layers)
        assert not [m for m in loaded if m.split(".")[0] == "scipy"], name


def test_no_hardylab_module_imports_scipy():
    (loaded,) = _cold_modules(
        "import importlib, json, pkgutil, hardylab\n"
        "for m in pkgutil.iter_modules(hardylab.__path__):\n"
        "    importlib.import_module('hardylab.' + m.name)")
    every = {f"hardylab.{m.name}" for m in pkgutil.iter_modules(hardylab.__path__)}
    assert len(every) > 10 and every <= set(loaded)
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_help_names_the_checks(capsys):
    assert run(["eig", "--help"]) == 0
    out = capsys.readouterr().out
    assert "(pi/ln(b/a))^2" in out
    assert run(["sharpness", "--help"]) == 0
    out = capsys.readouterr().out
    assert "1/ln(1/(4 eps^2))" in out


def test_geometry_cli_gradient(capsys):
    code, out, _ = _cli(["geometry", "--model", "greiner", "--n", "1",
                         "--gamma", "2", "--check", "gradient"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["pass"] is True


def test_geometry_cli_measure_defaults(capsys):
    code, out, _ = _cli(["geometry", "--model", "grushin", "--n", "1",
                         "--k", "1", "--gamma", "1", "--check", "measure",
                         "--samples", "200000"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["expected"] == pytest.approx(8.0)
    assert row["pass"] is True


def test_geometry_cli_strip_and_direct(capsys):
    code, out, _ = _cli(["geometry", "--check", "strip", "--theta", "1",
                         "--epsilon", "1e-2"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["pass"] is True and row["estimate"] > 0.25
    code, out, _ = _cli(["geometry", "--model", "grushin", "--n", "1",
                         "--k", "1", "--gamma", "1", "--check", "direct",
                         "--scenario", "power", "--Q", "3", "--p", "2",
                         "--theta", "1", "--samples", "400000"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["pass"] is True


@pytest.mark.parametrize("eps", ["1e-12", "1e-15"])
def test_geometry_cli_strip_small_eps(eps, capsys):
    # the strip integrals run in the offset from the edge, where nothing
    # cancels, so the check holds down to eps near the float grid
    code, out, _ = _cli(["geometry", "--check", "strip", "--theta", "1",
                         "--epsilon", eps], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["pass"] is True
    assert row["estimate"] == pytest.approx(
        float(strip_quotient_mp(1.0, float(eps))), rel=1e-13)


@pytest.mark.parametrize("theta", ["3e7", "1e8", "1e9", "1e12"])
@pytest.mark.parametrize("eps", ["1e-3", "1e-8"])
def test_geometry_cli_strip_passes_at_large_theta(theta, eps, capsys):
    # from theta ~ 4e7 on, the float spacing of ((2 theta - 1)/2)^2 exceeds
    # an absolute slack of 1e-9, and the quotient can round a few ulps below
    code, out, err = _cli(["geometry", "--check", "strip", "--theta", theta,
                           "--epsilon", eps], capsys)
    assert code == 0, err
    assert json.loads(out)["rows"][0]["pass"] is True


def test_bessel_cli(capsys):
    code, out, err = _cli(["bessel", "--scenario", "power", "--Q", "5",
                           "--p", "2", "--theta", "1", "--r0", "1",
                           "--r1", "10"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "r,phi,momentum,residual"
    summary = json.loads(err.splitlines()[0])["summary"]
    assert summary["pass"] is True
    assert summary["max_closed_form_error"] <= 1e-6


def test_bessel_cli_certifies_every_catalog_scenario(tmp_path, capsys):
    from hardylab.scenarios import default_catalog

    for sc in default_catalog():
        flags = [x for k, v in sc.params.items() for x in (f"--{k}", str(v))]
        code, _, err = _cli(["bessel", "--scenario", sc.name, *flags,
                             "--out", str(tmp_path / "cert.csv")], capsys)
        assert code == 0, (sc.name, err)


@pytest.mark.parametrize("flags", [
    ["--scenario", "log_radial", "--R", "0.05"],
    ["--scenario", "log_radial", "--R", "1e-6"],
    ["--scenario", "log_cylindrical", "--R", "0.1"],
    ["--scenario", "annulus", "--a", "1", "--b", "1.05"],
])
def test_bessel_default_interval_fits_a_narrow_interval(flags, tmp_path,
                                                        capsys):
    # the default r0 and r1 are fractions of the interval's width where it
    # is narrower than 0.4, so no default falls outside it
    code, _, err = _cli(["bessel", *flags, "--out",
                         str(tmp_path / "cert.csv")], capsys)
    assert code == 0, err


def test_bessel_cli_ode_failure_exits_1(capsys):
    # gaussian_b's V = exp(-r^2/2) > 0 reads 0.0 past r = 38.604, where exp
    # underflows below -745.133. That is no zero of V: [0.5, 40] certifies,
    # while on [0.5, 60] the last intervals, where every term of the flux
    # identity reads 0.0, certify nothing
    assert math.exp(-38.6035 ** 2 / 2) > 0.0 == math.exp(-38.6045 ** 2 / 2)
    argv = ["bessel", "--scenario", "gaussian_b", "--r0", "0.5", "--r1"]
    code, _, err = _cli([*argv, "40"], capsys)
    assert code == 0, err
    assert json.loads(err)["summary"]["max_flux_over_budget"] < 10.0
    code, _, err = _cli([*argv, "60"], capsys)
    assert code == 1
    assert err.splitlines()[-1] == (
        "FAIL: Bessel-pair certificate (phi > 0, and the flux and phi' "
        "identities within 10 error budgets on every interval): min phi "
        "0.00215166, worst flux residual nan budgets, worst phi' residual "
        "0.0397 budgets")


def test_readme_ode_outputs_are_pinned(tmp_path, capsys):
    # the README bessel and eig reports, bit for bit: the certificate's
    # quadrature, and the half-period search and the eigenfunction built
    # from its integrand, may not move a float
    bessel = tmp_path / "b.csv"
    code, _, err = _cli(["bessel", "--scenario", "power", "--Q", "5", "--p",
                         "2", "--theta", "1", "--r0", "1", "--r1", "10",
                         "--out", str(bessel)], capsys)
    summary = json.loads(err.splitlines()[0])["summary"]
    assert code == 0
    assert [repr(summary[k]) for k in (
        "min_phi", "max_ode_residual", "max_closed_form_error",
        "max_flux_over_budget", "max_phi_over_budget")] == [
        "0.03162277660168379", "2.066285011825151e-16",
        "1.4942752556818584e-16", "0.06754226393963839",
        "0.048844536518505836"]
    assert hashlib.sha256(bessel.read_bytes()).hexdigest() == \
        "fd0072df7150079a4c61f31749a2d971d5b810704d9c7faa7377557f7d47662d"
    phi2 = tmp_path / "phi2.csv"
    for argv, lam in ((["--Q", "3", "--p", "2", "--theta", "1", "--a", "1",
                        "--b", "2.718281828"], "10.11960440442272"),
                      (["--Q", "5", "--p", "3", "--theta", "1", "--a", "1",
                        "--b", "2", "--which", "2", "--eigenfunction-out",
                        str(phi2)], "685.3387958821102")):
        code, out, _ = _cli(["eig", *argv], capsys)
        assert code == 0
        assert repr(json.loads(out)["summary"]["lambda"]) == lam
    assert hashlib.sha256(phi2.read_bytes()).hexdigest() == \
        "4db8e6618b31ebda11d4cd16fbc2b8aa96575f9417ac63e242a7d1fede78ada5"


def test_readme_identity_report_is_pinned(capsys):
    # the README identity report, bit for bit: the graded-panel s-kernel may
    # not move a float of any of its 10,000 rows
    code, out, err = _cli(["identity", "--p", "2.5", "--samples", "10000",
                           "--seed", "7"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "70f8306f100855b990c31a730d08233c8b294d21377ff0306772ff33167677e2"
    assert hashlib.sha256(err.encode()).hexdigest() == \
        "0b2b92a644e2da5d7e895f5360ee8e31a19df5924b37647940e1be8d6aad5f21"


def test_readme_sweep_outputs_are_pinned(capsys):
    # the README sharpness sweep and psi_R rows, bit for bit
    for argv, rows in (
            (["--scenario", "power", "--Q", "5", "--p", "2", "--theta", "1",
              "--eps-grid", "1e-2,1e-3,1e-4"],
             [["0.01", "2.7619594062319375", "0.5119594062319374",
               "4.005593950049345"],
              ["0.001", "2.580270670077185", "0.330270670077185",
               "4.105005561865996"],
              ["0.0001", "2.493762169630779", "0.24376216963077918",
               "4.152338983008245"]]),
            (["--mode", "psi", "--Q", "5", "--p", "2", "--R-grid",
              "10,100,1000"],
             [["10.0", "0.8685889638065035", "1.9999999999999998"],
              ["100.0", "0.43429448190325176", "1.9999999999999998"],
              ["1000.0", "0.2895296546021679", "2.0"]])):
        code, out, _ = _cli(["sharpness", *argv, "--format", "json"], capsys)
        assert code == 0
        assert [[repr(x) for x in row.values()]
                for row in json.loads(out)["rows"]] == rows


# argv, then the sha256 of its stdout and of its stderr
_README_QUADRATURE_REPORTS = [
    (["rayleigh", "--scenario", "gaussian_b", "--Q", "5", "--p", "2",
      "--theta", "1", "--alpha", "2", "--beta", "2", "--profiles", "200"],
     "5500f005f1aa89fd1c3ba30a59f80c8d0b1c1cde1c94eaa66bd5121635dc3ba2",
     "cdf9660442be7bb1fd704fccc62fa4543928a97d4ae95a4d63905e4d227f8077"),
    (["sharpness", "--mode", "improved", "--Q", "5", "--p", "2",
      "--profiles", "100"],
     "8dcc7a7af9caf568477e4000fd8df995a56b4c4592f5feffbd3e6a0b696cdc9d",
     "13c83bcbff47361f9d44288803f75d661923ba189129cb4da50deb834739ab22"),
    (["geometry", "--check", "strip", "--theta", "1", "--epsilon", "1e-3"],
     "389b708b90f74523c6f761f67809eae7b74ad62b5a71a21930861623a19985f0",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["geometry", "--check", "vandermonde", "--N", "3", "--theta", "1",
      "--samples", "1000000"],
     "5836d5f3c8005acd29ddd8f259e029af105cc159acead997511fffe2e6456c59",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def test_readme_quadrature_reports_are_pinned(capsys):
    # the README rayleigh, improved-weight, strip and vandermonde reports and
    # their stderr, bit for bit: the random-profile batches and the strip's
    # six integrals may not move a float
    for argv, out_sha, err_sha in _README_QUADRATURE_REPORTS:
        code, out, err = _cli(argv, capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, argv
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha, argv


def test_eig_tol_above_1e_6_exits_2(tmp_path, capsys):
    # a tolerance that loose would let the root land past lam_which, which
    # the final zero count then reports as a failed search
    annulus = ["--Q", "5", "--p", "3", "--theta", "1", "--a", "1", "--b", "2"]
    for tol in ("0.5", "1e-3", "2e-6"):
        code, _, err = _cli(["eig", *annulus, "--tol", tol], capsys)
        assert code == 2, tol
        assert err.startswith(f"parameter error: tol must be in (0, 1e-6], "
                              f"got {float(tol)}"), err
    code, _, err = _cli(["eig", *annulus, "--which", "2", "--tol", "1e-6",
                         "--eigenfunction-out", str(tmp_path / "phi2.csv")],
                        capsys)
    assert code == 0, err


def test_annulus_p3_constant_is_computed(capsys):
    # the p != 2 annulus constant is eig's lam_1, not a value the user claims
    annulus = ["--Q", "5", "--p", "3", "--theta", "1", "--a", "1", "--b", "2"]
    code, out, _ = _cli(["eig", *annulus], capsys)
    assert code == 0
    lam = json.loads(out)["summary"]["lambda"]
    assert lam == 87.84714424979337
    # the Riccati period integral at 30 digits (tests/oracles.py)
    assert lam == pytest.approx(87.8471442497941, rel=1e-10)
    code, _, err = _cli(["rayleigh", "--scenario", "annulus", *annulus,
                         "--profiles", "10"], capsys)
    assert code == 0
    summary = json.loads(err.splitlines()[0])["summary"]
    assert summary["sharp_constant"] == lam
    assert summary["pass"] is True


def test_eig_lemma_bound_has_a_relative_margin(capsys):
    # kappa = 0: lam_1 = (pi_6 / ln 1e40)^6 = 6.9e-10 clears c = 0 by far more
    # than its error, though by less than an absolute 1e-9
    code, out, _ = _cli(["eig", "--Q", "6", "--p", "6", "--theta", "1", "--a",
                         "1", "--b", "1e40"], capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["exceeds_lower_bound"] is True
    assert summary["lambda"] == pytest.approx(6.913016699667806e-10, rel=1e-12)


def test_lambda1_is_rejected(tmp_path, capsys):
    argv = ["rayleigh", "--scenario", "annulus", "--p", "3"]
    code, _, err = _cli([*argv, "--lambda1", "0.5"], capsys)
    assert code == 2
    assert "unrecognized arguments: --lambda1" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda1": 0.5}))
    code, _, err = _cli([*argv, "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys: lambda1" in err


def test_geometry_cli_vandermonde_small_constant(capsys):
    # the truncation deficit at eps = 1e-3 is ~0.33 whatever the constant, so
    # the check compares with the reduced quotient, not with 1.25
    code, out, _ = _cli(["geometry", "--check", "vandermonde", "--N", "2",
                         "--theta", "0.5", "--samples", "200000"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["pass"] is True and row["expected"] > 1.25


def test_geometry_measure_small_sample_has_std_error(capsys):
    # the error bound of the quadrature stands where the Monte-Carlo std
    # error stood, and a small --samples or another --seed changes nothing
    docs = []
    for extra in ([], ["--samples", "1000", "--seed", "3"],
                  ["--samples", "2", "--seed", "4"]):
        code, out, _ = _cli(["geometry", "--model", "grushin", "--n", "1",
                             "--k", "1", "--gamma", "1", "--check", "measure",
                             *extra], capsys)
        assert code == 0
        docs.append(json.loads(out))
    assert all(d["rows"] == docs[0]["rows"] and d["summary"] == {"pass": True}
               for d in docs)
    row = docs[0]["rows"][0]
    assert 0.0 < row["error_bound"] <= 1e-11 * row["expected"]
    assert list(row) == ["model", "check", "estimate", "error_bound",
                         "expected", "pass", "lambda_alpha"]


def test_geometry_cli_strip_theta_near_the_float_range(capsys):
    # theta - 1/2 enters the strip integrals scaled by a power of two, so
    # theta = 1e153 (bound 1e306) is checked; at 1e155 the bound overflows
    code, out, err = _cli(["geometry", "--check", "strip", "--theta", "1e153",
                           "--epsilon", "1e-3"], capsys)
    assert code == 0, err
    assert json.loads(out)["rows"][0]["pass"] is True
    code, _, err = _cli(["geometry", "--check", "strip", "--theta", "1e155",
                         "--epsilon", "1e-3"], capsys)
    assert code == 2
    assert err == ("parameter error: theta = 1e+155 overflows the strip bound "
                   "((2 theta - 1)/2)^2\n")


_SWEEP = ["sharpness", "--scenario", "power", "--Q", "5", "--p", "2",
          "--theta", "1"]


@pytest.mark.parametrize("argv, code", [
    # bad input: an eps grid outside (0, 1/4), or a scenario with no maximizer
    ([*_SWEEP, "--eps-grid", "0.3"], 2),
    ([*_SWEEP, "--eps-grid", "nan"], 2),
    (["sharpness", "--scenario", "improved_weight"], 2),
    # a check that could not be carried out: V r^mu underflows to 0.0 on the
    # last intervals, where every term of the flux identity reads 0.0, and
    # the annulus gap lam_1 - c = (pi / ln b)^2 = 2.1e-5 is below one ulp
    # (3.1e-5) of c = 2.5e11
    (["bessel", "--scenario", "gaussian_b", "--r0", "0.5", "--r1", "60"], 1),
    (["eig", "--Q", "1e6", "--p", "2", "--theta", "1", "--a", "1", "--b",
      "1e300"], 1),
    # a config file that is a directory, or a JSON document that is no object
    (["catalog", "--config", "{tmp}"], 2),
    (["catalog", "--config", "{tmp}/list.json"], 2),
    # a geometry check outside its domain: N beyond desk scale, R1 > R2, a
    # scenario Q that is not the model's
    (["geometry", "--check", "vandermonde", "--N", "5"], 2),
    (["geometry", "--model", "euclidean", "--check", "measure", "--R1", "2",
      "--R2", "1"], 2),
    (["geometry", "--model", "grushin", "--check", "direct", "--scenario",
      "power", "--Q", "5"], 2),
    # non-finite or out-of-domain exponents
    (["sharpness", "--mode", "psi", "--p", "nan"], 2),
    (["sharpness", "--mode", "psi", "--p", "inf"], 2),
    (["sharpness", "--mode", "psi", "--Q", "nan"], 2),
    (["sharpness", "--mode", "improved", "--Q", "nan"], 2),
    (["rayleigh", "--scenario", "gaussian_a", "--Q", "nan"], 2),
    (["sharpness", "--mode", "psi", "--p", "1.5"], 2),
    (["sharpness", "--mode", "psi", "--Q", "0.5"], 2),
    (["rayleigh", "--scenario", "gaussian_a", "--p", "1"], 2),
    # config values that are neither numbers nor strings
    (["eig", "--config", "{tmp}/null.json"], 2),
    (["eig", "--config", "{tmp}/array.json"], 2),
    (["eig", "--config", "{tmp}/bool.json"], 2),
    # non-finite builder and model knobs
    (["rayleigh", "--scenario", "log_radial", "--R", "inf"], 2),
    (["rayleigh", "--scenario", "gaussian_a", "--alpha", "inf"], 2),
    (["geometry", "--check", "strip", "--theta", "inf"], 2),
    (["geometry", "--model", "grushin", "--check", "measure", "--gamma",
      "nan"], 2),
    (["geometry", "--model", "grushin", "--check", "measure", "--gamma",
      "inf"], 2),
    (["geometry", "--model", "euclidean", "--check", "measure", "--samples",
      "1000", "--alpha", "nan"], 2),
    (["geometry", "--model", "euclidean", "--check", "measure", "--samples",
      "1000", "--R2", "inf"], 2),
    # a report or eigenfunction file that cannot be written
    (["catalog", "--out", "{tmp}/nodir/x.json"], 2),
    (["eig", "--eigenfunction-out", "{tmp}/nodir/x.json"], 2),
    # no profiles or pairs to sample: an empty report has nothing to verify
    (["rayleigh", "--scenario", "power", "--Q", "5", "--profiles", "0"], 2),
    (["sharpness", "--mode", "improved", "--profiles", "0", "--format",
      "json"], 2),
    (["sharpness", "--mode", "improved", "--profiles", "-3"], 2),
    (["identity", "--samples", "0"], 2),
    (["identity", "--samples", "-2"], 2),
    # a psi_R whose outer knot R^2 overflows, or a sweep's eps that rounds
    # to 0 (every sweep runs in t = ln r, down to the smallest float)
    (["sharpness", "--mode", "psi", "--Q", "5", "--p", "2", "--R-grid",
      "1e300"], 2),
    (["sharpness", "--mode", "psi", "--Q", "5", "--p", "2", "--R-grid",
      "1e155"], 2),
    (["sharpness", "--mode", "psi", "--Q", "5", "--p", "2", "--R-grid",
      "inf"], 2),
    (["sharpness", "--scenario", "gaussian_b", "--eps-grid", "1e-400"], 2),
    # a strip bound ((2 theta - 1)/2)^2 or a ball's R^Q past the float range
    (["geometry", "--check", "strip", "--theta", "1e155"], 2),
    (["geometry", "--model", "euclidean", "--check", "measure", "--R2",
      "1e300"], 2),
    # true vector identities whose near-collinear rows once cancelled the
    # closed-form right side past the residual bound
    (["identity", "--p", "12", "--h", "3", "--samples", "10000", "--out",
      "{tmp}/identity.csv"], 0),
    (["identity", "--p", "20", "--h", "3", "--samples", "1000", "--out",
      "{tmp}/identity.csv"], 0),
    # W = r^-400 underflows on every profile: a zero denominator of valid
    # input
    (["rayleigh", "--scenario", "power", "--Q", "5", "--p", "2", "--theta",
      "200", "--profiles", "20"], 1),
    # finite parameters whose constant, lemma bound or search step overflows
    # a float power or exp
    (["rayleigh", "--scenario", "power", "--Q", "1e300"], 2),
    (["rayleigh", "--scenario", "gaussian_a", "--beta", "1e-300"], 2),
    (["rayleigh", "--scenario", "gaussian_b", "--Q", "1e300"], 2),
    (["rayleigh", "--scenario", "log_radial", "--theta", "1e300"], 2),
    (["rayleigh", "--scenario", "annulus", "--Q", "1e300"], 2),
    (["sharpness", "--mode", "improved", "--Q", "1e300"], 2),
    (["eig", "--Q", "1e300"], 2),
    (["eig", "--p", "1e300"], 2),
    # an annulus whose ratio b/a overflows a float
    (["eig", "--a", "1e-320", "--b", "1"], 2),
    (["rayleigh", "--scenario", "annulus", "--p", "3", "--a", "1e-320", "--b",
      "1", "--profiles", "3"], 2),
    (["bessel", "--scenario", "annulus", "--a", "1e-320", "--b", "1", "--r0",
      "0.5", "--r1", "0.9"], 2),
    (["sharpness", "--scenario", "annulus", "--a", "1e-320", "--b", "1",
      "--eps-grid", "0.2"], 2),
    (["rayleigh", "--scenario", "annulus", "--a", "1e-320", "--b", "1",
      "--profiles", "3"], 2),
    # the geometry checks are quadratures: --samples is ignored
    (["geometry", "--check", "vandermonde", "--samples", "0"], 0),
    (["geometry", "--model", "euclidean", "--check", "measure", "--samples",
      "0"], 0),
    (["geometry", "--model", "grushin", "--check", "direct", "--scenario",
      "power", "--Q", "3", "--samples", "-5"], 0),
    (["geometry", "--check", "vandermonde", "--samples", "1"], 0),
    (["geometry", "--model", "euclidean", "--check", "measure", "--samples",
      "1"], 0),
    # a gauge ball of radius 1e-9 is integrated like any other
    (["geometry", "--model", "greiner", "--check", "measure", "--samples",
      "1000", "--R1", "1e-9", "--R2", "1"], 0),
    # steep gauges, a = 4 gamma or 2 + 2 gamma past 78, whose inner variable
    # passes 710 at the outer nodes near rho = 0, where cosh overflows
    (["geometry", "--model", "greiner", "--n", "1", "--gamma", "20",
      "--check", "measure"], 0),
    (["geometry", "--model", "greiner", "--n", "1", "--gamma", "40",
      "--check", "measure"], 0),
    (["geometry", "--model", "grushin", "--n", "1", "--k", "1", "--gamma",
      "20", "--check", "measure"], 0),
    (["geometry", "--model", "grushin", "--n", "1", "--k", "1", "--gamma",
      "40", "--check", "measure"], 0),
    (["geometry", "--model", "grushin", "--n", "1", "--k", "1", "--gamma",
      "80", "--check", "measure"], 0),
    # a config value for an int flag that is no JSON integer: argparse
    # converts only string defaults, so it would run as int(value)
    (["identity", "--config", "{tmp}/samples.json"], 2),
    (["eig", "--config", "{tmp}/which.json"], 2),
    # an eigenvalue c + e^(px), c = 0, below the normal float range: e^(px)
    # underflows to 0.0, or to a subnormal 1.3e-316 whose ulp is 3.7e-8
    # relative, coarser than tol
    (["eig", "--Q", "300", "--p", "300", "--b", "1e50"], 2),
    (["eig", "--Q", "300", "--p", "300", "--b", "1e10"], 2),
    # steep gauges whose d or sigma leaves the float range at the check's own
    # points: rho^a or rho^(kappa-1) overflows
    (["geometry", "--model", "greiner", "--n", "1", "--gamma", "100",
      "--check", "homogeneity"], 2),
    (["geometry", "--model", "grushin", "--n", "1", "--k", "1", "--gamma",
      "150", "--check", "homogeneity"], 2),
    (["geometry", "--model", "greiner", "--n", "1", "--gamma", "300",
      "--check", "gradient"], 2),
    (["geometry", "--model", "greiner", "--n", "1", "--gamma", "1e300",
      "--check", "orthogonality"], 2),
])
def test_exit_codes_without_traceback(argv, code, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1, 2]")
    for name, value in (("null", "null"), ("array", "[1]"), ("bool", "true")):
        (tmp_path / f"{name}.json").write_text(f'{{"Q": {value}}}')
    (tmp_path / "samples.json").write_text('{"samples": 2.5}')
    (tmp_path / "which.json").write_text('{"which": 1.9}')
    unreadable = "{tmp}" in argv
    unwritable = "{tmp}/nodir/x.json" in argv
    argv = [x.replace("{tmp}", str(tmp_path)) for x in argv]
    got, _, err = _cli(argv, capsys)
    assert got == code, err
    lines = err.splitlines()
    if code == 2:
        assert len(lines) == 1, lines
        assert lines[0].startswith(
            "config error: " if unreadable else
            "output error: " if unwritable else "parameter error: ")
        if "1e-320" in argv:
            assert "b/a" in lines[0], lines
    else:
        fails = [x for x in lines if x.startswith("FAIL: ")]
        assert fails == (lines[-1:] if code == 1 else [])


@pytest.mark.parametrize("argv", [["identity", "--p", "400"],
                                  ["identity", "--p", "300", "--h", "3"]])
def test_identity_overflow_is_one_fail_line(argv, tmp_path, capsys):
    # |f|^p and the segment integrals leave the float range: the run names
    # the overflow instead of reporting NaN residuals, warns nothing and
    # writes no report
    out = tmp_path / "identity.csv"
    code, stdout, err = _cli([*argv, "--samples", "100", "--out", str(out)],
                             capsys)
    assert code == 1
    assert err.splitlines() == [
        f"FAIL: w_term is not finite at p = {float(argv[2])!r}: the "
        "identity split overflows the float range"]
    assert stdout == "" and not out.exists()


# ------------------------------------------------ failing verdict paths ----
# Each check made to fail in process: the quantity it judges is perturbed
# behind the function that computes it, or replaced, so the pins hold the
# verdicts and their rendering. Each case's patch is a (module, name,
# replacement) triple.

def _wrap(module, name, change):
    """(module, name, replacement): `name` with `change` applied to its
    result."""
    real = getattr(module, name)
    return module, name, lambda *a, **k: change(real(*a, **k))


def _const(module, name, value):
    return module, name, lambda *a, **k: value


def _scaled_quotient(factor):
    from hardylab import functional

    return _wrap(functional, "reduce_radial_functional",
                 lambda red: replace(red, quotient=red.quotient * factor))


def _laplacian():
    """The FD Laplacian terms of the vandermonde check, each off by 2e-6 of
    the scale that normalizes their sum."""
    from hardylab import geometry

    real = geometry._fd_axes

    def axes(func, pts, stencil, power):
        out = real(func, pts, stencil, power)
        if func is geometry.vandermonde:
            out = out + 2e-6 * np.maximum(np.abs(out).max(axis=1)[:, None], 1.0)
        return out

    return geometry, "_fd_axes", axes


def _sphere_eigenvalue(factor):
    """The antisymmetric sector's sphere eigenvalue scaled by factor, where
    the vandermonde check compares its moment ratio B/A with it."""
    from hardylab import geometry

    real = geometry.scenario_catalog

    def catalog(*args, **kwargs):
        sector = real(*args, **kwargs)
        return replace(sector, extra={**sector.extra, "sphere_eigenvalue":
                                      factor * sector.extra["sphere_eigenvalue"]})

    return geometry, "scenario_catalog", catalog


def _identity_out(p, f, g):
    n = len(f)
    return {"w_term": np.full(n, 1.0), "wtilde_term": np.full(n, 2.0),
            "rhs_closed": np.full(n, 3.0), "residual": np.full(n, 1e-8)}


def _slacks(slack):
    return lambda *a, **k: [{"index": 0, "quotient": 2.0, "slack": 0.5},
                            {"index": 1, "quotient": 1.0, "slack": slack}]


def _failing_patch(case):
    from hardylab import (besselpair, functional, geometry, identities,
                          sharpness, spectral)
    from hardylab.sharpness import SweepRow

    real_grushin, real_eig = geometry.grushin, spectral.eigenvalue
    return {
        "identity": (identities, "scalar_identity_batch", _identity_out),
        "bessel_positive": _wrap(besselpair, "verify_bessel_pair",
                                 lambda c: replace(c, is_positive=False)),
        "bessel_ode": _wrap(besselpair, "verify_bessel_pair",
                            lambda c: replace(c, max_flux_over_budget=20.0)),
        "bessel_closed_form": _wrap(
            besselpair, "verify_bessel_pair",
            lambda c: replace(c, max_phi_over_budget=20.0)),
        "eig_bound": (spectral, "eigenvalue", lambda problem, **kw: replace(
            real_eig(problem, **kw),
            lam=problem.lemma_lower_bound * (1.0 + 1e-9))),
        "improved": (functional, "random_profile_slacks", _slacks(-2e-9)),
        "rayleigh": (functional, "random_profile_slacks", _slacks(-2e-8)),
        "strip": _const(geometry, "strip_quotient", 0.25 - 2e-9),
        "vandermonde_harmonicity": _laplacian(),
        "vandermonde_sphere": _sphere_eigenvalue(1.0 + 1e-11),
        "vandermonde_band": _scaled_quotient(1.1),
        "homogeneity": _const(geometry, "homogeneity_error", 2e-12),
        "orthogonality": _const(geometry, "cylindrical_orthogonality_error",
                                2e-12),
        "gradient": _const(geometry, "gauge_gradient_fd_error", 2e-6),
        "direct": _scaled_quotient(1.5),
        "measure_fail": (geometry, "grushin", lambda *a: replace(
            real_grushin(*a), Q=real_grushin(*a).Q + 0.25)),
        "sweep_scale": (sharpness, "sweep_quotient", lambda *a: [
            SweepRow(1e-2, 2.75, 0.5, 4.0), SweepRow(1e-3, 2.5, 0.25, 9.0)]),
        "sweep_order": (sharpness, "sweep_quotient", lambda *a: [
            SweepRow(1e-2, 2.5, 0.25, 4.0), SweepRow(1e-3, 2.75, 0.5, 4.5)]),
        "psi": (sharpness, "psiR_deficit", lambda *a: [
            {"R": 10.0, "deficit": 0.9, "deficit_times_lnR": 2.0},
            {"R": 100.0, "deficit": 0.5, "deficit_times_lnR": 4.5}]),
    }[case]


_BESSEL = ["bessel", "--scenario", "power", "--Q", "5", "--p", "2", "--theta",
           "1", "--r0", "1", "--r1", "10"]
_GRUSHIN = ["geometry", "--model", "grushin", "--n", "1", "--k", "1",
            "--gamma", "1"]
_VANDERMONDE = ["geometry", "--check", "vandermonde", "--N", "3", "--theta",
                "1", "--samples", "20000"]


def _bessel_fail(flux, phi):
    return ("FAIL: Bessel-pair certificate (phi > 0, and the flux and phi' "
            "identities within 10 error budgets on every interval): min phi "
            f"0.0316228, worst flux residual {flux} budgets, worst phi' "
            f"residual {phi} budgets")


def _geometry_fail(check, estimate, expected):
    return (f"FAIL: geometry check {check} (estimate {estimate} vs "
            f"expected {expected})")


# case: (argv, exit code, verdict line or None, sha256 of the report,
# sha256 of stderr)
_FAILING_PATHS = {
    "identity": (
        ["identity", "--p", "2.5", "--samples", "20", "--seed", "7"], 1,
        "FAIL: scalar/vector identity residual exceeded 1e-9 (1 + |rhs|)",
        "d382dbdc94d4e40b4e843c29f07adc4066bc90391e8d2dbeb8101f8bfd3309b0",
        "e483172b908cddf10403b1a6683ea5bdbb77f5a03a3f2e054a67e22d8a5bfefb"),
    "bessel_positive": (
        _BESSEL, 1, _bessel_fail("0.0675", "0.0488"),
        "fd0072df7150079a4c61f31749a2d971d5b810704d9c7faa7377557f7d47662d",
        "972f0776b2c02d805efae2f77fe9bbe18ec2dea3dcc33cf4dfb2b2c8406b9a40"),
    "bessel_ode": (
        _BESSEL, 1, _bessel_fail("20", "0.0488"),
        "fd0072df7150079a4c61f31749a2d971d5b810704d9c7faa7377557f7d47662d",
        "d376a6f63c9d6004b1c8c6991af6b77698b0426f20741467ab15aeaf97c3dd1f"),
    "bessel_closed_form": (
        _BESSEL, 1, _bessel_fail("0.0675", "20"),
        "fd0072df7150079a4c61f31749a2d971d5b810704d9c7faa7377557f7d47662d",
        "a0d5e89d63ac54f906089302e13ad2da2361cea8893e2d1fd79e2d2e4f3d1b49"),
    "eig_bound": (
        ["eig", "--Q", "3", "--p", "2", "--theta", "1", "--a", "1", "--b",
         "2"], 1,
        "FAIL: eigenvalue does not exceed the lower bound |(Q - p theta)/p|^p",
        "d34621c5b5219e450595bd49dcc5c42f9f35d7214e25a2891bfcf30e5785e988",
        "40fac34ef4fa966685111d846a4e94407dc6ffe273f37603ce0a8b4a80188c61"),
    "improved": (
        ["sharpness", "--mode", "improved", "--Q", "5", "--p", "2",
         "--profiles", "2"], 1,
        "FAIL: improved-weight inequality violated (slack below -1e-9)",
        "8ae334641e837318e33b02178e1a1eb2d47ca1ac119afd4e7366ea360a432c17",
        "4894f3465ecd342f5fe79de913fee9bdc03804d11a02a8adbd2bc9a91b7d8b6e"),
    "rayleigh": (
        ["rayleigh", "--scenario", "power", "--Q", "5", "--p", "2", "--theta",
         "1", "--profiles", "2"], 1,
        "FAIL: sampled quotient fell below the sharp constant for power "
        "(min normalized slack -2e-08)",
        "9ce39dc61a7f8f5b77d0b419d6be560d2d12321b18b04df5845bbde99504f8f4",
        "3c2c241844d1ace1ce2d583d4e98f4e1a07c5776b6de1beef11b2be0ec034012"),
    "strip": (
        ["geometry", "--check", "strip", "--theta", "1", "--epsilon", "1e-3"],
        1, _geometry_fail("strip", "0.249999998", "0.25"),
        "b7ff075141009fa64b557120b3229312ae0901830fe114f376a8e028b4734d62",
        "17e6fecb4283bcab6f4fb4b861b550315b10dd9b7fd978321fe28ad81ce7dac6"),
    "vandermonde_harmonicity": (
        _VANDERMONDE, 1,
        _geometry_fail("vandermonde", "12.580270670077198",
                       "12.580270670077187"),
        "b91d811289ac2ba5e582230c6d6b0d0110075c44c3a3dbff41daaad1d7419688",
        "0ff46ea70eb04f4e33d77b9088ee3ad558f260ec389c02dae96c174a0548f0c3"),
    "vandermonde_sphere": (
        _VANDERMONDE, 1,
        _geometry_fail("vandermonde", "12.580270670077198",
                       "12.580270670077187"),
        "41cb02be5e4b4cfc3f933a6426c0272b48350f8f0285792943c7acfb337fd8e0",
        "0ff46ea70eb04f4e33d77b9088ee3ad558f260ec389c02dae96c174a0548f0c3"),
    "vandermonde_band": (
        _VANDERMONDE, 1,
        _geometry_fail("vandermonde", "12.580270670077198",
                       "13.838297737084908"),
        "a6c6deeb8df154d480e51a6b14bb3c9ef327f017eb789c0ed8cfeb64eb24d506",
        "42321bf2db4c77e7c6f5a0b6ee78bb997505b45c316eed8092cd4ea7c44dcd2d"),
    "homogeneity": (
        [*_GRUSHIN, "--check", "homogeneity"], 1,
        _geometry_fail("homogeneity", "2e-12", "0.0"),
        "b0d93a6d33b62a45fba435b9d1833e28edb93f4754dc58b5d326433ef22d881c",
        "90aca283eea39aadbb02ba13d96cc787b01538a0b6dcd6cf7e5d42e280e739d9"),
    "orthogonality": (
        ["geometry", "--model", "greiner", "--n", "1", "--gamma", "1",
         "--check", "orthogonality"], 1,
        _geometry_fail("orthogonality", "2e-12", "0.0"),
        "fe73d545856cbf58001cac15db65f04ae3a478959c2232ee5fd9ae01db4e30a1",
        "7cc6305f7ea6e403ba82b5102e7d9e4c32cab07da42631a8d4b377510641e596"),
    "gradient": (
        ["geometry", "--model", "greiner", "--n", "1", "--gamma", "2",
         "--check", "gradient"], 1,
        _geometry_fail("gradient", "2e-06", "0.0"),
        "58d2baed96c40ed5d18de9cfb39a030e2fcf2c21096980d6b75a800c3a604956",
        "b82afe81a748107674a11fa49814ce72ddf621cd33195276b638d14250cabfc5"),
    "direct": (
        [*_GRUSHIN, "--check", "direct", "--scenario", "power", "--Q", "3",
         "--p", "2", "--theta", "1", "--samples", "20000"], 1,
        _geometry_fail("direct", "626.6071917164213", "939.9107875746315"),
        "cb3c50ae9f365bcc97add3a1ff719c2da69f8931016223a9cd0f3be066b428bd",
        "02f4948bd8f75ce44d49e009c684670f972369a7051b02fd66404156ae989274"),
    "measure_fail": (
        [*_GRUSHIN, "--check", "measure", "--samples", "20000"], 1,
        _geometry_fail("measure", "8.0", "9.513656920021768"),
        "988b83989ab84b8cdbe2fd3b4fee93c3892cb5648ddcb56bc0385392835f9701",
        "a300e134ae0a3c5bfe449ddcf48aa8af90ef756af41584d2975126fe447745ac"),
    # stable: false is reported, and the run exits 0
    "sweep_scale": (
        _SWEEP, 0, None,
        "2adb7efe4c2d45594a413407db93a8195c2cde67519de7fe44254c4cb0ac8d39",
        "1b8bdd74f13ccca33eb5aeaf2525d97de132143d147cc41aa2fa5843da6547b2"),
    "sweep_order": (
        _SWEEP, 0, None,
        "ab070d83f5f5a13687d6438b7553ecdfe17051add3a8d5009d929660bab4bab7",
        "1b8bdd74f13ccca33eb5aeaf2525d97de132143d147cc41aa2fa5843da6547b2"),
    "psi": (
        ["sharpness", "--mode", "psi", "--Q", "5", "--p", "2"], 0, None,
        "05d9f212a29fedacac3b30d8098e9f18085a5d771345e83c4324c5a78750ed3d",
        "4fe57b942fcd95cfd5779fb65baec12140374b263438a53e8b6ef5a889d956d5"),
}


@pytest.mark.parametrize("case", list(_FAILING_PATHS))
def test_failing_verdict_paths_are_pinned(case, monkeypatch, capsys):
    argv, code, verdict, report_sha, err_sha = _FAILING_PATHS[case]
    monkeypatch.setattr(*_failing_patch(case))
    got, out, err = _cli(argv, capsys)
    assert got == code
    assert [x for x in err.splitlines() if not x.startswith("{")] == (
        [] if verdict is None else [verdict])
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha
