import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import diraclab
from diraclab import cli, nonlinearity
from diraclab.dynamics import integrate
from diraclab.scenarios import ScenarioConfig
from diraclab.virials import verify_identity

_TINY = """\
system = {system}
model = {model}
mass = 1.0
initial = bump
amplitude = 0.1
width = 1.0
x_min = -20
x_max = 20
n_points = 201
dt = {dt}
t_end = {t_end}
out_dir = {name}
"""


# an annular Soler bump whose K identities all pass at this sampling
_RADIAL = """\
system = radial_3d
model = soler
mass = 1.0
initial = bump
amplitude = 0.05
width = 1.5
center = 6.0
r_max = 40
n_cells = 1600
dt = 0.0125
t_end = 0.25
sample_stride = 1
out_dir = radial
"""


# a massive Thirring bump on the lab grid; I_weighted_charge is exact
# along the flow, so its time-difference defect is pure sampling error
_LAB_BUMP = """\
system = lab_1d
model = thirring
mass = 1.0
initial = bump
amplitude = 0.3
x_min = -30
x_max = 30
n_points = 1201
dt = 0.02
t_end = 4
sample_stride = {stride}
out_dir = lab_bump
"""


# strongly nonlinear data on a coarse grid: the odd quartic bump's
# discretization error grows along the run, so M leaves its floor
_NLKG_STRONG = """\
system = spinor_1d
model = quartic_harmonic
mass = 1.0
initial = bump
amplitude = 1.0
width = 0.5
parity = odd
x_min = -40
x_max = 40
n_points = 401
dt = 0.1
t_end = 10
sample_stride = 1
out_dir = strong
"""


def _scenario(tmp_path, system="lab_1d", model="thirring", extra="",
              name="tiny", dt="0.1", t_end="1"):
    path = tmp_path / f"{name}.cfg"
    path.write_text(_TINY.format(system=system, model=model, name=name,
                                 dt=dt, t_end=t_end) + extra)
    return str(path)


def test_check_algebra_exits_zero(capsys):
    assert cli.main(["check-algebra"]) == 0
    assert "n = 3" in capsys.readouterr().out


def test_check_algebra_unknown_dimension_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-algebra", "--n", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 4" in err
    assert "Traceback" not in err


def test_tiny_run_exits_zero(tmp_path):
    path = _scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", path, "--out", str(out)]) == 0
    assert (out / "tiny" / "summary.json").exists()


def test_malformed_scenario_exits_two(tmp_path, capsys):
    path = _scenario(tmp_path, extra="seed = 0\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", "--scenario", path, "--out", out]) == 2
    assert "unknown keys: seed" in capsys.readouterr().err


def test_non_finite_region_exits_two_before_any_output(tmp_path, capsys):
    path = _scenario(tmp_path, extra="regions = ball:nan\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: region 'ball:nan': numbers must be finite\n"
    assert not out.exists()


def test_regions_sharing_a_column_exit_two_before_any_output(tmp_path,
                                                            capsys):
    path = _scenario(tmp_path,
                     extra="regions = interval:1_0:2_0, interval:1:0_2_0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: regions: interval:1_0:2_0 and "
        "interval:1:0_2_0 share the trajectory column "
        "mass_interval_1_0_2_0\n")
    assert not out.exists()


def test_identities_on_too_few_samples_exit_two(tmp_path, capsys):
    # 2 steps sampled every 2nd: 2 samples, no centered difference
    def short(name, extra=""):
        return _scenario(tmp_path, system="spinor_1d",
                         model="quartic_harmonic", name=name, dt="0.02",
                         t_end="0.04", extra="sample_stride = 2\n" + extra)

    out = str(tmp_path / "out")
    for argv in (["run", "--scenario", short("run", "identities = J1\n")],
                 ["verify-virial", "--identity", "J1", "--scenario",
                  short("verify")]):
        assert cli.main(argv + ["--out", out]) == 2
        assert "identities need at least 3 samples" in \
            capsys.readouterr().err


def test_run_jobs_does_not_change_outputs(tmp_path):
    paths = [_scenario(tmp_path, name="lab"),
             _scenario(tmp_path, system="spinor_1d", model="quartic_harmonic",
                       name="spinor",
                       extra="identities = J1, J_quartet_combined\n")]
    roots, codes = {}, {}
    for jobs in ("1", "2"):
        roots[jobs] = tmp_path / f"jobs{jobs}"
        argv = ["run", "--out", str(roots[jobs]), "--jobs", jobs]
        for path in paths:
            argv += ["--scenario", path]
        codes[jobs] = cli.main(argv)
    # the coarse spinor run fails its identity checks; the verdict, like
    # every output byte, must not depend on --jobs
    assert codes["1"] == codes["2"] == 1
    for name in ("lab", "spinor"):
        one, two = roots["1"] / name, roots["2"] / name
        csvs = sorted(p.name for p in one.glob("*.csv"))
        assert csvs == sorted(p.name for p in two.glob("*.csv"))
        assert "trajectory.csv" in csvs
        for fname in csvs:
            assert (one / fname).read_bytes() == (two / fname).read_bytes()
        summaries = [json.loads((d / "summary.json").read_text())
                     for d in (one, two)]
        for summary in summaries:
            del summary["wall_time"]
        assert summaries[0] == summaries[1]
    assert (roots["2"] / "spinor" / "virial_J1.csv").exists()


def test_verify_virial_with_identity_the_system_lacks_exits_two(
        tmp_path, capsys):
    path = _scenario(tmp_path, system="spinor_1d", model="quartic_harmonic")
    argv = ["verify-virial", "--identity", "J_chiral_balance",
            "--scenario", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "identities not defined on system 'spinor_1d': " \
        "J_chiral_balance" in capsys.readouterr().err


def test_verify_virial_removed_identity_is_an_argparse_error(tmp_path):
    path = _scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-virial", "--identity", "K_window_charge",
                  "--scenario", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_verify_virial_system_option_is_an_argparse_error(tmp_path):
    # the system is the scenario's own; there is no flag to restate it
    path = _scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-virial", "--system", "lab", "--identity",
                  "I_weighted_charge", "--scenario", path,
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize("stride, code", [(5, 1), (1, 0)])
def test_verify_virial_exit_code_follows_the_verdict(tmp_path, capsys,
                                                      stride, code):
    # at stride 5 the O(dt^2) error of the centered time difference
    # (defect 9.6e-4) exceeds the threshold (1.2e-4); at stride 1 it
    # does not. A sample-free verdict (ROADMAP direction 1) will pass
    # both, so this test will change with it.
    path = tmp_path / "lab_bump.cfg"
    path.write_text(_LAB_BUMP.format(stride=stride))
    argv = ["verify-virial", "--identity", "I_weighted_charge",
            "--scenario", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is (code == 0)


def test_verify_virial_writes_only_the_requested_identity(tmp_path,
                                                          capsys):
    # the scenario's own identities = list is not verified or written,
    # and neither is the trajectory table
    path = tmp_path / "lab_bump.cfg"
    path.write_text(_LAB_BUMP.format(stride=5)
                    + "identities = I_weighted_charge\n")
    out = tmp_path / "out"
    argv = ["verify-virial", "--identity", "J_chiral_balance",
            "--scenario", str(path), "--out", str(out)]
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if payload["passed"] else 1)
    assert payload["csv"] == str(out / "lab_bump" /
                                 "virial_J_chiral_balance.csv")
    assert [p.name for p in out.rglob("*") if p.is_file()] == \
        ["virial_J_chiral_balance.csv"]


@pytest.mark.parametrize("argv, code", [
    (["--model", "quartic_harmonic"], 0),
    (["--model", "zero"], 0),
    (["--model", "thirring", "--expected-power", "4"], 1),
    (["--model", "cubic_focusing"], 2),
    (["--model", "power_diag"], 2),
])
def test_check_nonlinearity_exit_codes(argv, code, capsys):
    assert cli.main(["check-nonlinearity"] + argv) == code
    if code != 2:
        report = json.loads(capsys.readouterr().out)
        assert report["polynomial_ok"]
        assert report["growth_ok"] is (code == 0)
    else:
        assert "unknown nonlinearity" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_check_nonlinearity_refuses_non_finite_coupling(value, capsys):
    argv = ["check-nonlinearity", "--model", "thirring", "--coupling", value]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "coupling must be finite" in err


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("model", sorted(nonlinearity._BUILTINS))
def test_check_nonlinearity_prints_strict_json(model, capsys):
    cli.main(["check-nonlinearity", "--model", model])
    json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)


def test_check_nonlinearity_zero_model_emits_no_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check-nonlinearity", "--model", "zero"]) == 0
    assert json.loads(capsys.readouterr().out)["growth_ok"]


@pytest.mark.parametrize("extra, code", [("", 0), ("coupling = 2\n", 2)])
def test_isotropic_pair_scenario_takes_no_coupling(tmp_path, extra, code):
    path = _scenario(tmp_path, system="spinor_1d", model="isotropic_pair",
                     extra=extra)
    argv = ["run", "--scenario", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code


@pytest.mark.parametrize("model, system", [("zero", "lab_1d"),
                                           ("isotropic_pair", "spinor_1d")])
def test_uncoupled_models_refuse_an_explicit_coupling(tmp_path, capsys,
                                                      model, system):
    why = f"model '{model}' takes no coupling"
    argv = ["check-nonlinearity", "--model", model, "--coupling", "2"]
    assert cli.main(argv) == 2
    assert why in capsys.readouterr().err
    path = _scenario(tmp_path, system=system, model=model,
                     extra="coupling = 5\n")
    assert cli.main(["run", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert why in capsys.readouterr().err


def test_zero_model_scenario_builds_in_its_frame(tmp_path):
    cfg = ScenarioConfig.from_file(_scenario(tmp_path, system="spinor_1d",
                                             model="zero"))
    model = cfg.build_model()
    assert (model.name, model.arity, model.coupling) == ("zero",
                                                        "spinor_psi", 0.0)


@pytest.mark.parametrize("system, model, code", [
    ("spinor_1d", "quartic_harmonic", 0),
    ("lab_1d", "thirring", 2),
    ("spinor_1d", "soler", 2),
])
def test_nlkg_check_exit_codes(tmp_path, capsys, system, model, code):
    path = _scenario(tmp_path, system=system, model=model)
    argv = ["nlkg-check", "--scenario", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    if code == 0:
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] and payload["quotient"] <= 10.0
        assert np.isfinite(payload["nlkg_defect_max"])
        with open(payload["csv"], encoding="utf-8") as fh:
            assert fh.readline() == "t,M,nlkg_1,nlkg_2\n"


def test_nlkg_check_refuses_a_radial_scenario(tmp_path, capsys):
    path = tmp_path / "radial.cfg"
    path.write_text(_RADIAL)
    argv = ["nlkg-check", "--scenario", str(path), "--out",
            str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "needs a spinor_1d scenario" in err
    assert "Traceback" not in err


def test_nlkg_check_exits_one_when_m_leaves_its_floor(tmp_path, capsys):
    path = tmp_path / "strong.cfg"
    path.write_text(_NLKG_STRONG)
    argv = ["nlkg-check", "--scenario", str(path), "--out",
            str(tmp_path / "out")]
    assert cli.main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["passed"] and payload["quotient"] > 10.0


# data that each pass validation and abort within 2 time units: strong
# radial Soler data whose odd row comes to peak at the origin, and a
# large quartic bump that blows up
_ABORTING = {
    "radial_parity": """\
system = radial_3d
model = soler
coupling = 20
initial = bump
amplitude = 1
width = 1
r_max = 20
n_cells = 400
dt = 0.025
t_end = 2
out_dir = aborted
""",
    "spinor_blowup": """\
system = spinor_1d
model = quartic_harmonic
initial = bump
amplitude = 3
width = 1
x_min = -20
x_max = 20
n_points = 401
dt = 0.05
t_end = 2
out_dir = aborted
""",
}


def _run_aborting(tmp_path, capsys, case):
    path = tmp_path / f"{case}.cfg"
    path.write_text(_ABORTING[case])
    argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_run_aborted_by_an_invalid_sample_exits_one(tmp_path, capsys):
    err = _run_aborting(tmp_path, capsys, "radial_parity")
    assert err.startswith("run aborted: invalid state at t = ")
    assert "peaks at the innermost cell" in err


def test_run_aborted_by_blowup_exits_one(tmp_path, capsys):
    err = _run_aborting(tmp_path, capsys, "spinor_blowup")
    assert err == "run aborted: non-finite field values at t = 0.1\n"


def test_blowup_prints_only_the_abort_line(tmp_path):
    # in a fresh interpreter with default warning filters: the overflow
    # between samples must not reach stderr as numpy RuntimeWarnings
    path = tmp_path / "blowup.cfg"
    path.write_text(_ABORTING["spinor_blowup"])
    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "diraclab.cli", "run", "--scenario",
         str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "run aborted: non-finite field values at t = 0.1\n"


def test_experiment_t5_exits_zero(tmp_path, capsys):
    argv = ["experiment", "--id", "T5_exterior", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the joint summary of the two runs, written next to their directories
    out = tmp_path / "T5_exterior"
    joint = json.loads((out / "summary.json").read_text())
    assert joint["scenario_hash"] == "f5729a8009418e77"
    assert "m0/i_series.csv" in joint["files"]
    assert "m1/summary.json" in joint["files"]
    for name in joint["files"]:
        assert (out / name).is_file(), name


def test_removed_subcommand_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit-plots", "--dir", str(tmp_path)])
    assert exc.value.code == 2


def test_verify_virial_radial_rows_equal_verify_identity(tmp_path):
    path = tmp_path / "radial.cfg"
    path.write_text(_RADIAL)
    out = tmp_path / "out"
    argv = ["verify-virial", "--identity", "K_combined_3d",
            "--scenario", str(path), "--out", str(out)]
    assert cli.main(argv) == 0
    config = ScenarioConfig.from_file(str(path))
    model = config.build_model()
    traj = integrate(config.build_initial(config.build_grid()), model,
                     t_end=config.t_end, dt=config.dt, m=config.mass,
                     sample_stride=config.sample_stride)
    rep = verify_identity(traj, "K_combined_3d", m=config.mass, model=model)
    rows = np.loadtxt(out / "radial" / "virial_K_combined_3d.csv",
                      delimiter=",", skiprows=1)
    assert np.array_equal(rows, np.column_stack(
        [rep.times, rep.values, rep.fd, rep.rhs, rep.defect]))


def test_emit_exact_writes_the_soliton_table(tmp_path):
    assert cli.main(["emit-exact", "--omega", "0.5",
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "exact_thirring.csv", encoding="utf-8") as fh:
        assert fh.readline() == "x,u_re,u_im,v_re,v_im\n"


def test_emit_exact_solution_option_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit-exact", "--solution", "thirring", "--omega", "0.5",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(diraclab.__path__)]
    assert "scenarios" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"diraclab.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"diraclab.{name}.{export}"


def test_import_loads_no_scipy():
    # scipy stays a lazy import: loading it costs every run ~0.5 s of setup
    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, diraclab.cli, diraclab.scenarios; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
