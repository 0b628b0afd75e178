import argparse
import ast
import concurrent.futures
import contextlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import diraclab
from diraclab import cli, nonlinearity, scenarios
from diraclab.dynamics import integrate
from diraclab.scenarios import ScenarioConfig, bundled_config_path
from diraclab.studies import EXPERIMENT_IDS
from diraclab.virials import verify_identity
from test_nonlinearity import thirring_claiming_p4

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
    assert capsys.readouterr().out == (
        "lab_1d: 10 relations, max defect 0\n"
        "spinor_1d: 8 relations, max defect 0\n"
        "radial_3d: 8 relations, max defect 0\n")
    assert cli.main(["check-algebra", "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 + 10 + 8 + 8
    assert lines[1] == "  pass  defect=0.000e+00  alpha^2 = I"


def _python_m_diraclab(*argv):
    """Run ``python -m diraclab`` from this checkout's source tree."""
    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "diraclab", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_check_algebra_n_option_is_an_argparse_error():
    # every system is checked every time; there is no flag to pick one
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-algebra", "--n", "1"])
    assert exc.value.code == 2


def test_python_m_diraclab_runs_the_command_line(tmp_path):
    done = _python_m_diraclab("check-algebra")
    assert done.returncode == 0
    assert done.stdout.startswith("lab_1d: ")
    # a malformed request exits 2 with one line and no traceback
    out = tmp_path / "out"
    done = _python_m_diraclab("emit-exact", "--omega", "1.5", "--out",
                              str(out))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == \
        "configuration error: omega = 1.5 is outside (-1, 1)\n"
    assert not out.exists()


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


@pytest.mark.parametrize("token", ["soliton_rest",
                                   "elsewhere/soliton_rest.cfg"])
def test_bundled_name_resolves_to_the_shipped_file(tmp_path, monkeypatch,
                                                   token):
    monkeypatch.chdir(tmp_path)
    assert cli._resolve_scenario(token) == \
        bundled_config_path("soliton_rest")


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
    # float reads "1_0" as 10, so both specs would write one column
    assert capsys.readouterr().err == (
        "configuration error: region 'interval:1_0:2_0': numbers may not "
        "hold '_'\n")
    assert not out.exists()


def test_unknown_bundled_config_exits_two_naming_the_bundled_ones(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--scenario", "nosuch", "--out", "out"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: no bundled config 'nosuch'; have: "
        "T1_massless, T2_massive_odd, T3_radial, T5_m0, T5_m1, "
        "massless_thirring, soliton_rest\n")
    assert not (tmp_path / "out").exists()


def test_infinite_t_end_exits_two_before_any_output(tmp_path, capsys):
    path = _scenario(tmp_path, t_end="inf")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: t_end must be positive and finite\n"
    assert not out.exists()


def test_a_bump_narrower_than_a_cell_exits_two_before_any_output(
        tmp_path, capsys):
    # the odd rows of a radial bump of width 0.01 on cells of 0.05 peak
    # at the innermost cell; the state refuses that, and so must the
    # config, before a directory is made
    path = tmp_path / "tiny.cfg"
    path.write_text("system = radial_3d\nmodel = soler\ninitial = bump\n"
                    "amplitude = 0.05\nwidth = 0.01\nr_max = 20\n"
                    "n_cells = 400\ndt = 0.025\nt_end = 0.5\n"
                    "sample_stride = 5\n")
    out = tmp_path / "out"
    for argv in (["run", "--scenario", str(path)],
                 ["verify-virial", "--identity", "H_radial_r2",
                  "--scenario", str(path)]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "configuration error: component 2 peaks at the innermost "
                "cell; odd parity through the origin is violated\n")
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


def _tree(root):
    """Every CSV's bytes and every summary without its wall time."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.suffix == ".csv":
            out[str(path.relative_to(root))] = path.read_bytes()
        elif path.name == "summary.json":
            summary = json.loads(path.read_text())
            del summary["wall_time"]
            out[str(path.relative_to(root))] = summary
    return out


def test_pooled_run_matches_separate_runs(tmp_path):
    paths = [_scenario(tmp_path, name="lab"),
             _scenario(tmp_path, system="spinor_1d", model="quartic_harmonic",
                       name="spinor",
                       extra="identities = J1, J_quartet_combined\n")]
    together, apart = tmp_path / "together", tmp_path / "apart"
    # two scenarios in one call run in a pool wherever there are 2 CPUs
    argv = ["run", "--out", str(together)]
    for path in paths:
        argv += ["--scenario", path]
    code = cli.main(argv)
    codes = [cli.main(["run", "--out", str(apart), "--scenario", path])
             for path in paths]
    # the coarse spinor run fails its identity checks; the verdict, like
    # every output byte, must not depend on how the runs were spread
    assert code == max(codes) == 1
    tree = _tree(together)
    assert "lab/trajectory.csv" in tree and "spinor/virial_J1.csv" in tree
    assert tree == _tree(apart)


def _inline_pools(monkeypatch, cpus):
    """Stand in for the process pool on ``cpus`` CPUs: the returned list
    records each pool's size, and every task runs inline."""
    pools = []

    def inline_pool(max_workers):
        pools.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        inline_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return pools


@pytest.mark.parametrize("cpus, n_scenarios, sizes", [
    (8, 1, []), (8, 3, [3]), (2, 3, [2]), (None, 3, [])])
def test_run_pool_has_one_worker_per_scenario_up_to_the_cpus(
        tmp_path, monkeypatch, capsys, cpus, n_scenarios, sizes):
    pools = _inline_pools(monkeypatch, cpus)
    argv = ["run", "--out", str(tmp_path / "out")]
    for k in range(n_scenarios):
        argv += ["--scenario", _scenario(tmp_path, name=f"s{k}")]
    assert cli.main(argv) == 0
    assert pools == sizes
    assert capsys.readouterr().out.count("pass  s") == n_scenarios


# cuts that keep each study's runs short; T1 still passes its checks,
# while T2, T3 and T5 each fail one
_SHORT = {"T1_massless": [("n_points = 8001", "n_points = 801"),
                          ("dt = 0.02", "dt = 0.25"),
                          ("sample_stride = 25", "sample_stride = 4")],
          "T2_massive_odd": [("t_end = 40", "t_end = 1")],
          "T3_radial": [("t_end = 40", "t_end = 1")],
          "T5_m0": [("t_end = 10", "t_end = 3")],
          "T5_m1": [("t_end = 10", "t_end = 3")]}


@pytest.mark.parametrize("ids, cpus, sizes", [
    (["T5_exterior"], 8, [2]), (["T2_massive_odd"], 8, []),
    (list(EXPERIMENT_IDS), 2, [2])],
    ids=["T5_on_8", "T2_on_8", "all_on_2"])
def test_experiment_pool_has_one_worker_per_run_up_to_the_cpus(
        tmp_path, monkeypatch, shorten, ids, cpus, sizes):
    # every run of every requested study shares the one pool
    for stem, cuts in _SHORT.items():
        shorten(stem, *cuts)
    pools = _inline_pools(monkeypatch, cpus)
    argv = ["experiment", "--out", str(tmp_path / "out")]
    for ident in ids:
        argv += ["--id", ident]
    assert cli.main(argv) == 1
    assert pools == sizes
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        sorted(ids)


def test_pooled_experiment_matches_separate_experiments(tmp_path, shorten):
    for stem in ("T2_massive_odd", "T5_m0", "T5_m1"):
        shorten(stem, *_SHORT[stem])
    ids = ["T2_massive_odd", "T5_exterior"]
    together, apart = tmp_path / "together", tmp_path / "apart"
    # three runs in one call run in a pool wherever there are 2 CPUs
    argv = ["experiment", "--out", str(together)]
    for ident in ids:
        argv += ["--id", ident]
    code = cli.main(argv)
    codes = [cli.main(["experiment", "--out", str(apart), "--id", ident])
             for ident in ids]
    # shortened, T2's sech mass cannot halve; the verdict, like every
    # output byte, must not depend on how the runs were spread
    assert code == max(codes) == 1
    tree = _tree(together)
    assert "T2_massive_odd/h_series.csv" in tree
    assert "T5_exterior/m1/i_series.csv" in tree
    assert "T5_exterior/summary.json" in tree
    assert tree == _tree(apart)


def test_malformed_second_scenario_exits_two_before_the_first_runs(
        tmp_path, capsys):
    first = _scenario(tmp_path, name="first")
    second = _scenario(tmp_path, name="second", extra="seed = 0\n")
    out = tmp_path / "out"
    argv = ["run", "--scenario", first, "--scenario", second,
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "configuration error: unknown keys: seed\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["two_files", "one_file_twice"])
def test_run_refuses_two_scenarios_that_share_an_output_directory(
        tmp_path, capsys, monkeypatch, case):
    # one run's files would overwrite the other's, or in the pool mix with
    # them; refused before any directory is made or anything is stepped
    calls = _count_integrate_calls(monkeypatch)
    paths = []
    for t_end, out_dir in (("1", "same"), ("2", "./same/")):
        path = tmp_path / f"t{t_end}.cfg"
        path.write_text(_TINY.format(system="spinor_1d",
                                     model="quartic_harmonic", name=out_dir,
                                     dt="0.1", t_end=t_end))
        paths.append(str(path))
    if case == "one_file_twice":
        paths[1] = paths[0]
    out = tmp_path / "out"
    argv = ["run", "--scenario", paths[0], "--scenario", paths[1],
            "--out", str(out)]
    assert cli.main(argv) == 2
    named = "same" if case == "one_file_twice" else "./same/"
    assert capsys.readouterr() == (
        "", f"configuration error: scenarios {paths[0]!r} and "
            f"{paths[1]!r} share the output directory {named!r}\n")
    assert calls == []
    assert not out.exists()


def test_experiment_refuses_a_study_given_twice(tmp_path, capsys,
                                               monkeypatch):
    # its runs would step twice into one directory, and race in the pool
    calls = _count_integrate_calls(monkeypatch)
    out = tmp_path / "out"
    argv = ["experiment", "--id", "T5_exterior", "--id", "T2_massive_odd",
            "--id", "T5_exterior", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", "configuration error: scenarios 'T5_exterior' and "
            "'T5_exterior' share the output directory 'T5_exterior/m0'\n")
    assert calls == []
    assert not out.exists()


def test_run_jobs_option_is_an_argparse_error(tmp_path):
    # the worker count follows the scenario count; there is no flag for it
    path = _scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--jobs", "2", "--scenario", path,
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_cli_imports_no_private_name():
    tree = ast.parse(inspect.getsource(cli))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("diraclab"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _unreadable_scenario(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(_TINY.format(system="lab_1d", model="thirring",
                                  name="latin1", dt="0.1", t_end="1")
                     .encode() + "# caf\xe9\n".encode("latin-1"))
    return str(path)


def _count_integrate_calls(monkeypatch):
    calls = []
    original = scenarios.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "integrate", counting)
    return calls


@pytest.mark.parametrize("case", ["directory", "not_utf8", "out_is_a_file",
                                  "emit_exact_out_is_a_file",
                                  "verify_virial_out_is_a_file",
                                  "nlkg_check_out_is_a_file"])
def test_unreadable_input_or_output_exits_two(tmp_path, capsys, monkeypatch,
                                              case):
    # each is refused before any stepping
    calls = _count_integrate_calls(monkeypatch)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv, named = {
        "directory": (["run", "--scenario", str(tmp_path)],
                      f"cannot read scenario {str(tmp_path)!r}: "
                      f"Is a directory"),
        "not_utf8": (["run", "--scenario", _unreadable_scenario(tmp_path)],
                     f"scenario {str(tmp_path / 'latin1.cfg')!r} is not "
                     f"UTF-8 text"),
        "out_is_a_file": (["run", "--scenario", _scenario(tmp_path),
                           "--out", str(a_file)],
                          f"cannot make output directory "
                          f"{str(a_file / 'tiny')!r}: Not a directory"),
        "emit_exact_out_is_a_file": (
            ["emit-exact", "--omega", "0.5", "--out", str(a_file)],
            f"cannot make output directory "
            f"{os.path.join(str(a_file), '.')!r}: Not a directory"),
        "verify_virial_out_is_a_file": (
            ["verify-virial", "--identity", "I_weighted_charge",
             "--scenario", _scenario(tmp_path), "--out", str(a_file)],
            f"cannot make output directory "
            f"{str(a_file / 'tiny')!r}: Not a directory"),
        "nlkg_check_out_is_a_file": (
            ["nlkg-check", "--scenario",
             _scenario(tmp_path, system="spinor_1d",
                       model="quartic_harmonic"), "--out", str(a_file)],
            f"cannot make output directory "
            f"{str(a_file / 'tiny')!r}: Not a directory"),
    }[case]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {named}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["emit_exact", "run", "run_identity",
                                     "second_scenario_table",
                                     "verify_virial", "nlkg_check",
                                     "study_table", "second_run_table"])
def test_table_path_that_is_a_directory_exits_two_before_stepping(
        tmp_path, capsys, monkeypatch, command):
    # a file the command would write that is an existing directory is
    # refused when the output directory is made: before any stepping,
    # and with nothing written
    calls = _count_integrate_calls(monkeypatch)
    out = tmp_path / "out"
    spinor = dict(system="spinor_1d", model="quartic_harmonic")
    argv, blocked = {
        "emit_exact": (["emit-exact", "--omega", "0.5", "--file", "sub"],
                       os.path.join(out, ".", "sub")),
        "run": (["run", "--scenario", _scenario(tmp_path, name="plain")],
                out / "plain" / "trajectory.csv"),
        "run_identity": (["run", "--scenario", _scenario(
            tmp_path, name="ident", extra="identities = I_weighted_charge\n")],
            out / "ident" / "virial_I_weighted_charge.csv"),
        # every scenario's directory is made before the first one steps
        "second_scenario_table": (
            ["run", "--scenario", _scenario(tmp_path, name="a"),
             "--scenario", _scenario(tmp_path, name="b")],
            out / "b" / "trajectory.csv"),
        "verify_virial": (["verify-virial", "--identity", "J1", "--scenario",
                           _scenario(tmp_path, name="verify", **spinor)],
                          out / "verify" / "virial_J1.csv"),
        "nlkg_check": (["nlkg-check", "--scenario",
                        _scenario(tmp_path, name="nlkg", **spinor)],
                       out / "nlkg" / "residuals.csv"),
        # a study post's own table, and one in a study's second run
        "study_table": (["experiment", "--id", "T2_massive_odd"],
                        out / "T2_massive_odd" / "h_series.csv"),
        "second_run_table": (["experiment", "--id", "T5_exterior"],
                             out / "T5_exterior" / "m1" / "i_series.csv"),
    }[command]
    os.makedirs(blocked)
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: cannot write {str(blocked)!r}: "
            f"Is a directory\n")
    assert calls == []
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_a_run_directory_that_takes_another_runs_file_name_exits_two(
        tmp_path, capsys, monkeypatch):
    # the second run's directory is the first run's trajectory table:
    # every directory is made before any file name is checked, so this is
    # refused before anything steps, not a traceback after both have run
    calls = _count_integrate_calls(monkeypatch)
    paths = []
    for name, out_dir in (("p", "x"), ("q", "x/trajectory.csv")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(_TINY.format(system="lab_1d", model="thirring",
                                     name=out_dir, dt="0.1", t_end="1"))
        paths.append(str(path))
    out = tmp_path / "nest"
    argv = ["run", "--scenario", paths[0], "--scenario", paths[1],
            "--out", str(out)]
    assert cli.main(argv) == 2
    blocked = out / "x" / "trajectory.csv"
    assert capsys.readouterr() == (
        "", f"configuration error: cannot write {str(blocked)!r}: "
            f"Is a directory\n")
    assert calls == []
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("case", ["climbing", "absolute"])
def test_an_out_dir_outside_the_output_root_exits_two(tmp_path, capsys,
                                                      monkeypatch, case):
    # a run writes only under --out; refused when the scenario is parsed
    calls = _count_integrate_calls(monkeypatch)
    out_dir = {"climbing": "inner/../../climbed",
               "absolute": str(tmp_path / "escaped")}[case]
    path = tmp_path / "a.cfg"
    path.write_text(_TINY.format(system="lab_1d", model="thirring",
                                 name=out_dir, dt="0.1", t_end="1"))
    argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "root")]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: out_dir {out_dir!r} leaves the output "
            f"root\n")
    assert calls == []
    assert list(tmp_path.iterdir()) == [path]


def test_the_option_inventory_is_pinned():
    # every option of every subcommand; a new knob needs an edit here
    parser = cli._build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    inventory = {name: sorted(option for action in sub._actions
                              for option in action.option_strings)
                 for name, sub in commands.items()}
    common = ["--help", "-h"]
    assert inventory == {
        "run": sorted(common + ["--scenario", "--out"]),
        "experiment": sorted(common + ["--id", "--out"]),
        "check-algebra": sorted(common + ["--verbose"]),
        "check-nonlinearity": sorted(common + ["--model", "--coupling"]),
        "verify-virial": sorted(common + ["--identity", "--scenario",
                                          "--out"]),
        "nlkg-check": sorted(common + ["--scenario", "--out"]),
        "emit-exact": sorted(common + ["--omega", "--time", "--x-min",
                                       "--x-max", "--n-points", "--file",
                                       "--out"]),
    }
    assert sorted(option for action in parser._actions
                  for option in action.option_strings) == common


def test_nlkg_check_on_too_few_samples_exits_two_before_stepping(
        tmp_path, capsys, monkeypatch):
    # one step sampled: centered differences need 3 samples, and the
    # scenario says it has 2 before anything is stepped or made
    calls = _count_integrate_calls(monkeypatch)
    path = _scenario(tmp_path, system="spinor_1d", model="quartic_harmonic",
                     name="few", dt="0.05", t_end="0.05")
    out = tmp_path / "out"
    assert cli.main(["nlkg-check", "--scenario", path, "--out",
                     str(out)]) == 2
    assert capsys.readouterr() == (
        "", "configuration error: gronwall_monitor needs at least 3 samples "
            "for centered differences; t_end / (dt * sample_stride) + 1 = "
            "2\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("from_env", [True, False])
def test_run_without_out_writes_under_the_default_root(tmp_path, monkeypatch,
                                                        from_env):
    # the root is $DIRACLAB_OUT when set, else the working directory
    root = tmp_path / "env_root"
    path = _scenario(tmp_path)
    monkeypatch.chdir(tmp_path)
    if from_env:
        monkeypatch.setenv("DIRACLAB_OUT", str(root))
    else:
        monkeypatch.delenv("DIRACLAB_OUT", raising=False)
    assert cli.main(["run", "--scenario", path]) == 0
    expected = (root if from_env else tmp_path) / "tiny"
    assert sorted(p.name for p in expected.iterdir()) == \
        ["summary.json", "trajectory.csv"]
    assert root.exists() is from_env


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
    (["--model", "thirring_claiming_p4"], 1),
    (["--model", "cubic_focusing"], 2),
    (["--model", "power_diag"], 2),
    (["--model", "nope"], 2),
])
def test_check_nonlinearity_exit_codes(argv, code, capsys, monkeypatch):
    # the growth check tests the power a model declares; a catalog entry
    # that declares more than its gradient carries fails it
    monkeypatch.setitem(nonlinearity._BUILTINS, "thirring_claiming_p4",
                        thirring_claiming_p4)
    assert cli.main(["check-nonlinearity"] + argv) == code
    if code != 2:
        report = json.loads(capsys.readouterr().out)
        assert report["polynomial_ok"]
        assert report["growth_ok"] is (code == 0)
    else:
        assert "unknown nonlinearity" in capsys.readouterr().err


def test_check_nonlinearity_expected_power_option_is_an_argparse_error():
    # the growth check reads the power the model declares
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-nonlinearity", "--model", "thirring",
                  "--expected-power", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, why", [
    (["--omega", "1.5"], "omega = 1.5 is outside (-1, 1)"),
    (["--omega", "0.5", "--time", "nan"],
     "x0, alpha and t must be finite"),
    (["--omega", "0.5", "--file", "."],
     "--file must be a bare file name, got '.'"),
    (["--omega", "0.5", "--file", "sub/x.csv"],
     "--file must be a bare file name, got 'sub/x.csv'"),
], ids=["omega_outside_the_band", "time_nan", "file_dot", "file_in_subdir"])
def test_emit_exact_malformed_request_exits_two(tmp_path, capsys, argv, why):
    out = tmp_path / "out"
    assert cli.main(["emit-exact", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"configuration error: {why}\n")
    assert not out.exists()


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
    ("spinor_1d", "thirring_psi", 2),
])
def test_nlkg_check_exit_codes(tmp_path, capsys, monkeypatch, system, model,
                               code):
    # a model the second-order lines do not hold for is refused before
    # any stepping, and before the output directory is made
    calls = _count_integrate_calls(monkeypatch)
    path = _scenario(tmp_path, system=system, model=model)
    argv = ["nlkg-check", "--scenario", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    assert len(calls) == (code == 0)
    assert (tmp_path / "out").exists() is (code == 0)
    if code == 0:
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] and payload["quotient"] <= 10.0
        assert np.isfinite(payload["nlkg_defect_max"])
        with open(payload["csv"], encoding="utf-8") as fh:
            assert fh.readline() == "t,M,nlkg_1,nlkg_2\n"
    else:
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1


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


def test_experiment_exits_one_when_a_check_fails(tmp_path, shorten,
                                                 capsys):
    # in one time unit the sech-weighted mass cannot halve, and its time
    # integral, on 3 samples, grows by about a quarter in the last quarter
    shorten("T2_massive_odd", ("t_end = 40", "t_end = 1"))
    argv = ["experiment", "--id", "T2_massive_odd", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  T2_massive_odd:sech_mass_ratio_below_half" in lines
    assert "FAIL  T2_massive_odd:cumulative_growth_below_5pct" in lines


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
    # scipy is a test-only dependency, so no import of the package may
    # load it; the process pool is imported where a pool is made, so a
    # command that steps one run, or none, does not pay for it; and the
    # scenario hash is the built-in SHA-256, so OpenSSL's _hashlib stays
    # out
    src = os.path.dirname(os.path.dirname(diraclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    lazy = ("scipy", "multiprocessing", "concurrent.futures.process",
            "_hashlib")
    for module in ("diraclab.cli", "diraclab.scenarios", "diraclab.studies"):
        code = (f"import sys, {module}; print(sorted(m for m in "
                f"sys.modules if m.startswith({lazy!r})))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True,
                             text=True).stdout
        assert out.strip() == "[]", module
