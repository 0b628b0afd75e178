import importlib
import pkgutil

import pytest

import diraclab
from diraclab import cli

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
dt = 0.1
t_end = 1
out_dir = tiny
"""


def _scenario(tmp_path, system="lab_1d", model="thirring", extra=""):
    path = tmp_path / "tiny.cfg"
    path.write_text(_TINY.format(system=system, model=model) + extra)
    return str(path)


def test_check_algebra_exits_zero(capsys):
    assert cli.main(["check-algebra"]) == 0
    assert "n = 3" in capsys.readouterr().out


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


def test_verify_virial_with_identity_the_system_lacks_exits_two(
        tmp_path, capsys):
    path = _scenario(tmp_path, system="spinor_1d", model="quartic_harmonic")
    argv = ["verify-virial", "--system", "spinor", "--identity",
            "J_chiral_balance", "--scenario", path,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "not defined on 'spinor_1d'" in capsys.readouterr().err


def test_removed_subcommand_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit-plots", "--dir", str(tmp_path)])
    assert exc.value.code == 2


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(diraclab.__path__)]
    assert "scenarios" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"diraclab.{name}")
        for export in getattr(module, "__all__", ()):
            assert hasattr(module, export), f"diraclab.{name}.{export}"
