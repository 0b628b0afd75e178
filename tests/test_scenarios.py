import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from diraclab import scenarios, virials
from diraclab.exact import SolitonParams, thirring_soliton
from diraclab.scenarios import (ConfigError, ScenarioConfig,
                                bundled_config_path, integrate_scenario,
                                run_scenario, write_tables)
from diraclab.studies import (_STUDIES, EXPERIMENT_IDS,
                              _cumulative_trapezoid, _growth_final_quarter,
                              experiment)
from diraclab.virials import identity_ids

_LAB = {
    "system": "lab_1d",
    "model": "thirring",
    "mass": "1.0",
    "initial": "bump",
    "amplitude": "0.1",
    "width": "1.0",
    "x_min": "-20",
    "x_max": "20",
    "n_points": "201",
    "dt": "0.1",
    "t_end": "1",
}

_SPINOR = dict(_LAB, system="spinor_1d", model="quartic_harmonic")

_RADIAL = {
    "system": "radial_3d",
    "model": "soler",
    "initial": "bump",
    "amplitude": "0.05",
    "width": "1.0",
    "r_max": "20",
    "n_cells": "400",
    "dt": "0.025",
    "t_end": "1",
}

_SOLITON = {
    "system": "lab_1d",
    "model": "thirring",
    "coupling": "1.0",
    "initial": "soliton",
    "x_min": "-40",
    "x_max": "40",
    "n_points": "1601",
    "dt": "0.02",
    "t_end": "1",
}


def _text(base, **changes):
    fields = dict(base, **changes)
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


def _without(base, *keys):
    return {k: v for k, v in base.items() if k not in keys}


def _exact(message):
    return f"^{re.escape(message)}$"


def test_base_configs_parse():
    for base in (_LAB, _SPINOR, _RADIAL):
        ScenarioConfig.from_text(_text(base))
    ScenarioConfig.from_text(_text(_SOLITON, coupling="2.0"))


@pytest.mark.parametrize("text, match", [
    (_text(_LAB, colour="red"), "unknown keys: colour"),
    (_text(_LAB, seed="0"), "unknown keys: seed"),
    (_text(_LAB, n_cells="100"), "n_cells: not used on a line grid"),
    (_text(_LAB, omega="0.3"), "omega: not used by the bump"),
    (_text(_LAB, dt="0.125"), "exceeds the transport stability bound"),
    (_text(_LAB, t_end="20"), "boundary buffer"),
    (_text(_SOLITON), "initial = soliton requires"),
    (_text(_SPINOR, identities="J_chiral_balance"),
     "not defined on system 'spinor_1d': J_chiral_balance"),
    (_text(_SPINOR, identities="K_window_charge"),
     "unknown identities: K_window_charge"),
    (_text(_SPINOR, dt="0.02", t_end="0.04", sample_stride="2",
           identities="J1"), "identities need at least 3 samples"),
    (_text(_SPINOR, model="thirring"), "arity"),
    (_text(_RADIAL, r_max="nan"), "r_max must be positive and finite"),
    (_text(_RADIAL, r_max="inf"), "r_max must be positive and finite"),
    (_text(_LAB, x_max="inf"), "need finite x_min < x_max"),
    (_text(_LAB, width="nan"), "width must be positive and finite"),
    (_text(_LAB, center="nan"), "center and phase must be finite"),
    (_text(_LAB, system="planar"),
     r"system must be one of \('lab_1d', 'spinor_1d', 'radial_3d'\), "
     "got 'planar'"),
    (_text(_LAB, initial="kink"),
     r"initial must be one of \('bump', 'soliton'\), got 'kink'"),
    (_text(_LAB, parity="twisted"),
     r"parity must be one of \('none', 'even', 'odd'\), got 'twisted'"),
    (_text(_RADIAL, x_min="-3"), "^x_min: not used on a radial grid$"),
    (_text(_SOLITON, coupling="2.0", amplitude="0.1"),
     "^amplitude: not used by the standing-wave initial condition$"),
    (_text(_LAB, phase="0.3"),
     "^phase: not used by the bump initial condition$"),
    (_text(_LAB, observables="colour"), "^unknown observables: colour$"),
    (_text(_LAB, observables="energy"),
     "^observables not defined for this setup: energy$"),
    (_text(_RADIAL, observables="momentum"),
     "^observables not defined for this setup: momentum$"),
    (_text(_LAB, x_max="30", n_points="251", observables="parity_defect"),
     "^observables not defined for this setup: parity_defect$"),
    (_text(_LAB) + "colour\n",
     _exact("line 12: expected 'key = value', got 'colour'")),
    (_text(_LAB) + "mass = 2\n", _exact("line 12: duplicate key 'mass'")),
    (_text(_LAB, n_points="many"),
     _exact("key 'n_points': cannot read 'many' as int")),
    (_text(_without(_LAB, "t_end")), _exact("missing required key 't_end'")),
    (_text(_without(_LAB, "amplitude")), _exact("bump needs an amplitude")),
    (_text(_LAB, amplitude="0"),
     _exact("amplitude must be positive and finite")),
    (_text(_RADIAL, parity="odd"),
     _exact("radial bumps fix the parity class per component; leave "
            "parity unset")),
    (_text(_RADIAL, center="-1"), _exact("radial center must be >= 0")),
    (_text(_LAB, parity="odd", center="1"),
     _exact("parity-restricted bumps must sit at center = 0")),
    (_text(_without(_RADIAL, "amplitude", "width"), initial="soliton"),
     _exact("the standing wave lives on the line")),
    (_text(_LAB, sample_stride="3"),
     _exact("sample_stride = 3 does not divide the 10 steps")),
    # h = 1/16: the support estimate 3 + 13 passes r_max - 12 h
    (_text(_RADIAL, r_max="16", n_cells="256", t_end="13"),
     _exact("support estimate 16 exceeds r_max minus the sponge (15.25)")),
    # h = 1/8: the support estimate ends 11 h from the right edge, inside
    # the 4 pinned and 8 monitored nodes that integrate keeps there
    (_text(_LAB, x_min="-16", x_max="16", n_points="257", dt="0.05",
           center="10.625"),
     _exact("support estimate [6.625, 14.625] leaves less than 1.5 of "
            "boundary buffer")),
    # float(" 5") is 5, and the column would be named "mass_ball_ 5"
    (_text(_LAB, regions="ball: 5"),
     _exact("region 'ball: 5': specs may not hold whitespace")),
    (_text(_LAB, regions="ball:5, ball:5.0"),
     _exact("regions: ball:5 and ball:5.0 name one region")),
    (_text(_LAB, regions="interval:-1:2, ball:1e0, ball:1"),
     _exact("regions: ball:1e0 and ball:1 name one region")),
    (_text(_LAB, out_dir="../climbed"),
     _exact("out_dir '../climbed' leaves the output root")),
    (_text(_LAB, out_dir="/srv/escaped"),
     _exact("out_dir '/srv/escaped' leaves the output root")),
], ids=["unknown_key", "seed", "radial_key_on_line", "omega_on_bump",
        "dt_over_half_h", "buffer", "soliton_coupling",
        "chiral_balance_on_spinor", "window_charge_on_spinor",
        "identities_on_two_samples", "lab_model_on_spinor", "r_max_nan",
        "r_max_inf", "x_max_inf", "width_nan", "center_nan",
        "system_planar", "initial_kink", "parity_twisted",
        "line_key_on_radial", "amplitude_on_soliton", "phase_on_bump",
        "observable_colour", "energy_on_lab", "momentum_on_radial",
        "parity_defect_on_asymmetric_grid", "malformed_line",
        "duplicate_key", "unreadable_value", "missing_required_key",
        "bump_without_amplitude", "amplitude_zero", "radial_parity",
        "radial_center_negative", "parity_bump_off_center",
        "radial_soliton", "stride_not_dividing_steps", "radial_buffer",
        "buffer_inside_sponge", "region_with_whitespace",
        "regions_naming_one_region", "regions_naming_one_region_exponent",
        "out_dir_climbing_out", "out_dir_absolute"])
def test_config_rejections(text, match):
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.from_text(text)


@pytest.mark.parametrize("spec, rule", [
    ("ball:nan", "numbers must be finite"),
    ("ball:inf", "numbers must be finite"),
    ("exterior:nan", "numbers must be finite"),
    ("exterior:inf", "numbers must be finite"),
    ("interval:-inf:5", "numbers must be finite"),
    ("ball:0", "ball:R needs R > 0"),
    ("interval:3:3", "interval:LO:HI needs LO < HI"),
    ("ball", "write it as ball:R"),
    ("ball:2:1", "write it as ball:R"),
    ("ball:x", "cannot read its numbers as float"),
    ("nope:1", "unknown kind; use log_window, exterior:B, ball:R, "
               "interval:LO:HI"),
])
def test_region_refusals_name_the_spec_and_the_rule(spec, rule):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_text(_text(_LAB, regions=f"ball:1, {spec}"))
    assert str(exc.value) == f"region {spec!r}: {rule}"


@pytest.mark.parametrize("key, items", [
    ("observables", "charge, momentum, charge"),
    ("identities", "I_weighted_charge, I_weighted_charge"),
    ("regions", "ball:5, log_window, ball:5"),
])
def test_repeated_list_items_are_refused(key, items):
    repeated = items.split(",")[0]
    with pytest.raises(ConfigError, match=f"^{key}: repeated {repeated}$"):
        ScenarioConfig.from_text(_text(_SPINOR, **{key: items}))


def test_regions_sharing_a_column_are_refused():
    # "_" maps ":" in a column name and float reads "1_0" as 10: the
    # intervals [10, 20] and [1, 20] would both write one column, so a
    # region number may not hold "_"
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_text(_text(
            _LAB, regions="ball:1, interval:1_0:2_0, interval:1:0_2_0"))
    assert str(exc.value) == \
        "region 'interval:1_0:2_0': numbers may not hold '_'"


def test_list_keys_hold_resolved_tuples():
    config = ScenarioConfig.from_text(_text(
        _SPINOR, observables="momentum, charge", identities="J2, J1",
        regions="interval:-1e0:5, ball:5"))
    # observables in column order, identities and regions as written
    assert config.observables == ("charge", "momentum")
    assert config.identities == ("J2", "J1")
    assert [r.spec for r in config.regions] == ["interval:-1e0:5", "ball:5"]
    assert "regions = interval:-1e0:5, ball:5\n" in config.canonical()


def test_standing_wave_scenario_runs_the_exact_wave(tmp_path):
    with open(bundled_config_path("soliton_rest")) as fh:
        text = fh.read()
    short = text.replace("t_end = 20", "t_end = 1")
    assert short != text
    config = ScenarioConfig.from_text(short, name="rest")
    _, traj = integrate_scenario(config)
    wave = thirring_soliton(SolitonParams(0.5), config.build_grid())
    assert np.array_equal(traj.states[0].fields, wave.fields)
    assert traj.states[0].t == wave.t == 0.0
    assert run_scenario(config, out_root=tmp_path).passed
    # the wave sits at x = center: SolitonParams takes x0 = -center
    moved = ScenarioConfig.from_text(short + "center = 3\n")
    grid = moved.build_grid()
    peak = grid.x[np.argmax(moved.build_initial(grid).density())]
    assert abs(peak - 3.0) < 0.5 * grid.h


def test_bundled_config_hash_is_pinned():
    cfg = ScenarioConfig.from_file(bundled_config_path("massless_thirring"))
    assert cfg.hash == "659ce2f432fb079e"
    rest = ScenarioConfig.from_file(bundled_config_path("soliton_rest"))
    assert rest.hash == "5e4e0f6671ce2f35"
    # the study configs keep the hashes, names and directories they had
    # as scenario texts inside the module
    studies = {"T1_massless": ("549c57dee8a71d83", "T1_massless"),
               "T2_massive_odd": ("a13af1aa23373218", "T2_massive_odd"),
               "T3_radial": ("c4cc5ab737254046", "T3_radial"),
               "T5_m0": ("104bd79080bd1d3d", "T5_exterior/m0"),
               "T5_m1": ("76bc5a9ec3051cf1", "T5_exterior/m1")}
    for name, (digest, out_dir) in studies.items():
        config = ScenarioConfig.from_file(bundled_config_path(name))
        assert (config.hash, config.name, config.out_dir) == \
            (digest, name, out_dir)
    joint = hashlib.sha256(
        (studies["T5_m0"][0] + studies["T5_m1"][0]).encode()).hexdigest()
    assert joint[:16] == "f5729a8009418e77"
    assert [n for row in _STUDIES.values() for n in row[0]] == \
        list(studies)


@pytest.mark.parametrize("base, changes, header", [
    (_SPINOR, {"model": "soler", "regions": "ball:5"},
     "t,Q,E,P,mass_ball_5,parity_defect"),
    # the shape of the spinor_virials benchmark workload
    (_SPINOR, {"parity": "odd", "regions": "log_window, ball:5"},
     "t,Q,P,mass_log_window,mass_ball_5,parity_defect"),
    (_RADIAL, {"regions": "ball:1, ball:5"}, "t,Q,mass_ball_1,mass_ball_5"),
], ids=["spinor_soler", "spinor_virials", "radial"])
def test_default_trajectory_header(tmp_path, base, changes, header):
    config = ScenarioConfig.from_text(_text(base, **changes), name="hdr")
    run_scenario(config, out_root=tmp_path)
    with open(tmp_path / "hdr" / "trajectory.csv") as fh:
        assert fh.readline().strip() == header


def test_charge_drift_is_reported_without_a_charge_column(tmp_path):
    # the conservation record reads the charge even where the table
    # leaves it out
    runs = {}
    for name, observables in (("without", "momentum"),
                              ("with", "charge, momentum")):
        config = ScenarioConfig.from_text(
            _text(_LAB, observables=observables), name=name)
        runs[name] = run_scenario(config, out_root=tmp_path)
    with open(tmp_path / "without" / "trajectory.csv") as fh:
        assert fh.readline().strip() == "t,P"
    assert runs["without"].conservation == runs["with"].conservation
    assert set(runs["without"].conservation) == {"charge_initial",
                                                 "charge_drift_rel"}


def test_observables_are_looked_up_at_call_time(tmp_path, monkeypatch):
    # a profiler wraps these module attributes; the observables table
    # must reach each call through them, one per sample and observable
    calls = Counter()

    def counting(name):
        original = getattr(scenarios, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    names = ("charge", "momentum_1d", "parity_defect", "region_mass")
    for name in names:
        monkeypatch.setattr(scenarios, name, counting(name))
    config = ScenarioConfig.from_text(_text(_SPINOR, regions="ball:5"))
    assert config.observables == ("charge", "momentum", "parity_defect")
    summary = run_scenario(config, out_root=tmp_path)
    assert summary.n_samples == 11
    assert calls == {name: 11 for name in names}


@pytest.mark.parametrize("identities", [
    "H_sech_1d, I_weighted_charge, J1, J2, J3, J4, J_quartet_combined", ""])
def test_runner_verifies_each_identity_in_one_call(tmp_path, monkeypatch,
                                                    identities):
    # a profiler times verification by wrapping this module attribute and
    # counts one call per identity; the quartet family still costs one
    # pass, because verify_identity keeps its series on the trajectory.
    # The output directory is made once, however many tables it gets.
    seen, made = [], []
    original = scenarios.verify_identity
    makedirs = os.makedirs

    def counting(traj, name, **kwargs):
        seen.append(name)
        return original(traj, name, **kwargs)

    def counting_makedirs(path, *args, **kwargs):
        made.append(str(path))
        return makedirs(path, *args, **kwargs)

    monkeypatch.setattr(scenarios, "verify_identity", counting)
    monkeypatch.setattr(os, "makedirs", counting_makedirs)
    config = ScenarioConfig.from_text(
        _text(_SPINOR, parity="odd", identities=identities), name="one")
    summary = run_scenario(config, out_root=tmp_path)
    assert seen == list(config.identities)
    assert made == [str(tmp_path / "one")]
    assert list(summary.virials) == list(config.identities)
    assert summary.files == (["trajectory.csv"]
                             + [f"virial_{i}.csv" for i in config.identities]
                             + ["summary.json"])


def test_summary_file_lists_itself(tmp_path, shorten):
    summary = run_scenario(ScenarioConfig.from_text(_text(_LAB),
                                                    name="tiny"),
                           out_root=tmp_path)
    on_disk = json.loads((tmp_path / "tiny" / "summary.json").read_text())
    assert on_disk["files"] == summary.to_dict()["files"] == \
        ["trajectory.csv", "summary.json"]
    for stem in ("T5_m0", "T5_m1"):
        shorten(stem, ("t_end = 10", "t_end = 3"))
    [joint] = experiment("T5_exterior", out_root=tmp_path)
    on_disk = json.loads(
        (tmp_path / "T5_exterior" / "summary.json").read_text())
    assert on_disk["files"] == joint.to_dict()["files"]
    assert on_disk["files"][-1] == "summary.json"


def test_summary_dict_holds_each_field_and_the_verdict(tmp_path):
    summary = run_scenario(ScenarioConfig.from_text(_text(_LAB),
                                                    name="tiny"),
                           out_root=tmp_path)
    full = summary.to_dict()
    fields = inspect.signature(scenarios.ExperimentSummary).parameters
    assert set(full) == set(fields) | {"passed"}
    assert full["passed"] is summary.passed is True
    del full["wall_time"]
    assert summary.to_dict(include_wall_time=False) == full


def test_write_csv_roundtrip_is_lossless(tmp_path):
    x = np.linspace(-1.0, 1.0, 16)
    u = np.sin(x) * 1e-7
    [path] = write_tables(tmp_path, [("table.csv", ["x", "u", "v"],
                                      [x, u, np.cos(x)])])
    assert path == str(tmp_path / "table.csv")
    with open(path) as fh:
        assert fh.readline().strip() == "x,u,v"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], u)  # %.17g is lossless for doubles
    assert np.array_equal(data[:, 2], np.cos(x))


def test_t3_summary_is_json_with_boolean_checks(tmp_path, shorten):
    # 80 steps instead of 3200: drives the post-processing and writers
    shorten("T3_radial", ("t_end = 40", "t_end = 1"))
    experiment("T3_radial", out_root=tmp_path)
    out = tmp_path / "T3_radial"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]
    assert all(type(v) is bool for v in summary["checks"].values())
    with open(out / "k_series.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,K1,tK1,K2,tK2,origin_flux,cumulative"
    rows = np.loadtxt(out / "k_series.csv", delimiter=",", skiprows=1)
    expected = cumulative_trapezoid(rows[:, 5], rows[:, 0], initial=0.0)
    assert np.array_equal(rows[:, 6], expected)


def test_t2_summary_is_json_with_boolean_checks(tmp_path, shorten):
    # 50 steps sampled every 25th: 3 samples instead of 81
    shorten("T2_massive_odd", ("t_end = 40", "t_end = 1"))
    experiment("T2_massive_odd", out_root=tmp_path)
    out = tmp_path / "T2_massive_odd"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]
    assert all(type(v) is bool for v in summary["checks"].values())
    with open(out / "h_series.csv") as fh:
        assert fh.readline().strip() == \
            "t,sech_mass,cumulative,parity_defect"
        assert len(fh.readlines()) == 3
    rows = np.loadtxt(out / "h_series.csv", delimiter=",", skiprows=1)
    expected = cumulative_trapezoid(rows[:, 1], rows[:, 0], initial=0.0)
    assert np.array_equal(rows[:, 2], expected)


def test_t2_study_loads_no_scipy(tmp_path, shorten):
    # every T2 check reads the run, so a fresh process that runs the
    # study, post and all, never imports scipy, nor OpenSSL's _hashlib
    shorten("T2_massive_odd", ("t_end = 40", "t_end = 1"))
    cut = scenarios.bundled_config_path("T2_massive_odd")
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_root = str(tmp_path)
    code = ("import sys\n"
            "from diraclab import scenarios, studies\n"
            f"scenarios.bundled_config_path = lambda name: {cut!r}\n"
            f"studies.experiment('T2_massive_odd', out_root={out_root!r})\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy', '_hashlib'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "T2_massive_odd" / "h_series.csv").is_file()


@pytest.mark.skipif(not any(importlib.util.find_spec(m)
                            for m in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module")
def test_a_run_maps_no_openssl(tmp_path):
    # the scenario hash comes from the interpreter's SHA-256, so a run
    # of each system leaves _hashlib unimported and libcrypto unmapped
    src = os.path.dirname(os.path.dirname(scenarios.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    texts = [(name, _text(base)) for name, base in
             (("lab", _LAB), ("spinor", _SPINOR), ("radial", _RADIAL))]
    code = ("import os, sys\n"
            "from diraclab.scenarios import ScenarioConfig, run_scenario\n"
            f"for name, text in {texts!r}:\n"
            "    config = ScenarioConfig.from_text(text, name=name)\n"
            f"    run_scenario(config, out_root={str(tmp_path)!r})\n"
            "    maps = ''\n"
            "    if sys.platform.startswith('linux'):\n"
            "        with open('/proc/self/maps') as fh:\n"
            "            maps = fh.read()\n"
            "    print(name, '_hashlib' in sys.modules, 'libcrypto' in maps)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:-1] == [f"{name} False False"
                                    for name, _ in texts]
    for name, _ in texts:
        assert (tmp_path / name / "summary.json").is_file()


def _workload_texts(seed):
    """Each benchmark workload's scenario text at ``seed``, read from
    ``perfbench/workloads.py`` without writing anything next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         vars(module))
    return {name: module.scenario_text(name, seed)
            for name in module.WORKLOADS}


def test_hashes_are_hashlib_sha256(tmp_path):
    # the built-in SHA-256 is hashlib's function, digit for digit
    def reference(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    shipped = Path(scenarios.__file__).parent / "configs"
    configs = {path.stem: ScenarioConfig.from_file(str(path))
               for path in sorted(shipped.glob("*.cfg"))}
    configs.update((name, ScenarioConfig.from_text(text, name=name))
                   for name, text in _workload_texts(13).items())
    for name, config in configs.items():
        assert config.hash == reference(config.canonical()), name
    joint_studies = [(study, names) for study, (names, *_) in
                     _STUDIES.items() if len(names) > 1]
    assert joint_studies
    for study, names in joint_studies:
        runs = [configs[name] for name in names]
        done = [(scenarios.ExperimentSummary(
            name=c.name, scenario_hash=c.hash, system=c.system, n_samples=1,
            t_final=0.0, conservation={}, virials={}, decay={}, metrics={},
            checks={}, files=[], wall_time=0.0), {}, {}) for c in runs]
        os.makedirs(tmp_path / study)
        joint = scenarios._joint_summary(study, runs, done,
                                         str(tmp_path / study), 0.0)
        assert joint.scenario_hash == \
            reference("".join(c.hash for c in runs)), study


def test_t1_probes_are_resolved_and_decreasing(tmp_path, shorten):
    # a 10x coarser grid at the stability bound: 360 steps instead of
    # 4500, with the probes at t = 10, 20, 40, 80 still sampled
    shorten("T1_massless", ("n_points = 8001", "n_points = 801"),
            ("dt = 0.02", "dt = 0.25"),
            ("sample_stride = 25", "sample_stride = 4"))
    [summary] = experiment("T1_massless", out_root=tmp_path)
    assert summary.checks == {"window_mass_strictly_decreasing": True,
                              "window_mass_resolved": True,
                              "cumulative_growth_below_5pct": True}
    with open(tmp_path / "T1_massless" / "cumulative.csv") as fh:
        assert fh.readline().strip() == "t,flux,cumulative"


def test_experiment_ids_are_the_study_table():
    assert EXPERIMENT_IDS == tuple(_STUDIES)
    with pytest.raises(ConfigError, match="unknown experiment"):
        experiment("T4_missing")


@pytest.mark.parametrize("n", [2, 5, 100, 1001])
def test_cumulative_trapezoid_matches_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    y = rng.normal(size=n)
    assert np.array_equal(_cumulative_trapezoid(y, x),
                          cumulative_trapezoid(y, x, initial=0.0))


def test_growth_of_a_cumulative_that_ends_nonpositive_is_zero():
    t = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert _growth_final_quarter(t, [0.0, 1.0, 2.0, 3.0, 8.0]) == 0.625
    assert _growth_final_quarter(t, [0.0, -1.0, -2.0, -3.0, -4.0]) == 0.0
    assert _growth_final_quarter(t, [0.0, 1.0, 0.5, 0.25, 0.0]) == 0.0


def test_t1_post_refuses_a_run_without_a_probe_sample():
    # a T1 run must be sampled at t = 10, 20, 40 and 80
    traj = types.SimpleNamespace(times=np.array([0.0, 5.0, 9.5, 20.0]))
    series = {"mass_log_window": np.zeros(4)}
    with pytest.raises(RuntimeError, match="^no sample at t = 10.0$"):
        _STUDIES["T1_massless"][1](None, traj, None, series)


def test_every_identity_is_reachable_from_a_scenario():
    # a misspelt system name in a row would leave its identity unreachable
    systems = scenarios._SCHEMA["system"].allowed
    for name, row in virials._IDENTITIES.items():
        assert row.systems, name
        assert set(row.systems) <= set(systems), name
    reachable = set().union(*map(identity_ids, systems))
    assert set(identity_ids()) == reachable
