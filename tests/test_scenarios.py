import json
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from diraclab import scenarios, virials
from diraclab.scenarios import (ConfigError, ScenarioConfig, _write_csv,
                                bundled_config_path, experiment,
                                run_scenario)
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
], ids=["unknown_key", "seed", "radial_key_on_line", "omega_on_bump",
        "dt_over_half_h", "buffer", "soliton_coupling",
        "chiral_balance_on_spinor", "window_charge_on_spinor",
        "identities_on_two_samples", "lab_model_on_spinor", "r_max_nan",
        "r_max_inf", "x_max_inf", "width_nan", "center_nan",
        "system_planar", "initial_kink", "parity_twisted",
        "line_key_on_radial", "amplitude_on_soliton", "phase_on_bump",
        "observable_colour", "energy_on_lab", "momentum_on_radial",
        "parity_defect_on_asymmetric_grid"])
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


def test_list_keys_hold_resolved_tuples():
    config = ScenarioConfig.from_text(_text(
        _SPINOR, observables="momentum, charge", identities="J2, J1",
        regions="interval:-1e0:5, ball:5"))
    # observables in column order, identities and regions as written
    assert config.observables == ("charge", "momentum")
    assert config.identities == ("J2", "J1")
    assert [r.spec for r in config.regions] == ["interval:-1e0:5", "ball:5"]
    assert "regions = interval:-1e0:5, ball:5\n" in config.canonical()


def test_bundled_config_hash_is_pinned():
    cfg = ScenarioConfig.from_file(bundled_config_path("massless_thirring"))
    assert cfg.hash == "659ce2f432fb079e"
    t1 = ScenarioConfig.from_text(scenarios._T1_TEXT, name="T1_massless")
    assert t1.hash == "549c57dee8a71d83"
    t2 = ScenarioConfig.from_text(scenarios._T2_TEXT, name="T2_massive_odd")
    assert t2.hash == "a13af1aa23373218"
    t3 = ScenarioConfig.from_text(scenarios._T3_TEXT, name="T3_radial")
    assert t3.hash == "c4cc5ab737254046"
    rest = ScenarioConfig.from_file(bundled_config_path("soliton_rest"))
    assert rest.hash == "5e4e0f6671ce2f35"


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


def test_summary_file_lists_itself(tmp_path, monkeypatch):
    summary = run_scenario(ScenarioConfig.from_text(_text(_LAB),
                                                    name="tiny"),
                           out_root=tmp_path)
    on_disk = json.loads((tmp_path / "tiny" / "summary.json").read_text())
    assert on_disk["files"] == summary.to_dict()["files"] == \
        ["trajectory.csv", "summary.json"]
    short = scenarios._T5_TEXT.replace("t_end = 10", "t_end = 3")
    assert short != scenarios._T5_TEXT
    monkeypatch.setattr(scenarios, "_T5_TEXT", short)
    joint = experiment("T5_exterior", out_root=tmp_path)
    on_disk = json.loads(
        (tmp_path / "T5_exterior" / "summary.json").read_text())
    assert on_disk["files"] == joint.to_dict()["files"]
    assert on_disk["files"][-1] == "summary.json"


def test_write_csv_roundtrip_is_lossless(tmp_path):
    x = np.linspace(-1.0, 1.0, 16)
    u = np.sin(x) * 1e-7
    path = tmp_path / "table.csv"
    _write_csv(path, ["x", "u", "v"], [x, u, np.cos(x)])
    with open(path) as fh:
        assert fh.readline().strip() == "x,u,v"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], u)  # %.17g is lossless for doubles
    assert np.array_equal(data[:, 2], np.cos(x))


def test_t3_summary_is_json_with_boolean_checks(tmp_path, monkeypatch):
    # 80 steps instead of 3200: drives the post-processing and writers
    short = scenarios._T3_TEXT.replace("t_end = 40", "t_end = 1")
    assert short != scenarios._T3_TEXT
    monkeypatch.setattr(scenarios, "_T3_TEXT", short)
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


def test_t2_summary_is_json_with_boolean_checks(tmp_path, monkeypatch):
    # 50 steps sampled every 25th: 3 samples instead of 81
    short = scenarios._T2_TEXT.replace("t_end = 40", "t_end = 1")
    assert short != scenarios._T2_TEXT
    monkeypatch.setattr(scenarios, "_T2_TEXT", short)
    experiment("T2_massive_odd", out_root=tmp_path)
    out = tmp_path / "T2_massive_odd"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]
    assert all(type(v) is bool for v in summary["checks"].values())
    with open(out / "h_series.csv") as fh:
        assert fh.readline().strip() == "t,H_window,sech_mass,parity_defect"
        assert len(fh.readlines()) == 3


def test_t1_probes_are_resolved_and_decreasing(tmp_path, monkeypatch):
    # a 10x coarser grid at the stability bound: 360 steps instead of
    # 4500, with the probes at t = 10, 20, 40, 80 still sampled
    short = (scenarios._T1_TEXT.replace("n_points = 8001", "n_points = 801")
             .replace("dt = 0.02", "dt = 0.25")
             .replace("sample_stride = 25", "sample_stride = 4"))
    monkeypatch.setattr(scenarios, "_T1_TEXT", short)
    summary = experiment("T1_massless", out_root=tmp_path)
    assert summary.checks == {"window_mass_strictly_decreasing": True,
                              "window_mass_resolved": True,
                              "cumulative_growth_below_5pct": True}
    with open(tmp_path / "T1_massless" / "cumulative.csv") as fh:
        assert fh.readline().strip() == "t,flux,cumulative"


def test_experiment_ids_are_the_study_table():
    assert scenarios.EXPERIMENT_IDS == tuple(scenarios._STUDIES)
    with pytest.raises(ConfigError, match="unknown experiment"):
        experiment("T4_missing")


@pytest.mark.parametrize("n", [2, 5, 100, 1001])
def test_cumulative_trapezoid_matches_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    y = rng.normal(size=n)
    assert np.array_equal(scenarios._cumulative_trapezoid(y, x),
                          cumulative_trapezoid(y, x, initial=0.0))


def test_every_identity_is_reachable_from_a_scenario():
    # a misspelt system name in a row would leave its identity unreachable
    systems = scenarios._SCHEMA["system"].allowed
    for name, row in virials._IDENTITIES.items():
        assert row.systems, name
        assert set(row.systems) <= set(systems), name
    reachable = set().union(*map(identity_ids, systems))
    assert set(identity_ids()) == reachable
