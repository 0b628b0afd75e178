import json

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from diraclab import scenarios
from diraclab.scenarios import (ConfigError, ScenarioConfig, _write_csv,
                                bundled_config_path, experiment)
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
    for base in (_LAB, _SPINOR):
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
], ids=["unknown_key", "seed", "radial_key_on_line", "omega_on_bump",
        "dt_over_half_h", "buffer", "soliton_coupling",
        "chiral_balance_on_spinor", "window_charge_on_spinor",
        "identities_on_two_samples", "lab_model_on_spinor"])
def test_config_rejections(text, match):
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig.from_text(text)


def test_bundled_config_hash_is_pinned():
    cfg = ScenarioConfig.from_file(bundled_config_path("massless_thirring"))
    assert cfg.hash == "659ce2f432fb079e"
    t1 = ScenarioConfig.from_text(scenarios._T1_TEXT, name="T1_massless")
    assert t1.hash == "549c57dee8a71d83"


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


@pytest.mark.parametrize("n", [2, 5, 100, 1001])
def test_cumulative_trapezoid_matches_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    y = rng.normal(size=n)
    assert np.array_equal(scenarios._cumulative_trapezoid(y, x),
                          cumulative_trapezoid(y, x, initial=0.0))


def test_every_identity_is_reachable_from_a_scenario():
    reachable = set().union(*scenarios._IDENTITIES_BY_SYSTEM.values())
    assert set(identity_ids()) == reachable
