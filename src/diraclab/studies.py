"""The four bundled long-horizon studies.

A study is data: each row of ``_STUDIES`` names the bundled configs it
runs, a pure post-processing function that turns one run's trajectory,
summary and trajectory columns into a table, metrics and checks, and
that table's file name. :func:`experiment` hands the rows it is asked
for to the one runner, :func:`diraclab.scenarios._run_requests`, which
knows no study: this module imports it, never the other way round.
"""

import numpy as np

from . import scenarios, weights
from .grids import quad
from .scenarios import (ConfigError, ScenarioConfig, _column_name,
                        _run_requests)
from .virials import (ScalingTriple, functional_I, functionals_K_3d,
                      origin_flux_radial, window_flux_1d)

__all__ = ["experiment", "EXPERIMENT_IDS"]


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, starting at 0.

    Same arithmetic as ``scipy.integrate.cumulative_trapezoid(y, x,
    initial=0.0)``; written out here because scipy is not a runtime
    dependency.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1])
                                            / 2.0)))


def _growth_final_quarter(t, cumulative):
    """Relative growth of a cumulative integral over its last quarter."""
    t = np.asarray(t, dtype=float)
    c = np.asarray(cumulative, dtype=float)
    final = c[-1]
    if final <= 0.0:
        return 0.0
    cut = t[0] + 0.75 * (t[-1] - t[0])
    at_cut = float(np.interp(cut, t, c))
    return float((final - at_cut) / final)


def _post_t1(config, traj, summary, series):
    """Probes the 1D massless statement: a global solution tends to zero
    in the window |x| <= t / log^2 t. Hypotheses: n = 1, m = 0, a global
    solution; no smallness and no particular power, so the data is a
    large, wide massless Thirring packet. Checks that the window mass
    decreases at t = 10, 20, 40, 80 and stays resolved, and that the
    window's cumulative flux settles.
    """
    column = series[_column_name("log_window")]
    probes = [10.0, 20.0, 40.0, 80.0]
    window_mass = {}
    for t_probe in probes:
        k = int(np.argmin(np.abs(traj.times - t_probe)))
        if abs(traj.times[k] - t_probe) > 1e-9:
            raise RuntimeError(f"no sample at t = {t_probe}")
        window_mass[f"t{int(t_probe)}"] = float(column[k])
    seq = [window_mass[f"t{int(t)}"] for t in probes]

    log_sc = ScalingTriple.log_window()
    keep = traj.times >= 10.0
    t_flux = traj.times[keep]
    flux = np.array([window_flux_1d(st, log_sc.lam(st.t))
                     for st, k in zip(traj.states, keep) if k])
    cum = _cumulative_trapezoid(flux, t_flux)
    growth = _growth_final_quarter(t_flux, cum)

    # below this floor the window mass is round-off, and comparing the
    # probes would compare noise
    floor = 1e-20 * summary.conservation["charge_initial"]
    return (
        (["t", "flux", "cumulative"], [t_flux, flux, cum]),
        {"window_mass": window_mass,
         "cumulative_final": float(cum[-1]),
         "cumulative_growth_final_quarter": growth},
        {"window_mass_strictly_decreasing":
             all(a > b for a, b in zip(seq, seq[1:])),
         "window_mass_resolved": all(v > floor for v in seq),
         "cumulative_growth_below_5pct": growth < 0.05})


def _post_t2(config, traj, summary, series):
    """Probes the 1D massive statement: small odd solutions tend to zero
    on compact sets. Hypotheses: n = 1, m > 0, a "holomorphic" odd
    nonlinearity, small odd data, a global solution. parity = odd makes
    both components odd, a class the flow does not keep, so
    ``parity_defect_max`` reports how far the run leaves it. Its
    ``charge_drift_rel`` measures quartic_harmonic's broken gauge
    invariance, not the stepper. Checks that the sech-weighted mass
    halves and, as the integrated local decay the virial argument gives,
    that its time integral settles: ``cumulative_growth_below_5pct``.
    """
    sech = weights.sech_1d()
    sech_mass = np.array([
        float(quad(sech.phi(st.grid.x) * st.density(), st.grid))
        for st in traj.states])
    cum = _cumulative_trapezoid(sech_mass, traj.times)
    growth = _growth_final_quarter(traj.times, cum)
    par = series["parity_defect"]
    ratio = float(sech_mass[-1] / sech_mass[0])
    return (
        (["t", "sech_mass", "cumulative", "parity_defect"],
         [traj.times, sech_mass, cum, par]),
        {"sech_mass_initial": float(sech_mass[0]),
         "sech_mass_final": float(sech_mass[-1]),
         "sech_mass_ratio": ratio,
         "cumulative_final": float(cum[-1]),
         "cumulative_growth_final_quarter": growth,
         "parity_defect_max": float(par.max())},
        {"sech_mass_ratio_below_half": ratio < 0.5,
         "cumulative_growth_below_5pct": growth < 0.05})


def _post_t3(config, traj, summary, series):
    """Probes the 3D statement: solutions tend to zero on compact sets.
    Hypotheses: n = 3, a nonlinearity of the same class (Soler here), a
    global solution whose H^1 norm stays bounded; no parity condition.
    Checks that the K functionals stay bounded, that the origin's
    cumulative flux settles and that the unit-ball mass halves.
    """
    w = weights.r32_weight()
    k_rows = np.array([functionals_K_3d(st, w, m=config.mass)
                       for st in traj.states])
    flux = np.array([origin_flux_radial(st) for st in traj.states])
    cum = _cumulative_trapezoid(flux, traj.times)

    k_abs = np.abs(k_rows)
    cut = traj.times >= traj.times[0] + 0.75 * (
        traj.times[-1] - traj.times[0])
    k_sup = float(k_abs.max())
    k_sup_final = float(k_abs[cut].max())
    growth = _growth_final_quarter(traj.times, cum)
    ratio = summary.decay["mass_ball_1"]["ratio_last_first"]
    return (
        (["t", "K1", "tK1", "K2", "tK2", "origin_flux", "cumulative"],
         [traj.times, k_rows[:, 0], k_rows[:, 1], k_rows[:, 2],
          k_rows[:, 3], flux, cum]),
        {"k_initial": [float(v) for v in k_rows[0]],
         "k_sup": k_sup,
         "k_sup_final_quarter": k_sup_final,
         "cumulative_final": float(cum[-1]),
         "cumulative_growth_final_quarter": growth,
         "ball1_mass_ratio": ratio},
        {"k_functionals_bounded": bool(k_sup_final <= max(k_sup, 1e-12)
                                       and np.isfinite(k_rows).all()),
         "cumulative_growth_below_5pct": growth < 0.05,
         "ball1_mass_ratio_below_half": ratio is not None and ratio < 0.5})


def _post_t5(config, traj, summary, series):
    """Probes the exterior statement: the L^2 mass in |x| >= (1 + b) t
    tends to zero. Hypotheses: any n >= 1, a global solution, b > 0; no
    smallness, any mass (runs at m = 0 and 1). Checks, at b = 0.5 and 1,
    that the final exterior mass is below 1e-6 of the charge and that
    the windowed functional chasing the region does not rise. There is
    no negative control: it would need data faster than light, and the
    scheme, of transport speed 1, cannot produce any.
    """
    half = weights.half_tanh(side=+1)
    q0 = summary.conservation["charge_initial"]
    keep = traj.times >= 2.5
    states = [st for st, k in zip(traj.states, keep) if k]
    header, cols = ["t"], [traj.times[keep]]
    metrics, checks = {}, {}
    for b in (0.5, 1.0):
        tag = f"m{config.mass:g}_b{b:g}".replace(".", "p")
        sc = ScalingTriple.exterior(b=b, t0=float(config.t_end))
        ivals = np.array([functional_I(st, half, sc) for st in states])
        header.append(f"I_b{b:g}".replace(".", "p"))
        cols.append(ivals)
        rises = np.diff(ivals)
        worst_rise = float(rises.max()) if rises.size else 0.0
        scale = float(np.max(np.abs(ivals)))
        ext_mass = float(series[_column_name(f"exterior:{b:g}")][-1])
        metrics[tag] = {
            "exterior_mass_final": ext_mass,
            "exterior_mass_over_charge": ext_mass / q0,
            "functional_initial": float(ivals[0]),
            "functional_final": float(ivals[-1]),
            "worst_rise": worst_rise,
        }
        checks[f"exterior_mass_small_{tag}"] = ext_mass <= 1e-6 * q0
        checks[f"functional_nonincreasing_{tag}"] = \
            worst_rise <= 1e-3 * scale
    return (header, cols), metrics, checks


# The bundled studies, one row each: the bundled configs it runs, read
# through scenarios.bundled_config_path when it runs, its post and the
# post's table in each run's directory. ``post(config, trajectory,
# summary, series)`` returns ((header, columns), metrics, checks) and
# writes nothing.
_STUDIES = {
    "T1_massless": (["T1_massless"], _post_t1, "cumulative.csv"),
    "T2_massive_odd": (["T2_massive_odd"], _post_t2, "h_series.csv"),
    "T3_radial": (["T3_radial"], _post_t3, "k_series.csv"),
    "T5_exterior": (["T5_m0", "T5_m1"], _post_t5, "i_series.csv"),
}

EXPERIMENT_IDS = tuple(_STUDIES)


def experiment(*theorem_ids, out_root=None):
    """Run bundled long-horizon studies by name, all their runs in one
    pool as :func:`~diraclab.scenarios._run_requests` runs them; a study
    named twice is refused. Returns, per study, the summary that holds
    its metrics and checks: its run's, or for several runs the joint
    one."""
    requests = []
    for ident in theorem_ids:
        if ident not in _STUDIES:
            raise ConfigError(f"unknown experiment {ident!r}; "
                              f"known: {', '.join(EXPERIMENT_IDS)}")
        names, post, table = _STUDIES[ident]
        requests.append((ident, [ScenarioConfig.from_file(
            scenarios.bundled_config_path(name)) for name in names],
            post, table))
    return _run_requests(requests, out_root)
