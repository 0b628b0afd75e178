"""Plain-text run descriptions, the runner behind them, and the four
bundled long-horizon experiments.

A scenario file is a flat list of ``key = value`` lines (``#`` starts a
comment line). Unknown keys are rejected outright, as are known keys
that do not apply to the chosen system or initial condition: a config
either describes exactly one runnable setup or it raises
:class:`ConfigError` before any stepping happens. The stability bound
dt <= h/2 and a support-buffer estimate are checked at parse time for
the same reason; a run that would hit the boundary sponge is refused
up front rather than aborted halfway.

Everything written to disk (trajectory CSV, per-identity defect CSV,
summary JSON) is formatted through %.17g, so reruns of the same config
on the same build are byte-identical. Wall time is recorded in the
summary but excluded from :meth:`ExperimentSummary.to_dict` when
``include_wall_time=False``; comparisons should use that form.
"""

import hashlib
import json
import os
import time

import numpy as np

from . import nonlinearity, weights
from .dynamics import SpinorState1D, RadialSpinorState, integrate
from .exact import (CALIBRATED_THIRRING_COUPLING, SolitonParams,
                    thirring_soliton)
from .grids import Grid1D, RadialGrid, quad
from .observables import (Region, charge, energy_psi, hamiltonian_1d,
                          momentum_1d, parity_defect, region_mass)
from .virials import (ScalingTriple, coercivity_estimate, functional_H,
                      functional_I, functionals_K_3d, identity_ids,
                      origin_flux_radial, verify_identity, window_flux_1d)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ExperimentSummary",
    "integrate_scenario",
    "run_scenario",
    "experiment",
    "EXPERIMENT_IDS",
    "bundled_config_path",
]

OUT_ROOT_ENV = "DIRACLAB_OUT"

EXPERIMENT_IDS = ("T1_massless", "T2_massive_odd", "T3_radial",
                  "T5_exterior")


class ConfigError(ValueError):
    """A scenario description that cannot be run as written."""


def _fmt(x):
    """Stable decimal form; round-trips exactly and never localizes."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# schema

_SYSTEMS = ("lab_1d", "spinor_1d", "radial_3d")
_INITIALS = ("bump", "soliton")
_PARITIES = ("none", "even", "odd")
_OBSERVABLES = ("charge", "energy", "hamiltonian", "momentum",
                "parity_defect")

# key -> (converter, default); REQUIRED sentinel means the key must appear
_REQUIRED = object()

_SCHEMA = {
    "system": (str, _REQUIRED),
    "model": (str, _REQUIRED),
    "coupling": (float, 1.0),
    "mass": (float, 1.0),
    "initial": (str, _REQUIRED),
    "amplitude": (float, None),
    "width": (float, 2.0),
    "center": (float, 0.0),
    "parity": (str, "none"),
    "omega": (float, 0.5),
    "phase": (float, 0.0),
    "x_min": (float, -200.0),
    "x_max": (float, 200.0),
    "n_points": (int, 8001),
    "r_max": (float, 100.0),
    "n_cells": (int, 4000),
    "dt": (float, 0.02),
    "t_end": (float, _REQUIRED),
    "sample_stride": (int, 1),
    "observables": (str, None),
    "identities": (str, ""),
    "regions": (str, ""),
    "out_dir": (str, None),
}

_GRID_KEYS_1D = ("x_min", "x_max", "n_points")
_GRID_KEYS_RADIAL = ("r_max", "n_cells")
_BUMP_KEYS = ("amplitude", "width", "center", "parity")
_SOLITON_KEYS = ("omega", "phase", "center")

# which registered identities make sense on which system
_IDENTITIES_BY_SYSTEM = {
    "lab_1d": ("I_weighted_charge", "J_chiral_balance"),
    "spinor_1d": ("H_sech_1d", "I_weighted_charge", "J1", "J2", "J3", "J4",
                  "J_quartet_combined"),
    "radial_3d": ("H_radial_r2", "K1_3d", "K2_3d", "K_combined_3d",
                  "tK1_3d", "tK2_3d"),
}


def _split_list(raw):
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_lines(text):
    """Raw key -> string-value map; duplicate and malformed lines raise."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _region_from_spec(spec):
    """'log_window' | 'ball:R' | 'exterior:B' | 'interval:LO:HI'."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "log_window" and not args:
            return Region("interval_log_window")
        if kind == "ball" and len(args) == 1:
            return Region("ball", radius=float(args[0]))
        if kind == "exterior" and len(args) == 1:
            return Region("exterior_box", b=float(args[0]))
        if kind == "interval" and len(args) == 2:
            return Region("fixed_interval", lo=float(args[0]),
                          hi=float(args[1]))
    except ValueError as exc:
        raise ConfigError(f"region {spec!r}: {exc}") from None
    raise ConfigError(
        f"unknown region spec {spec!r}; use log_window, ball:R, "
        f"exterior:B, or interval:LO:HI")


def _column_name(spec):
    return "mass_" + spec.replace(":", "_").replace("-", "m")


class ScenarioConfig:
    """Typed, fully validated scenario description.

    Construct with :meth:`from_text` or :meth:`from_file`; the plain
    constructor is internal. After construction every applicable field
    is set, ``hash`` identifies the canonical text, and ``build_*``
    return fresh grid/model/initial-state objects.
    """

    def __init__(self, fields, explicit, name):
        for key, value in fields.items():
            setattr(self, key, value)
        self._explicit = frozenset(explicit)
        self.name = name
        self._validate()

    # -- construction ------------------------------------------------

    @classmethod
    def from_text(cls, text, name="scenario"):
        raw = _parse_lines(text)
        unknown = sorted(set(raw) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown keys: {', '.join(unknown)}")
        fields = {}
        for key, (conv, default) in _SCHEMA.items():
            if key in raw:
                try:
                    fields[key] = conv(raw[key])
                except ValueError:
                    raise ConfigError(
                        f"key {key!r}: cannot read {raw[key]!r} as "
                        f"{conv.__name__}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            else:
                fields[key] = default
        return cls(fields, explicit=set(raw), name=name)

    @classmethod
    def from_file(cls, path):
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        return cls.from_text(text, name=stem)

    # -- validation ---------------------------------------------------

    def _reject_inapplicable(self, keys, why):
        bad = sorted(set(keys) & self._explicit)
        if bad:
            raise ConfigError(f"{', '.join(bad)}: not used {why}")

    def _validate(self):
        if self.system not in _SYSTEMS:
            raise ConfigError(f"system must be one of {_SYSTEMS}, "
                              f"got {self.system!r}")
        if self.initial not in _INITIALS:
            raise ConfigError(f"initial must be one of {_INITIALS}, "
                              f"got {self.initial!r}")
        if self.parity not in _PARITIES:
            raise ConfigError(f"parity must be one of {_PARITIES}, "
                              f"got {self.parity!r}")
        if not np.isfinite([self.coupling, self.mass]).all():
            raise ConfigError("coupling and mass must be finite")

        radial = self.system == "radial_3d"
        if radial:
            self._reject_inapplicable(_GRID_KEYS_1D, "on a radial grid")
            if self.r_max <= 0.0 or self.n_cells < 16:
                raise ConfigError("need r_max > 0 and n_cells >= 16")
        else:
            self._reject_inapplicable(_GRID_KEYS_RADIAL, "on a line grid")
            if not self.x_min < self.x_max:
                raise ConfigError("need x_min < x_max")
            if self.n_points < 16:
                raise ConfigError("need n_points >= 16")

        if self.initial == "bump":
            self._reject_inapplicable(("omega", "phase"),
                                      "by the bump initial condition")
            if self.amplitude is None:
                raise ConfigError("bump needs an amplitude")
            if not (0.0 < self.amplitude and np.isfinite(self.amplitude)):
                raise ConfigError("amplitude must be positive and finite")
            if self.width <= 0.0:
                raise ConfigError("width must be positive")
            if radial:
                if self.parity != "none":
                    raise ConfigError(
                        "radial bumps fix the parity class per component; "
                        "leave parity unset")
                if self.center < 0.0:
                    raise ConfigError("radial center must be >= 0")
            elif self.parity != "none" and self.center != 0.0:
                raise ConfigError("parity-restricted bumps must sit at "
                                  "center = 0")
        else:
            self._reject_inapplicable(
                ("amplitude", "width", "parity"),
                "by the standing-wave initial condition")
            if radial:
                raise ConfigError("the standing wave lives on the line")
            if not abs(self.omega) < 1.0:
                raise ConfigError("omega must lie in (-1, 1)")
            # the exact wave solves one specific model; anything else
            # would silently run different data than advertised
            if (self.model != "thirring"
                    or self.coupling != CALIBRATED_THIRRING_COUPLING
                    or self.mass != 1.0):
                raise ConfigError(
                    "initial = soliton requires model = thirring, "
                    f"coupling = {CALIBRATED_THIRRING_COUPLING:g}, "
                    "mass = 1")

        # model must exist and match the system's frame
        try:
            model = self.build_model()
            nonlinearity.require_frame(model, self.frame,
                                       f"system {self.system!r}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None

        grid = self.build_grid()
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise ConfigError("dt must be positive and finite")
        if self.dt > 0.5 * grid.h + 1e-14:
            raise ConfigError(
                f"dt = {_fmt(self.dt)} exceeds the transport stability "
                f"bound h/2 = {_fmt(0.5 * grid.h)}")
        if self.t_end <= 0.0 or not np.isfinite(self.t_end):
            raise ConfigError("t_end must be positive and finite")
        n_steps = int(round(self.t_end / self.dt))
        if n_steps < 1 or abs(n_steps * self.dt - self.t_end) > 1e-9 * max(
                1.0, self.t_end):
            raise ConfigError("t_end must be an integer multiple of dt")
        if self.sample_stride < 1:
            raise ConfigError("sample_stride must be >= 1")
        if n_steps % self.sample_stride != 0:
            raise ConfigError(
                f"sample_stride = {self.sample_stride} does not divide "
                f"the {n_steps} steps")

        self._check_buffer(grid)

        if self.observables is None:
            obs = list(self._applicable_observables(model, grid))
        else:
            obs = _split_list(self.observables)
            bad = sorted(set(obs) - set(_OBSERVABLES))
            if bad:
                raise ConfigError(f"unknown observables: {', '.join(bad)}")
            allowed = self._applicable_observables(model, grid)
            out_of_place = sorted(set(obs) - set(allowed))
            if out_of_place:
                raise ConfigError(
                    f"observables not defined for this setup: "
                    f"{', '.join(out_of_place)}")
        self.observable_list = tuple(o for o in _OBSERVABLES if o in obs)

        self.n_samples = n_steps // self.sample_stride + 1
        idents = _split_list(self.identities)
        self.require_identities(idents)
        self.identity_list = tuple(idents)

        specs = _split_list(self.regions)
        self.region_list = tuple((spec, _region_from_spec(spec))
                                 for spec in specs)

        if self.out_dir is None:
            self.out_dir = self.name

    def require_identities(self, idents):
        """Refuse identities that are not registered, that the system
        does not carry, or that the run has too few samples to verify
        by centered time differences."""
        bad = sorted(set(idents) - set(identity_ids()))
        if bad:
            raise ConfigError(f"unknown identities: {', '.join(bad)}")
        out_of_place = sorted(set(idents)
                              - set(_IDENTITIES_BY_SYSTEM[self.system]))
        if out_of_place:
            raise ConfigError(
                f"identities not defined on system {self.system!r}: "
                f"{', '.join(out_of_place)}")
        if idents and self.n_samples < 3:
            raise ConfigError(
                f"identities need at least 3 samples for centered "
                f"differences; t_end / (dt * sample_stride) + 1 = "
                f"{self.n_samples}")

    def _applicable_observables(self, model, grid):
        out = ["charge"]
        if self.system == "spinor_1d" and \
                getattr(model, "g_coeffs", None) is not None:
            out.append("energy")
        if self.system == "lab_1d" and model.eval_W is not None:
            out.append("hamiltonian")
        if self.system != "radial_3d":
            out.append("momentum")
            if grid.is_symmetric():
                out.append("parity_defect")
        return tuple(out)

    def _check_buffer(self, grid):
        """Refuse runs whose support estimate reaches the edge sponge."""
        if isinstance(grid, RadialGrid):
            reach = self.center + 3.0 * self.width + self.t_end
            room = grid.r_max - 10.0 * grid.h
            if reach > room:
                raise ConfigError(
                    f"support estimate {_fmt(reach)} exceeds "
                    f"r_max minus the sponge ({_fmt(room)})")
            return
        if self.initial == "bump":
            # transport speed is 1; 3 widths of tail on each side
            lo = self.center - 3.0 * self.width - self.t_end
            hi = self.center + 3.0 * self.width + self.t_end
        else:
            gamma = float(np.sqrt(1.0 - self.omega ** 2))
            lo = self.center - 30.0 / gamma
            hi = self.center + 30.0 / gamma
        guard = 10.0 * grid.h
        if lo < self.x_min + guard or hi > self.x_max - guard:
            raise ConfigError(
                f"support estimate [{_fmt(lo)}, {_fmt(hi)}] leaves less "
                f"than {_fmt(guard)} of boundary buffer")

    # -- canonical form -----------------------------------------------

    def canonical(self):
        """Sorted key = value text with every applicable field resolved."""
        radial = self.system == "radial_3d"
        skip = set(_GRID_KEYS_1D if radial else _GRID_KEYS_RADIAL)
        skip |= set(_SOLITON_KEYS if self.initial == "bump"
                    else _BUMP_KEYS)
        skip &= {"omega", "phase", "amplitude", "width", "parity",
                 "x_min", "x_max", "n_points", "r_max", "n_cells"}
        lines = []
        for key in sorted(_SCHEMA):
            if key in skip:
                continue
            value = getattr(self, key)
            if key == "observables":
                value = ", ".join(self.observable_list)
            elif key == "identities":
                value = ", ".join(self.identity_list)
            elif key == "regions":
                value = ", ".join(spec for spec, _ in self.region_list)
            elif isinstance(value, float):
                value = _fmt(value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @property
    def frame(self):
        """The frame (a state ``kind``) the system's states are in."""
        return "lab_uv" if self.system == "lab_1d" else "spinor_psi"

    @property
    def hash(self):
        digest = hashlib.sha256(self.canonical().encode("utf-8"))
        return digest.hexdigest()[:16]

    # -- builders -----------------------------------------------------

    def build_grid(self):
        if self.system == "radial_3d":
            return RadialGrid(self.r_max, self.n_cells)
        return Grid1D(self.x_min, self.x_max, self.n_points)

    def build_model(self):
        # zero and isotropic_pair take no coupling and refuse an explicit
        # one; every other factory defaults it to the schema's 1.0
        params = ({"coupling": self.coupling}
                  if "coupling" in self._explicit else {})
        if self.model == "zero":
            params["arity"] = self.frame
        return nonlinearity.builtin(self.model, **params)

    def build_initial(self, grid=None):
        if grid is None:
            grid = self.build_grid()
        if self.initial == "soliton":
            params = SolitonParams(self.omega, x0=-self.center,
                                   alpha=self.phase)
            state = thirring_soliton(params, grid)
            if self.system == "spinor_1d":
                from .exact import to_spinor_frame
                state = to_spinor_frame(state)
            return state
        if isinstance(grid, RadialGrid):
            return _radial_bump(grid, self.amplitude, self.width,
                                self.center)
        return _line_bump(grid, self.frame, self.amplitude, self.width,
                          self.center, self.parity)

    def __repr__(self):
        return (f"ScenarioConfig({self.name!r}, system={self.system!r}, "
                f"model={self.model!r}, hash={self.hash})")


# ---------------------------------------------------------------------------
# initial data

def _line_bump(grid, kind, amplitude, width, center, parity):
    """Two-component Gaussian packet with a chosen reflection class.

    parity = none offsets the two components by half a width so that
    nothing accidental is symmetric; even/odd multiply a common real
    profile into fixed complex constants, which keeps all four real
    components in one reflection class.
    """
    x = grid.x
    c1 = 1.0 + 0.3j
    c2 = 0.6 * (0.5 - 0.8j)
    if parity == "none":
        s1 = (x - center - 0.5 * width) / width
        s2 = (x - center + 0.5 * width) / width
        f1 = amplitude * np.exp(-s1 ** 2) * c1
        f2 = amplitude * np.exp(-s2 ** 2) * c2
    else:
        s = (x - center) / width
        base = np.exp(-s ** 2)
        if parity == "odd":
            base = base * s
        f1 = amplitude * base * c1
        f2 = amplitude * base * c2
    return SpinorState1D(grid, kind, np.vstack([f1, f2]))


def _radial_bump(grid, amplitude, width, center):
    """Four real components in the parity classes the origin demands.

    center = 0 uses monomial prefactors (r for the odd pair, r^2 for
    the second even slot); center > 0 reflects an annular Gaussian to
    even/odd combinations, which keeps every origin Taylor coefficient
    of the wrong parity at zero.
    """
    r = grid.r
    if center == 0.0:
        s = r / width
        e = np.exp(-s ** 2)
        fields = np.vstack([
            amplitude * e,
            0.5 * amplitude * s ** 2 * e,
            0.8 * amplitude * s * e,
            0.6 * amplitude * s * e,
        ])
        return RadialSpinorState(grid, fields)
    plus = np.exp(-((r - center) / width) ** 2)
    minus = np.exp(-((r + center) / width) ** 2)
    even = plus + minus
    odd = plus - minus
    fields = np.vstack([
        amplitude * even,
        0.5 * amplitude * even,
        0.8 * amplitude * odd,
        0.6 * amplitude * odd,
    ])
    return RadialSpinorState(grid, fields)


# ---------------------------------------------------------------------------
# summaries

class ExperimentSummary:
    """What a run reports: drifts, identity verdicts, decay, checks.

    ``checks`` maps named boolean assertions; ``passed`` is their
    conjunction together with every identity verdict. ``metrics`` is
    free-form numeric context for the checks.
    """

    def __init__(self, name, scenario_hash, system, n_samples, t_final,
                 conservation, virials, decay, metrics, checks, files,
                 wall_time):
        self.name = name
        self.scenario_hash = scenario_hash
        self.system = system
        self.n_samples = int(n_samples)
        self.t_final = float(t_final)
        self.conservation = dict(conservation)
        self.virials = dict(virials)
        self.decay = dict(decay)
        self.metrics = dict(metrics)
        self.checks = dict(checks)
        self.files = list(files)
        self.wall_time = float(wall_time)

    @property
    def passed(self):
        idents = all(v["passed"] for v in self.virials.values())
        return idents and all(self.checks.values())

    def to_dict(self, include_wall_time=True):
        out = {
            "name": self.name,
            "scenario_hash": self.scenario_hash,
            "system": self.system,
            "n_samples": self.n_samples,
            "t_final": self.t_final,
            "conservation": self.conservation,
            "virials": self.virials,
            "decay": self.decay,
            "metrics": self.metrics,
            "checks": self.checks,
            "passed": self.passed,
            "files": self.files,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def write(self, directory):
        path = os.path.join(directory, "summary.json")
        payload = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if "summary.json" not in self.files:
            self.files.append("summary.json")
        return path

    def __repr__(self):
        tag = "pass" if self.passed else "FAIL"
        return (f"ExperimentSummary({self.name!r}, {tag}, "
                f"samples={self.n_samples}, t_final={self.t_final:g})")


def _ensure_dir(out_root, rel):
    root = out_root if out_root is not None else \
        os.environ.get(OUT_ROOT_ENV, ".")
    path = os.path.join(root, rel)
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _downsample(times, values, n_max=17):
    if len(times) <= n_max:
        idx = np.arange(len(times))
    else:
        idx = np.unique(np.linspace(0, len(times) - 1, n_max).round()
                        .astype(int))
    return ([float(times[i]) for i in idx],
            [float(values[i]) for i in idx])


def _decay_entry(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = np.isfinite(v)
    t, v = t[keep], v[keep]
    entry = {"t": [], "mass": [], "ratio_last_first": None,
             "loglog_slope": None}
    if t.size == 0:
        return entry
    ts, vs = _downsample(t, v)
    entry["t"], entry["mass"] = ts, vs
    if v[0] > 0.0:
        entry["ratio_last_first"] = float(v[-1] / v[0])
    if t.size >= 3 and np.all(t > 0.0) and np.all(v > 0.0):
        slope = np.polyfit(np.log(t), np.log(v), 1)[0]
        entry["loglog_slope"] = float(slope)
    return entry


def _observable_columns(config, traj, model):
    """(header, columns) for the trajectory table, plus the full series
    used for conservation bookkeeping."""
    states = traj.states
    charges = np.array([charge(st) for st in states])
    header = ["t"]
    columns = [traj.times]
    series = {"Q": charges}
    selected = config.observable_list
    if "charge" in selected:
        header.append("Q")
        columns.append(charges)
    if "energy" in selected:
        vals = np.array([energy_psi(st, model, m=config.mass)
                         for st in states])
        series["E"] = vals
        header.append("E")
        columns.append(vals)
    if "hamiltonian" in selected:
        vals = np.array([hamiltonian_1d(st, model, m=config.mass)
                         for st in states])
        series["H"] = vals
        header.append("H")
        columns.append(vals)
    if "momentum" in selected:
        vals = np.array([momentum_1d(st) for st in states])
        header.append("P")
        columns.append(vals)
    for spec, region in config.region_list:
        vals = []
        for st in states:
            try:
                vals.append(region_mass(st, region))
            except ValueError:
                # region not defined at this instant (early log window
                # or exterior box); the column records that honestly
                vals.append(np.nan)
        name = _column_name(spec)
        vals = np.array(vals)
        series[name] = vals
        header.append(name)
        columns.append(vals)
    if "parity_defect" in selected:
        vals = np.array([parity_defect(st) for st in states])
        series["parity_defect"] = vals
        header.append("parity_defect")
        columns.append(vals)
    return header, columns, series


def _conservation(series):
    q = series["Q"]
    out = {"charge_initial": float(q[0]),
           "charge_drift_rel": float(np.max(np.abs(q - q[0]))
                                     / max(abs(q[0]), 1e-300))}
    for key, label in (("E", "energy_drift_rel"),
                       ("H", "hamiltonian_drift_rel")):
        if key in series:
            e = series[key]
            scale = max(abs(e[0]), 1.0)
            out[label] = float(np.max(np.abs(e - e[0])) / scale)
    return out


def _verify_and_write(traj, ident, config, model, out_dir):
    """Verify one identity along ``traj`` and write virial_<ident>.csv;
    returns the report and the file name."""
    rep = verify_identity(traj, ident, m=config.mass, model=model)
    fname = f"virial_{ident}.csv"
    _write_csv(os.path.join(out_dir, fname),
               ["t", "F", "FD", "RHS", "defect"],
               [rep.times, rep.values, rep.fd, rep.rhs, rep.defect])
    return rep, fname


def integrate_scenario(config):
    """Build one scenario's model and initial data and integrate them;
    returns (model, trajectory) without writing anything."""
    grid = config.build_grid()
    model = config.build_model()
    state = config.build_initial(grid)
    traj = integrate(state, model, t_end=config.t_end, dt=config.dt,
                     m=config.mass, sample_stride=config.sample_stride)
    return model, traj


def _run(config, out_root=None):
    """Integrate one scenario and write its tables; returns
    (summary, trajectory, out_dir) so experiments can post-process
    samples."""
    if isinstance(config, (str, os.PathLike)):
        config = ScenarioConfig.from_file(config)
    t_start = time.perf_counter()
    out_dir = _ensure_dir(out_root, config.out_dir)
    model, traj = integrate_scenario(config)

    header, columns, series = _observable_columns(config, traj, model)
    files = ["trajectory.csv"]
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, columns)

    virials = {}
    for ident in config.identity_list:
        rep, fname = _verify_and_write(traj, ident, config, model, out_dir)
        virials[ident] = rep.to_dict()
        files.append(fname)

    decay = {}
    for key, vals in series.items():
        if key.startswith("mass_"):
            decay[key] = _decay_entry(traj.times, vals)

    summary = ExperimentSummary(
        name=config.name,
        scenario_hash=config.hash,
        system=config.system,
        n_samples=len(traj),
        t_final=float(traj.times[-1]),
        conservation=_conservation(series),
        virials=virials,
        decay=decay,
        metrics={},
        checks={},
        files=files,
        wall_time=time.perf_counter() - t_start,
    )
    return summary, traj, out_dir


def run_scenario(config, out_root=None):
    """Run one scenario end to end and write its summary.

    ``config`` is a :class:`ScenarioConfig` or a path to one. Output
    lands in ``<root>/<out_dir>`` where root comes from ``out_root``,
    the DIRACLAB_OUT environment variable, or the working directory,
    in that order of preference.
    """
    summary, _, out_dir = _run(config, out_root)
    summary.write(out_dir)
    return summary


# ---------------------------------------------------------------------------
# bundled experiments

_T1_TEXT = """
system = lab_1d
model = thirring
coupling = 1.0
mass = 0.0
initial = bump
amplitude = 0.3
width = 20
x_min = -200
x_max = 200
n_points = 8001
dt = 0.02
t_end = 90
sample_stride = 25
observables = charge, momentum
regions = log_window
out_dir = T1_massless
"""

_T2_TEXT = """
system = spinor_1d
model = quartic_harmonic
coupling = 1.0
mass = 1.0
initial = bump
amplitude = 0.05
width = 2.0
parity = odd
x_min = -100
x_max = 100
n_points = 4001
dt = 0.02
t_end = 40
sample_stride = 25
observables = charge, parity_defect
regions = ball:8
out_dir = T2_massive_odd
"""

_T3_TEXT = """
system = radial_3d
model = soler
coupling = 1.0
mass = 1.0
initial = bump
amplitude = 0.05
width = 2.0
r_max = 100
n_cells = 4000
dt = 0.0125
t_end = 40
sample_stride = 80
observables = charge
regions = ball:1, ball:5
out_dir = T3_radial
"""

_T5_TEXT = """
system = lab_1d
model = thirring
coupling = 1.0
mass = {mass}
initial = bump
amplitude = 0.3
width = 1.0
x_min = -60
x_max = 60
n_points = 2401
dt = 0.02
t_end = 10
sample_stride = 25
observables = charge, momentum
regions = exterior:0.5, exterior:1
out_dir = T5_exterior/m{mass}
"""


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, starting at 0.

    Same arithmetic as ``scipy.integrate.cumulative_trapezoid(y, x,
    initial=0.0)``; kept local so importing this module loads no scipy.
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


def _experiment_t1(out_root):
    cfg = ScenarioConfig.from_text(_T1_TEXT, name="T1_massless")
    summary, traj, out_dir = _run(cfg, out_root)

    window = Region("interval_log_window")
    probes = [10.0, 20.0, 40.0, 80.0]
    window_mass = {}
    for t_probe in probes:
        k = int(np.argmin(np.abs(traj.times - t_probe)))
        if abs(traj.times[k] - t_probe) > 1e-9:
            raise RuntimeError(f"no sample at t = {t_probe}")
        window_mass[f"t{int(t_probe)}"] = region_mass(
            traj.states[k], window)
    seq = [window_mass[f"t{int(t)}"] for t in probes]

    log_sc = ScalingTriple.log_window()
    keep = traj.times >= 10.0
    t_flux = traj.times[keep]
    flux = np.array([window_flux_1d(st, log_sc.lam(st.t))
                     for st, k in zip(traj.states, keep) if k])
    cum = _cumulative_trapezoid(flux, t_flux)
    growth = _growth_final_quarter(t_flux, cum)
    _write_csv(os.path.join(out_dir, "cumulative.csv"),
               ["t", "flux", "cumulative"], [t_flux, flux, cum])
    summary.files.append("cumulative.csv")

    summary.metrics.update({
        "window_mass": window_mass,
        "cumulative_final": float(cum[-1]),
        "cumulative_growth_final_quarter": growth,
    })
    # below this floor the window mass is round-off, and comparing the
    # probes would compare noise
    floor = 1e-20 * summary.conservation["charge_initial"]
    summary.checks.update({
        "window_mass_strictly_decreasing":
            all(a > b for a, b in zip(seq, seq[1:])),
        "window_mass_resolved": all(v > floor for v in seq),
        "cumulative_growth_below_5pct": growth < 0.05,
    })
    summary.write(out_dir)
    return summary


def _experiment_t2(out_root):
    cfg = ScenarioConfig.from_text(_T2_TEXT, name="T2_massive_odd")
    summary, traj, out_dir = _run(cfg, out_root)

    h_series = np.array([functional_H(st) for st in traj.states])
    sech = weights.sech_1d()
    sech_mass = np.array([
        float(quad(sech.phi(st.grid.x) * st.density(), st.grid))
        for st in traj.states])
    par = np.array([parity_defect(st) for st in traj.states])
    _write_csv(os.path.join(out_dir, "h_series.csv"),
               ["t", "H_window", "sech_mass", "parity_defect"],
               [traj.times, h_series, sech_mass, par])
    summary.files.append("h_series.csv")

    ratio = float(sech_mass[-1] / sech_mass[0])
    # odd-sector coercivity of the window Hessian at the unit scale of
    # the sech and tanh windows above: the positivity the decay rests on
    coercivity = coercivity_estimate(1.0)
    summary.metrics.update({
        "h_window": dict(zip(("initial", "final"),
                             (float(h_series[0]), float(h_series[-1])))),
        "sech_mass_initial": float(sech_mass[0]),
        "sech_mass_final": float(sech_mass[-1]),
        "sech_mass_ratio": ratio,
        "parity_defect_max": float(par.max()),
        "window_hessian_coercivity": coercivity,
    })
    summary.checks.update({
        "sech_mass_ratio_below_half": ratio < 0.5,
        "window_hessian_coercive": coercivity > 0.0,
    })
    summary.write(out_dir)
    return summary


def _experiment_t3(out_root):
    cfg = ScenarioConfig.from_text(_T3_TEXT, name="T3_radial")
    summary, traj, out_dir = _run(cfg, out_root)

    w = weights.r32_weight()
    k_rows = np.array([functionals_K_3d(st, w, m=cfg.mass)
                       for st in traj.states])
    flux = np.array([origin_flux_radial(st) for st in traj.states])
    cum = _cumulative_trapezoid(flux, traj.times)
    _write_csv(os.path.join(out_dir, "k_series.csv"),
               ["t", "K1", "tK1", "K2", "tK2", "origin_flux",
                "cumulative"],
               [traj.times, k_rows[:, 0], k_rows[:, 1], k_rows[:, 2],
                k_rows[:, 3], flux, cum])
    summary.files.append("k_series.csv")

    k_abs = np.abs(k_rows)
    cut = traj.times >= traj.times[0] + 0.75 * (
        traj.times[-1] - traj.times[0])
    k_sup = float(k_abs.max())
    k_sup_final = float(k_abs[cut].max())
    growth = _growth_final_quarter(traj.times, cum)
    ball1 = summary.decay["mass_ball_1"]
    ratio = ball1["ratio_last_first"]

    summary.metrics.update({
        "k_initial": [float(v) for v in k_rows[0]],
        "k_sup": k_sup,
        "k_sup_final_quarter": k_sup_final,
        "cumulative_final": float(cum[-1]),
        "cumulative_growth_final_quarter": growth,
        "ball1_mass_ratio": ratio,
    })
    summary.checks.update({
        "k_functionals_bounded": bool(k_sup_final <= max(k_sup, 1e-12)
                                      and np.isfinite(k_rows).all()),
        "cumulative_growth_below_5pct": growth < 0.05,
        "ball1_mass_ratio_below_half": ratio is not None and ratio < 0.5,
    })
    summary.write(out_dir)
    return summary


def _experiment_t5(out_root):
    t_start = time.perf_counter()
    half = weights.half_tanh(side=+1)
    sub = {}
    metrics = {}
    checks = {}
    files = []
    for mass in (0, 1):
        cfg = ScenarioConfig.from_text(_T5_TEXT.format(mass=mass),
                                       name=f"T5_m{mass}")
        summary, traj, out_dir = _run(cfg, out_root)
        q0 = summary.conservation["charge_initial"]
        keep = traj.times >= 2.5
        t_late = traj.times[keep]
        states = [st for st, k in zip(traj.states, keep) if k]
        cols = [t_late]
        header = ["t"]
        for b in (0.5, 1.0):
            tag = f"m{mass}_b{b:g}".replace(".", "p")
            sc = ScalingTriple.exterior(b=b, t0=float(cfg.t_end))
            ivals = np.array([functional_I(st, half, sc) for st in states])
            header.append(f"I_b{b:g}".replace(".", "p"))
            cols.append(ivals)
            rises = np.diff(ivals)
            worst_rise = float(rises.max()) if rises.size else 0.0
            scale = float(np.max(np.abs(ivals)))
            ext_mass = region_mass(traj.states[-1],
                                   Region("exterior_box", b=b))
            metrics[tag] = {
                "exterior_mass_final": float(ext_mass),
                "exterior_mass_over_charge": float(ext_mass / q0),
                "functional_initial": float(ivals[0]),
                "functional_final": float(ivals[-1]),
                "worst_rise": worst_rise,
            }
            checks[f"exterior_mass_small_{tag}"] = \
                ext_mass <= 1e-6 * q0
            checks[f"functional_nonincreasing_{tag}"] = \
                worst_rise <= 1e-3 * scale
        fname = "i_series.csv"
        _write_csv(os.path.join(out_dir, fname), header, cols)
        summary.files.append(fname)
        summary.write(out_dir)
        sub[f"m{mass}"] = summary

    joint_hash = hashlib.sha256(
        (sub["m0"].scenario_hash + sub["m1"].scenario_hash)
        .encode()).hexdigest()[:16]
    conservation = {
        "charge_drift_rel": max(
            s.conservation["charge_drift_rel"] for s in sub.values()),
        "hamiltonian_drift_rel": max(
            s.conservation.get("hamiltonian_drift_rel", 0.0)
            for s in sub.values()),
    }
    out_dir = _ensure_dir(out_root, "T5_exterior")
    summary = ExperimentSummary(
        name="T5_exterior", scenario_hash=joint_hash, system="lab_1d",
        n_samples=sum(s.n_samples for s in sub.values()),
        t_final=max(s.t_final for s in sub.values()),
        conservation=conservation, virials={}, decay={},
        metrics=metrics, checks=checks,
        files=[f"m{m}/" + f for m in (0, 1) for f in sub[f"m{m}"].files],
        wall_time=time.perf_counter() - t_start)
    summary.write(out_dir)
    return summary


_EXPERIMENTS = {
    "T1_massless": _experiment_t1,
    "T2_massive_odd": _experiment_t2,
    "T3_radial": _experiment_t3,
    "T5_exterior": _experiment_t5,
}


def experiment(theorem_id, out_root=None):
    """Run one of the bundled long-horizon studies by name.

    Returns the :class:`ExperimentSummary` with metrics and named
    checks filled in; everything it measured is also on disk under the
    experiment's output directory.
    """
    if theorem_id not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {theorem_id!r}; "
                          f"known: {', '.join(EXPERIMENT_IDS)}")
    return _EXPERIMENTS[theorem_id](out_root)


def bundled_config_path(name):
    """Absolute path of a scenario file shipped with the package."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "configs", name + ".cfg")
    if not os.path.exists(path):
        listing = sorted(
            f[:-4] for f in os.listdir(os.path.join(here, "configs"))
            if f.endswith(".cfg"))
        raise ConfigError(f"no bundled config {name!r}; "
                          f"have: {', '.join(listing)}")
    return path
