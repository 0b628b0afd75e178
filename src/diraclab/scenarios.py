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

Two tables hold the file's rules. ``_SCHEMA`` has a row per key; a
key's group (line or radial grid, bump or standing wave) applies or not
by ``_GROUPS``, and an explicit key of a group that does not apply is
refused and left out of the canonical text behind the scenario hash.
``_OBSERVABLES`` has a row per trajectory column. Its evaluators call
the observables functions from lambda bodies, so each name is looked up
in this module at call time and a patched attribute sees every call.

The three list keys are split here once, a repeated item refused, and
each then holds one resolved tuple: ``observables`` the checked names in
``_OBSERVABLES`` column order, ``identities`` the names the ``virials``
table carries for the system, and ``regions`` one
:class:`~diraclab.observables.Region` per spec, which parses and checks
it; two specs that would write one trajectory column are refused. The
canonical text joins each tuple, every region spec as written.

The bundled studies are data. Each row of ``_STUDIES`` lists the
scenario texts a study runs and a pure post-processing function that
turns one run's trajectory and summary into extra tables, metrics and
checks; :func:`experiment` is the one driver that runs, writes and
summarizes every study.

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
from collections import namedtuple

import numpy as np

from . import nonlinearity, weights
from .dynamics import (RadialSpinorState, SpinorState1D, integrate,
                       step_count)
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


class ConfigError(ValueError):
    """A scenario description that cannot be run as written."""


def _fmt(x):
    """Stable decimal form; round-trips exactly and never localizes."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# schema

# key -> (converter, default, allowed values or None, group or None); a
# _REQUIRED default means the key must appear
_Key = namedtuple("_Key", "convert default allowed group",
                  defaults=(None, None))
_REQUIRED = object()

_SCHEMA = {
    "system": _Key(str, _REQUIRED, ("lab_1d", "spinor_1d", "radial_3d")),
    "model": _Key(str, _REQUIRED),
    "coupling": _Key(float, 1.0),
    "mass": _Key(float, 1.0),
    "initial": _Key(str, _REQUIRED, ("bump", "soliton")),
    "amplitude": _Key(float, None, group="bump"),
    "width": _Key(float, 2.0, group="bump"),
    "center": _Key(float, 0.0),
    "parity": _Key(str, "none", ("none", "even", "odd"), "bump"),
    "omega": _Key(float, 0.5, group="soliton"),
    "phase": _Key(float, 0.0, group="soliton"),
    "x_min": _Key(float, -200.0, group="line"),
    "x_max": _Key(float, 200.0, group="line"),
    "n_points": _Key(int, 8001, group="line"),
    "r_max": _Key(float, 100.0, group="radial"),
    "n_cells": _Key(int, 4000, group="radial"),
    "dt": _Key(float, 0.02),
    "t_end": _Key(float, _REQUIRED),
    "sample_stride": _Key(int, 1),
    "observables": _Key(str, None),
    "identities": _Key(str, ""),
    "regions": _Key(str, ""),
    "out_dir": _Key(str, None),
}

# group -> (does it apply to this config?, why its keys are refused
# where it does not)
_GROUPS = {
    "line": (lambda c: c.system != "radial_3d", "on a radial grid"),
    "radial": (lambda c: c.system == "radial_3d", "on a line grid"),
    "bump": (lambda c: c.initial == "bump",
             "by the standing-wave initial condition"),
    "soliton": (lambda c: c.initial == "soliton",
                "by the bump initial condition"),
}

# name -> (column, evaluate(state, config, model), defined(config, model,
# grid)), in column order; region masses go just before the parity defect
_Observable = namedtuple("_Observable", "column evaluate defined")

_OBSERVABLES = {
    "charge": _Observable("Q", lambda st, c, model: charge(st),
                          lambda c, model, grid: True),
    "energy": _Observable(
        "E", lambda st, c, model: energy_psi(st, model, m=c.mass),
        lambda c, model, grid: (c.system == "spinor_1d" and getattr(
            model, "g_coeffs", None) is not None)),
    "hamiltonian": _Observable(
        "H", lambda st, c, model: hamiltonian_1d(st, model, m=c.mass),
        lambda c, model, grid: (c.system == "lab_1d"
                                and model.eval_W is not None)),
    "momentum": _Observable("P", lambda st, c, model: momentum_1d(st),
                            lambda c, model, grid: c.system != "radial_3d"),
    "parity_defect": _Observable(
        "parity_defect", lambda st, c, model: parity_defect(st),
        lambda c, model, grid: (c.system != "radial_3d"
                                and grid.is_symmetric())),
}


def _split_list(key, raw):
    """The comma-separated items of a list key; a repeated item raises."""
    items = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise ConfigError(f"{key}: repeated {', '.join(repeated)}")
    return items


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
        for key, row in _SCHEMA.items():
            if key in raw:
                try:
                    fields[key] = row.convert(raw[key])
                except ValueError:
                    raise ConfigError(
                        f"key {key!r}: cannot read {raw[key]!r} as "
                        f"{row.convert.__name__}") from None
            elif row.default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            else:
                fields[key] = row.default
        return cls(fields, explicit=set(raw), name=name)

    @classmethod
    def from_file(cls, path):
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        return cls.from_text(text, name=stem)

    # -- validation ---------------------------------------------------

    def _unused_groups(self):
        """(why, keys) for each schema group that does not apply here."""
        return [(why, [key for key, row in _SCHEMA.items()
                       if row.group == group])
                for group, (applies, why) in _GROUPS.items()
                if not applies(self)]

    def _validate(self):
        for key, row in _SCHEMA.items():
            value = getattr(self, key)
            if row.allowed is not None and value not in row.allowed:
                raise ConfigError(f"{key} must be one of {row.allowed}, "
                                  f"got {value!r}")
        # the model, the grids and the step schedule refuse a non-finite
        # coupling, extent, dt or t_end; nothing downstream checks these
        if not np.isfinite([self.mass, self.center, self.phase]).all():
            raise ConfigError("mass, center and phase must be finite")
        for why, keys in self._unused_groups():
            bad = sorted(self._explicit.intersection(keys))
            if bad:
                raise ConfigError(f"{', '.join(bad)}: not used {why}")

        radial = self.system == "radial_3d"
        if self.initial == "bump":
            if self.amplitude is None:
                raise ConfigError("bump needs an amplitude")
            if not (0.0 < self.amplitude and np.isfinite(self.amplitude)):
                raise ConfigError("amplitude must be positive and finite")
            if not 0.0 < self.width < np.inf:
                raise ConfigError("width must be positive and finite")
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
        elif radial:
            raise ConfigError("the standing wave lives on the line")
        # the exact wave solves one specific model; anything else would
        # silently run different data than advertised
        elif (self.model != "thirring"
              or self.coupling != CALIBRATED_THIRRING_COUPLING
              or self.mass != 1.0):
            raise ConfigError(
                "initial = soliton requires model = thirring, "
                f"coupling = {CALIBRATED_THIRRING_COUPLING:g}, mass = 1")

        # the grid, the model, the step schedule and the standing wave
        # check their own arguments; their refusals are config errors
        try:
            grid = self.build_grid()
            model = self.build_model()
            nonlinearity.require_frame(model, self.frame,
                                       f"system {self.system!r}")
            n_steps = step_count(grid, self.t_end, self.dt,
                                 self.sample_stride)
            if self.initial == "soliton":
                SolitonParams(self.omega)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        if n_steps % self.sample_stride != 0:
            raise ConfigError(
                f"sample_stride = {self.sample_stride} does not divide "
                f"the {n_steps} steps")

        self._check_buffer(grid)

        defined = [name for name, row in _OBSERVABLES.items()
                   if row.defined(self, model, grid)]
        if self.observables is None:
            obs = defined
        else:
            obs = _split_list("observables", self.observables)
            bad = sorted(set(obs) - set(_OBSERVABLES))
            if bad:
                raise ConfigError(f"unknown observables: {', '.join(bad)}")
            out_of_place = sorted(set(obs) - set(defined))
            if out_of_place:
                raise ConfigError(
                    f"observables not defined for this setup: "
                    f"{', '.join(out_of_place)}")
        self.observables = tuple(o for o in _OBSERVABLES if o in obs)

        self.n_samples = n_steps // self.sample_stride + 1
        self.identities = _split_list("identities", self.identities)
        self.require_identities(self.identities)

        specs = _split_list("regions", self.regions)
        try:
            self.regions = tuple(Region(spec) for spec in specs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # float reads "1_0" as 10, so two specs can name one column
        columns = {}
        for spec in specs:
            column = _column_name(spec)
            if column in columns:
                raise ConfigError(
                    f"regions: {columns[column]} and {spec} share the "
                    f"trajectory column {column}")
            columns[column] = spec

        if self.out_dir is None:
            self.out_dir = self.name

    def require_identities(self, idents):
        """Refuse identities that are not in the ``virials`` table, that
        the system does not carry, or that the run has too few samples
        to verify by centered time differences."""
        bad = sorted(set(idents) - set(identity_ids()))
        if bad:
            raise ConfigError(f"unknown identities: {', '.join(bad)}")
        out_of_place = sorted(set(idents) - set(identity_ids(self.system)))
        if out_of_place:
            raise ConfigError(
                f"identities not defined on system {self.system!r}: "
                f"{', '.join(out_of_place)}")
        if idents and self.n_samples < 3:
            raise ConfigError(
                f"identities need at least 3 samples for centered "
                f"differences; t_end / (dt * sample_stride) + 1 = "
                f"{self.n_samples}")

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
        skip = {key for _, keys in self._unused_groups() for key in keys}
        lines = []
        for key in sorted(_SCHEMA):
            if key in skip:
                continue
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
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
            return thirring_soliton(params, grid)
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
        if "summary.json" not in self.files:
            self.files.append("summary.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
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


def _region_masses(config, states):
    """Column name -> mass series of each configured region."""
    out = {}
    for region in config.regions:
        vals = []
        for st in states:
            try:
                vals.append(region_mass(st, region))
            except ValueError:
                # region not defined at this instant (early log window
                # or exterior region); the column records that honestly
                vals.append(np.nan)
        out[_column_name(region.spec)] = np.array(vals)
    return out


def _observable_columns(config, traj, model):
    """(header, columns) for the trajectory table, plus its series by
    column name; the charge series "Q" is there even when unselected,
    for conservation bookkeeping."""
    series = {}
    for name, row in _OBSERVABLES.items():
        if name == "parity_defect":
            series.update(_region_masses(config, traj.states))
        if name in config.observables:
            series[row.column] = np.array(
                [row.evaluate(st, config, model) for st in traj.states])
    header = ["t", *series]
    columns = [traj.times, *series.values()]
    if "Q" not in series:
        series["Q"] = np.array([charge(st) for st in traj.states])
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
    for ident in config.identities:
        rep, fname = _verify_and_write(traj, ident, config, model, out_dir)
        virials[ident] = rep.to_dict()
        files.append(fname)

    decay = {}
    for region in config.regions:
        column = _column_name(region.spec)
        decay[column] = _decay_entry(traj.times, series[column])

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


def _post_t1(config, traj, summary):
    """Probes the 1D massless statement: a global solution tends to zero
    in the window |x| <= t / log^2 t. Hypotheses: n = 1, m = 0, a global
    solution; no smallness and no particular power, so the data is a
    large, wide massless Thirring packet. Checks that the window mass
    decreases at t = 10, 20, 40, 80 and stays resolved, and that the
    window's cumulative flux settles.
    """
    window = Region("log_window")
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

    # below this floor the window mass is round-off, and comparing the
    # probes would compare noise
    floor = 1e-20 * summary.conservation["charge_initial"]
    return (
        [("cumulative.csv", ["t", "flux", "cumulative"],
          [t_flux, flux, cum])],
        {"window_mass": window_mass,
         "cumulative_final": float(cum[-1]),
         "cumulative_growth_final_quarter": growth},
        {"window_mass_strictly_decreasing":
             all(a > b for a, b in zip(seq, seq[1:])),
         "window_mass_resolved": all(v > floor for v in seq),
         "cumulative_growth_below_5pct": growth < 0.05})


def _post_t2(config, traj, summary):
    """Probes the 1D massive statement: small odd solutions tend to zero
    on compact sets. Hypotheses: n = 1, m > 0, a "holomorphic" odd
    nonlinearity, small odd data, a global solution. parity = odd makes
    both components odd, a class the flow does not keep, so
    ``parity_defect_max`` reports how far the run leaves it. Its
    ``charge_drift_rel`` measures quartic_harmonic's broken gauge
    invariance, not the stepper. Checks that the sech-weighted mass
    halves and that the window Hessian is coercive.
    """
    h_series = np.array([functional_H(st) for st in traj.states])
    sech = weights.sech_1d()
    sech_mass = np.array([
        float(quad(sech.phi(st.grid.x) * st.density(), st.grid))
        for st in traj.states])
    par = np.array([parity_defect(st) for st in traj.states])
    ratio = float(sech_mass[-1] / sech_mass[0])
    # odd-sector coercivity of the window Hessian at the unit scale of
    # the sech and tanh windows above: the positivity the decay rests on
    coercivity = coercivity_estimate(1.0)
    return (
        [("h_series.csv", ["t", "H_window", "sech_mass", "parity_defect"],
          [traj.times, h_series, sech_mass, par])],
        {"h_window": {"initial": float(h_series[0]),
                      "final": float(h_series[-1])},
         "sech_mass_initial": float(sech_mass[0]),
         "sech_mass_final": float(sech_mass[-1]),
         "sech_mass_ratio": ratio,
         "parity_defect_max": float(par.max()),
         "window_hessian_coercivity": coercivity},
        {"sech_mass_ratio_below_half": ratio < 0.5,
         "window_hessian_coercive": coercivity > 0.0})


def _post_t3(config, traj, summary):
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
        [("k_series.csv",
          ["t", "K1", "tK1", "K2", "tK2", "origin_flux", "cumulative"],
          [traj.times, k_rows[:, 0], k_rows[:, 1], k_rows[:, 2],
           k_rows[:, 3], flux, cum])],
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


def _post_t5(config, traj, summary):
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
        ext_mass = region_mass(traj.states[-1], Region(f"exterior:{b:g}"))
        metrics[tag] = {
            "exterior_mass_final": float(ext_mass),
            "exterior_mass_over_charge": float(ext_mass / q0),
            "functional_initial": float(ivals[0]),
            "functional_final": float(ivals[-1]),
            "worst_rise": worst_rise,
        }
        checks[f"exterior_mass_small_{tag}"] = ext_mass <= 1e-6 * q0
        checks[f"functional_nonincreasing_{tag}"] = \
            worst_rise <= 1e-3 * scale
    return [("i_series.csv", header, cols)], metrics, checks


# The bundled studies, one row each: its runs and its post-processing.
# A run is (run name, name of a module-level scenario text, fields to
# format into it); the text is read when the study runs, so it can be
# swapped for a shorter one. ``post(config, trajectory, summary)``
# returns (tables, metrics, checks) and writes nothing; a table is
# (file name, header, columns).
_STUDIES = {
    "T1_massless": ([("T1_massless", "_T1_TEXT", {})], _post_t1),
    "T2_massive_odd": ([("T2_massive_odd", "_T2_TEXT", {})], _post_t2),
    "T3_radial": ([("T3_radial", "_T3_TEXT", {})], _post_t3),
    "T5_exterior": ([("T5_m0", "_T5_TEXT", {"mass": 0}),
                     ("T5_m1", "_T5_TEXT", {"mass": 1})], _post_t5),
}

EXPERIMENT_IDS = tuple(_STUDIES)


def experiment(theorem_id, out_root=None):
    """Run one of the bundled long-horizon studies by name.

    Each run writes its scenario's tables, its post-processing's tables
    and its summary. Returns the summary that holds the study's metrics
    and checks: the run's, or for several runs the joint one.
    """
    if theorem_id not in _STUDIES:
        raise ConfigError(f"unknown experiment {theorem_id!r}; "
                          f"known: {', '.join(EXPERIMENT_IDS)}")
    runs, post = _STUDIES[theorem_id]
    t_start = time.perf_counter()
    done, metrics, checks = [], {}, {}
    for name, text, fields in runs:
        config = ScenarioConfig.from_text(globals()[text].format(**fields),
                                          name=name)
        summary, traj, out_dir = _run(config, out_root)
        tables, run_metrics, run_checks = post(config, traj, summary)
        for fname, header, columns in tables:
            _write_csv(os.path.join(out_dir, fname), header, columns)
            summary.files.append(fname)
        metrics.update(run_metrics)
        checks.update(run_checks)
        if len(runs) == 1:
            summary.metrics, summary.checks = metrics, checks
        summary.write(out_dir)
        done.append((config, summary))
    if len(runs) == 1:
        return summary
    return _joint_summary(theorem_id, done, metrics, checks, out_root,
                          t_start)


def _joint_summary(study, done, metrics, checks, out_root, t_start):
    """Write the summary of a study of several runs: the runs' hashes
    hashed together, their largest drifts and every run's files."""
    subs = [summary for _, summary in done]
    joint_hash = hashlib.sha256(
        "".join(s.scenario_hash for s in subs).encode()).hexdigest()[:16]
    conservation = {key: max(s.conservation.get(key, 0.0) for s in subs)
                    for key in ("charge_drift_rel", "hamiltonian_drift_rel")}
    files = [os.path.relpath(config.out_dir, study) + "/" + f
             for config, summary in done for f in summary.files]
    summary = ExperimentSummary(
        name=study, scenario_hash=joint_hash, system=subs[0].system,
        n_samples=sum(s.n_samples for s in subs),
        t_final=max(s.t_final for s in subs),
        conservation=conservation, virials={}, decay={},
        metrics=metrics, checks=checks, files=files,
        wall_time=time.perf_counter() - t_start)
    summary.write(_ensure_dir(out_root, study))
    return summary


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
