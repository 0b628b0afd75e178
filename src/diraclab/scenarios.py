"""Plain-text run descriptions and the one runner behind them.

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
it, so that distinct specs write distinct trajectory columns; two specs
that name one region, such as ``ball:5`` and ``ball:5.0``, are refused.
The canonical text joins each tuple, every region spec as written.

Scenarios and the bundled studies of :mod:`diraclab.studies` go
through one runner, :func:`_run_requests`, which knows no study: a
request carries its configs and, for a study, the post that turns each
run's trajectory into a table, metrics and checks. With every config
parsed, it refuses two runs that share an output directory, makes every
directory before it checks any file name, then steps one run in this
process or N in a pool of min(N, CPU count) workers; each runs its
request's post on the trajectory it holds and writes its files, and the
parent writes the joint summaries.

Every CSV table is one shape, ``(file name, header, columns)``, with one
writer, :func:`write_tables`, into a directory :func:`output_dirs` made
before any stepping. Tables and summary JSON format numbers through
%.17g, so reruns of the same config on the same build are byte-identical.
Wall time is recorded in the summary but excluded from
:meth:`ExperimentSummary.to_dict` when ``include_wall_time=False``;
comparisons should use that form.

Scenario hashes, and a study's joint hash of its runs' hashes, are
SHA-256 from the interpreter's built-in module (``_sha2`` or
``_sha256``), so a run maps no OpenSSL; :mod:`hashlib` is the fallback
only where neither is built in.
"""

import json
import os
import time
from collections import namedtuple

import numpy as np

from . import nonlinearity
from .dynamics import (_MIN_SAMPLES, _PIN, _SPONGE, SYSTEMS,
                       RadialSpinorState, SpinorState1D, integrate,
                       step_count)
from .exact import (CALIBRATED_THIRRING_COUPLING, SolitonParams,
                    thirring_soliton)
from .grids import Grid1D, RadialGrid
from .observables import (Region, charge, energy_psi, hamiltonian_1d,
                          momentum_1d, parity_defect, region_mass)
from .virials import identity_ids, verify_identity

# hashlib loads OpenSSL (_hashlib and libcrypto, which hold about 3.3 MB
# resident) when it is imported; the interpreter's built-in module is the
# same SHA-256 and maps nothing, so a run pays no memory for its hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ExperimentSummary",
    "integrate_scenario",
    "run_scenario",
    "run_scenarios",
    "output_dirs",
    "write_tables",
    "virial_file",
    "virial_table",
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
    "system": _Key(str, _REQUIRED, tuple(SYSTEMS)),
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario {path!r}: "
                              f"{exc.strerror or exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"scenario {path!r} is not UTF-8 "
                              f"text") from None
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

        # the grid, the model, the step schedule and the initial state
        # check their own arguments; their refusals are config errors
        try:
            grid = self.build_grid()
            model = self.build_model()
            nonlinearity.require_frame(model, self.frame,
                                       f"system {self.system!r}")
            n_steps = step_count(grid, self.t_end, self.dt,
                                 self.sample_stride)
            self.build_initial(grid)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from None

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
        named = {}
        for region in self.regions:
            first = named.setdefault((region.kind, region.args), region.spec)
            if first != region.spec:
                raise ConfigError(f"regions: {first} and {region.spec} "
                                  f"name one region")

        if self.out_dir is None:
            self.out_dir = self.name
        if os.path.isabs(self.out_dir) or \
                os.path.normpath(self.out_dir).split(os.sep)[0] == os.pardir:
            raise ConfigError(f"out_dir {self.out_dir!r} leaves the output "
                              "root")

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
        if idents:
            self.require_samples("identities need")

    def require_samples(self, subject):
        """Refuse a run with fewer samples than centered time differences
        need; ``subject`` opens the message, such as "identities need"."""
        if self.n_samples < _MIN_SAMPLES:
            raise ConfigError(
                f"{subject} at least {_MIN_SAMPLES} samples for centered "
                f"differences; t_end / (dt * sample_stride) + 1 = "
                f"{self.n_samples}")

    def _check_buffer(self, grid):
        """Refuse runs whose support estimate reaches the nodes that
        :func:`~diraclab.dynamics.integrate` pins or monitors at an
        outflow edge."""
        guard = (_PIN + _SPONGE) * grid.h
        if isinstance(grid, RadialGrid):
            reach = self.center + 3.0 * self.width + self.t_end
            room = grid.r_max - guard
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
            gamma = float(SolitonParams(self.omega).gamma)
            lo = self.center - 30.0 / gamma
            hi = self.center + 30.0 / gamma
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
        return SYSTEMS[self.system]

    @property
    def hash(self):
        """The first 16 hex digits of the SHA-256 of :meth:`canonical`,
        from the interpreter's built-in module, so a run maps no OpenSSL."""
        digest = sha256(self.canonical().encode("utf-8"))
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

    def build_initial(self, grid):
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
        out = dict(vars(self), passed=self.passed)
        if not include_wall_time:
            del out["wall_time"]
        return out

    def write(self, directory):
        path = os.path.join(directory, "summary.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def __repr__(self):
        tag = "pass" if self.passed else "FAIL"
        return (f"ExperimentSummary({self.name!r}, {tag}, "
                f"samples={self.n_samples}, t_final={self.t_final:g})")


def output_dirs(out_root, wanted):
    """Make ``<root>/<rel_dir>`` for the files ``names`` of each
    ``(rel_dir, names)`` in ``wanted`` and return the paths; root is
    ``out_root``, else the DIRACLAB_OUT environment variable, else the
    working directory. A directory that cannot be made is refused, and
    then, all made, a name that is a directory, such as another's."""
    root = out_root if out_root is not None else \
        os.environ.get(OUT_ROOT_ENV, ".")
    paths = [os.path.join(root, rel_dir) for rel_dir, _ in wanted]
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {path!r}: "
                              f"{exc.strerror or exc}") from None
    for path, (_, names) in zip(paths, wanted):
        for name in names:
            if os.path.isdir(os.path.join(path, name)):
                raise ConfigError(
                    f"cannot write {os.path.join(path, name)!r}: "
                    "Is a directory")
    return paths


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def write_tables(directory, tables):
    """Write each ``(file name, header, columns)`` table into
    ``directory``, made by :func:`output_dirs`; returns the paths."""
    paths = [os.path.join(directory, fname) for fname, _, _ in tables]
    for path, (_, header, columns) in zip(paths, tables):
        _write_csv(path, header, columns)
    return paths


def virial_file(ident):
    """The file name of one identity's defect table."""
    return f"virial_{ident}.csv"


def virial_table(report):
    """The defect table of one identity's verification report."""
    return (virial_file(report.identity),
            ["t", "F", "FD", "RHS", "defect"],
            [report.times, report.values, report.fd, report.rhs,
             report.defect])


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
    """Column name -> mass series of each configured region; NaN where a
    region is undefined (``log_window`` before |t| = 10, ``exterior:B``
    up to t = 2), a whole column for a run that never leaves that span."""
    out = {}
    for region in config.regions:
        vals = []
        for st in states:
            try:
                vals.append(region_mass(st, region))
            except ValueError:
                vals.append(np.nan)
        out[_column_name(region.spec)] = np.array(vals)
    return out


def _trajectory_table(config, traj, model):
    """The trajectory table, plus its series by column name; the charge
    series "Q" is there even when unselected, for conservation
    bookkeeping."""
    series = {}
    for name, row in _OBSERVABLES.items():
        if name == "parity_defect":
            series.update(_region_masses(config, traj.states))
        if name in config.observables:
            series[row.column] = np.array(
                [row.evaluate(st, config, model) for st in traj.states])
    table = ("trajectory.csv", ["t", *series], [traj.times, *series.values()])
    if "Q" not in series:
        series["Q"] = np.array([charge(st) for st in traj.states])
    return table, series


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


def integrate_scenario(config):
    """Build one scenario's model and initial data and integrate them;
    returns (model, trajectory) without writing anything."""
    grid = config.build_grid()
    model = config.build_model()
    state = config.build_initial(grid)
    traj = integrate(state, model, t_end=config.t_end, dt=config.dt,
                     m=config.mass, sample_stride=config.sample_stride)
    return model, traj


def _run_files(config, table):
    """The files a run of ``config`` writes into its directory, in
    writing order; ``table`` names its study post's table, or is None."""
    return ["trajectory.csv", *map(virial_file, config.identities),
            *([table] if table else []), "summary.json"]


def _run(job, out_dir):
    """Step one job, ``(config, post, table_name, joint)``, where this is
    called and write :func:`_run_files` into ``out_dir``, the summary with
    the post's metrics and checks unless the study's ``joint`` summary
    has them. Returns (summary, metrics, checks); the trajectory stays."""
    config, post, table_name, joint = job
    t_start = time.perf_counter()
    model, traj = integrate_scenario(config)

    table, series = _trajectory_table(config, traj, model)
    tables = [table]
    virials = {}
    for ident in config.identities:
        rep = verify_identity(traj, ident, m=config.mass, model=model)
        virials[ident] = rep.to_dict()
        tables.append(virial_table(rep))
    write_tables(out_dir, tables)

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
        files=_run_files(config, table_name),
        wall_time=time.perf_counter() - t_start,
    )
    metrics, checks = {}, {}
    if post is not None:
        (header, columns), metrics, checks = post(config, traj, summary,
                                                  series)
        write_tables(out_dir, [(table_name, header, columns)])
        if not joint:
            summary.metrics, summary.checks = metrics, checks
    summary.write(out_dir)
    return summary, metrics, checks


def _run_requests(requests, out_root):
    """Run ``(label, configs, post, table)`` requests, each one scenario
    without a post or one study, as the module docstring says. Returns a
    summary per request: its run's, or for a study of several runs the
    joint one, written into ``<root>/<label>``."""
    t_start = time.perf_counter()
    labels, jobs = [], []
    for label, configs, post, table in requests:
        for config in configs:
            labels.append(label)
            jobs.append((config, post, table, len(configs) > 1))
    # one run's files would overwrite, or in the pool mix with, another's
    firsts = {}
    for i, (config, _, _, _) in enumerate(jobs):
        j = firsts.setdefault(os.path.normpath(config.out_dir), i)
        if j != i:
            raise ConfigError(
                f"scenarios {labels[j]!r} and {labels[i]!r} share the "
                f"output directory {config.out_dir!r}")
    wanted = [(config.out_dir, _run_files(config, table))
              for config, _, table, _ in jobs]
    wanted += [(label, ["summary.json"])
               for label, configs, _, _ in requests if len(configs) > 1]
    paths = output_dirs(out_root, wanted)
    out_dirs, joint_dirs = paths[:len(jobs)], paths[len(jobs):]

    workers = min(len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run, jobs, out_dirs))
    else:
        results = list(map(_run, jobs, out_dirs))
    summaries = []
    for label, configs, _, _ in requests:
        done, results = results[:len(configs)], results[len(configs):]
        summaries.append(done[0][0] if len(configs) == 1 else _joint_summary(
            label, configs, done, joint_dirs.pop(0), t_start))
    return summaries


def run_scenario(config, out_root=None):
    """Run one :class:`ScenarioConfig` end to end, in this process, into
    ``<root>/<out_dir>``, root as in :func:`output_dirs`."""
    return run_scenarios([(config.name, config)], out_root)[0]


def run_scenarios(labelled, out_root=None):
    """Run parsed scenarios, ``(label, config)`` pairs, as
    :func:`run_scenario` runs one, in one pool; returns their summaries."""
    return _run_requests([(label, [config], None, None)
                          for label, config in labelled], out_root)


def _joint_summary(study, configs, done, directory, t_start):
    """Write the summary of a study of several runs from each run's
    (summary, metrics, checks): the runs' hashes hashed together, their
    largest drifts, their posts' metrics and checks, and every run's
    files followed by its own."""
    subs = [summary for summary, _, _ in done]
    metrics, checks = {}, {}
    for _, run_metrics, run_checks in done:
        metrics.update(run_metrics)
        checks.update(run_checks)
    joint_hash = sha256(
        "".join(s.scenario_hash for s in subs).encode()).hexdigest()[:16]
    conservation = {key: max(s.conservation.get(key, 0.0) for s in subs)
                    for key in ("charge_drift_rel", "hamiltonian_drift_rel")}
    files = [os.path.relpath(config.out_dir, study) + "/" + f
             for config, summary in zip(configs, subs) for f in summary.files]
    summary = ExperimentSummary(
        name=study, scenario_hash=joint_hash, system=subs[0].system,
        n_samples=sum(s.n_samples for s in subs),
        t_final=max(s.t_final for s in subs),
        conservation=conservation, virials={}, decay={},
        metrics=metrics, checks=checks, files=files + ["summary.json"],
        wall_time=time.perf_counter() - t_start)
    summary.write(directory)
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
