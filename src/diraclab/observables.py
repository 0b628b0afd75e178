"""Conserved quantities, region masses, and symmetry diagnostics; the
charge is :mod:`diraclab.dynamics`' own, and :func:`log_window_width` is
the one home of the paper's 1D massless window width t / log^2 t."""

import numpy as np

from .dynamics import charge, require_line
from .grids import deriv1, quad


def log_window_width(t):
    """t / log^2 t, the width of the log window at time t."""
    return t / np.log(t) ** 2


def momentum_1d(state):
    """Im of the integrated pair f dbar(f)/dx, summed over components.

    Conserved in both complex frames; the two frames differ by the
    constant factor of the frame map's normalization.
    """
    require_line(state, "momentum_1d")
    total = np.zeros(state.grid.n_points)
    for row, drow in zip(state.fields, deriv1(state.fields, state.grid)):
        total = total + (row * np.conj(drow)).imag
    return float(quad(total, state.grid))


def hamiltonian_1d(state, model, m=1.0):
    """Conserved energy of the lab-frame system.

    Im int (u dbar(u)/dx - v dbar(v)/dx) + Re int (2 m u conj(v) - W).
    Needs a lab-frame state and a model with an on-shell potential.
    """
    require_line(state, "hamiltonian_1d", "lab_uv")
    u, v = state.fields
    w = model.potential(u, v)
    ux, vx = deriv1(state.fields, state.grid)
    integrand = ((u * np.conj(ux) - v * np.conj(vx)).imag
                 + (2.0 * m * u * np.conj(v) - w).real)
    return float(quad(integrand, state.grid))


def _soler_antiderivative(model):
    g = getattr(model, "g_coeffs", None)
    if g is None:
        raise ValueError(f"model {model.name!r} is not a Soler model")
    co = model.coupling

    def big_g(s):
        out = np.zeros_like(s)
        # antiderivative with G(0) = 0: sum g_k s^(k+1) / (k+1)
        for k in range(len(g), 0, -1):
            out = out * s + co * g[k - 1] / (k + 1)
        return out * s * s

    return big_g


def energy_psi(state, model, m=1.0):
    """Conserved energy in the psi frame for Soler models.

    Re int (conj(psi1) dpsi2/dx - conj(psi2) dpsi1/dx)
    + m int (|psi1|^2 - |psi2|^2) - int G(|psi1|^2 - |psi2|^2),
    with G the antiderivative of the model's scalar coefficient.
    """
    require_line(state, "energy_psi", "spinor_psi")
    big_g = _soler_antiderivative(model)
    p1, p2 = state.fields
    d1, d2 = deriv1(state.fields, state.grid)
    diff = np.abs(p1) ** 2 - np.abs(p2) ** 2
    integrand = ((np.conj(p1) * d2 - np.conj(p2) * d1).real
                 + m * diff - big_g(diff))
    return float(quad(integrand, state.grid))


class Region:
    """Spatial region, possibly time-dependent, for mass bookkeeping.

    Built from the spec a scenario file names it by, which it keeps
    verbatim as ``spec``. A spec holds no whitespace, and every number
    must read as a finite float and hold no ``_``, which float would
    take as a digit separator.

    specs
    -----
    log_window
        the shrinking-relative window |x| < |t|/ln^2|t|; defined for
        |t| >= 10 where ln^2 t > 1 comfortably.
    exterior:B
        |x| >= (1 + B) t, defined for t > 2; B > 0.
    ball:R
        |x| <= R (or r <= R on radial grids); R > 0.
    interval:LO:HI
        the time-independent interval LO <= x <= HI; LO < HI.
    """

    _FORMS = {"log_window": "log_window", "exterior": "exterior:B",
              "ball": "ball:R", "interval": "interval:LO:HI"}

    def __init__(self, spec):
        if any(ch.isspace() for ch in spec):
            raise ValueError(f"region {spec!r}: specs may not hold whitespace")
        kind, *args = spec.split(":")
        form = self._FORMS.get(kind)
        if form is None:
            raise ValueError(f"region {spec!r}: unknown kind; use "
                             f"{', '.join(self._FORMS.values())}")
        if len(args) != form.count(":"):
            raise ValueError(f"region {spec!r}: write it as {form}")
        if "_" in "".join(args):
            raise ValueError(f"region {spec!r}: numbers may not hold '_'")
        try:
            args = tuple(float(a) for a in args)
        except ValueError:
            raise ValueError(f"region {spec!r}: cannot read its numbers "
                             f"as float") from None
        if not np.isfinite(args).all():
            raise ValueError(f"region {spec!r}: numbers must be finite")
        if kind in ("exterior", "ball") and args[0] <= 0.0:
            raise ValueError(f"region {spec!r}: {form} needs "
                             f"{form[-1]} > 0")
        if kind == "interval" and not args[0] < args[1]:
            raise ValueError(f"region {spec!r}: {form} needs LO < HI")
        self.spec, self.kind, self.args = spec, kind, args

    def indicator(self, coords, t):
        """Boolean node mask at time t."""
        coords = np.asarray(coords)
        if self.kind == "log_window":
            at = abs(float(t))
            if at < 10.0:
                raise ValueError("log window is defined for |t| >= 10")
            return np.abs(coords) < log_window_width(at)
        if self.kind == "exterior":
            t = float(t)
            if t <= 2.0:
                raise ValueError("exterior region is defined for t > 2")
            return np.abs(coords) >= (1.0 + self.args[0]) * t
        if self.kind == "ball":
            return np.abs(coords) <= self.args[0]
        lo, hi = self.args
        return (coords >= lo) & (coords <= hi)

    def __str__(self):
        return self.spec

    def __repr__(self):
        return f"Region({self.spec!r})"


def region_mass(state, region):
    """Mass of the state inside the region at the state's time ``state.t``.

    Sharp node indicator against the grid's charge measure: line on 1D
    grids, spherical on radial grids.
    """
    grid = state.grid
    mask = region.indicator(grid.nodes, state.t)
    return float(quad(state.density() * mask, grid, grid.charge_measure))


def parity_defect(state):
    """How far the state is from being odd under x -> -x.

    max over components of max|f(x) + f(-x)| / (1 + max|f|); node
    reversal supplies f(-x), so the grid must be symmetric about 0.
    """
    require_line(state, "parity_defect")
    if not state.grid.is_symmetric():
        raise ValueError("parity_defect needs a grid symmetric about 0")
    worst = 0.0
    for row in state.fields:
        num = float(np.max(np.abs(row + row[::-1])))
        den = 1.0 + float(np.max(np.abs(row)))
        worst = max(worst, num / den)
    return worst
