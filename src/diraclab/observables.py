"""Conserved quantities, region masses, and symmetry diagnostics."""

import numpy as np

from .dynamics import RadialSpinorState, SpinorState1D
from .grids import Grid1D, RadialGrid, deriv1, quad


def charge(state, measure=None):
    """Total squared norm of the state.

    1D states use the line measure.  Radial states default to the
    spherical measure (the physically conserved one); pass
    measure="line" for the plain-dr bookkeeping integral.
    """
    if measure is None:
        measure = "spherical" if isinstance(state, RadialSpinorState) else "line"
    return float(quad(state.density(), state.grid, measure))


def momentum_1d(state):
    """Im of the integrated pair f dbar(f)/dx, summed over components.

    Conserved in both complex frames; the two frames differ by the
    constant factor of the frame map's normalization.
    """
    if not isinstance(state, SpinorState1D):
        raise TypeError("momentum_1d needs a SpinorState1D")
    total = np.zeros(state.grid.n_points)
    for row, drow in zip(state.fields, deriv1(state.fields, state.grid)):
        total = total + (row * np.conj(drow)).imag
    return float(quad(total, state.grid))


def hamiltonian_1d(state, model, m=1.0):
    """Conserved energy of the lab-frame system.

    Im int (u dbar(u)/dx - v dbar(v)/dx) + Re int (2 m u conj(v) - W).
    Needs a lab-frame state and a model with an on-shell potential.
    """
    if not isinstance(state, SpinorState1D) or state.kind != "lab_uv":
        raise ValueError("hamiltonian_1d needs a lab-frame state")
    if model.eval_W is None:
        raise ValueError(f"model {model.name!r} has no potential")
    u, v = state.fields
    ux, vx = deriv1(state.fields, state.grid)
    w = model.potential(u, v)
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
    if not isinstance(state, SpinorState1D) or state.kind == "lab_uv":
        raise ValueError("energy_psi needs a psi-frame state")
    big_g = _soler_antiderivative(model)
    p1, p2 = state.fields
    d1, d2 = deriv1(state.fields, state.grid)
    diff = np.abs(p1) ** 2 - np.abs(p2) ** 2
    integrand = ((np.conj(p1) * d2 - np.conj(p2) * d1).real
                 + m * diff - big_g(diff))
    return float(quad(integrand, state.grid))


_REGION_KINDS = ("interval_log_window", "exterior_box", "ball",
                 "fixed_interval")


class Region:
    """Spatial region, possibly time-dependent, for mass bookkeeping.

    kinds
    -----
    interval_log_window
        the shrinking-relative window (-|t|/ln^2|t|, |t|/ln^2|t|);
        defined for |t| >= 10 where ln^2 t > 1 comfortably.
    exterior_box(b)
        |x| >= (1 + b) t, defined for t > 2; b > 0.
    ball(radius)
        |x| <= radius (or r <= radius on radial grids).
    fixed_interval(lo, hi)
        time-independent interval.
    """

    def __init__(self, kind, **params):
        if kind not in _REGION_KINDS:
            raise ValueError(f"unknown region kind {kind!r}")
        self.kind = kind
        if kind == "exterior_box":
            b = float(params.pop("b"))
            if b <= 0.0:
                raise ValueError("exterior_box needs b > 0")
            self.b = b
        elif kind == "ball":
            radius = float(params.pop("radius"))
            if radius <= 0.0:
                raise ValueError("ball needs radius > 0")
            self.radius = radius
        elif kind == "fixed_interval":
            lo = float(params.pop("lo"))
            hi = float(params.pop("hi"))
            if not lo < hi:
                raise ValueError("fixed_interval needs lo < hi")
            self.lo, self.hi = lo, hi
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")

    def indicator(self, coords, t):
        """Boolean node mask at time t."""
        coords = np.asarray(coords)
        if self.kind == "interval_log_window":
            at = abs(float(t))
            if at < 10.0:
                raise ValueError("log window is defined for |t| >= 10")
            w = at / np.log(at) ** 2
            return np.abs(coords) < w
        if self.kind == "exterior_box":
            t = float(t)
            if t <= 2.0:
                raise ValueError("exterior_box is defined for t > 2")
            return np.abs(coords) >= (1.0 + self.b) * t
        if self.kind == "ball":
            return np.abs(coords) <= self.radius
        return (coords >= self.lo) & (coords <= self.hi)

    def __repr__(self):
        extra = {"exterior_box": lambda: f", b={self.b:g}",
                 "ball": lambda: f", radius={self.radius:g}",
                 "fixed_interval": lambda: f", [{self.lo:g},{self.hi:g}]"}
        return f"Region({self.kind}{extra.get(self.kind, lambda: '')()})"


def region_mass(state, region, t=None):
    """Mass of the state inside the region at time t (default state.t).

    Sharp node indicator against the grid's natural measure: line on
    1D grids, spherical on radial grids.
    """
    if t is None:
        t = state.t
    grid = state.grid
    if isinstance(grid, RadialGrid):
        mask = region.indicator(grid.r, t)
        measure = "spherical"
    else:
        mask = region.indicator(grid.x, t)
        measure = "line"
    return float(quad(state.density() * mask, grid, measure))


def parity_defect(state):
    """How far the state is from being odd under x -> -x.

    max over components of max|f(x) + f(-x)| / (1 + max|f|); node
    reversal supplies f(-x), so the grid must be symmetric about 0.
    """
    if not isinstance(state, SpinorState1D):
        raise TypeError("parity_defect needs a SpinorState1D")
    if not state.grid.is_symmetric():
        raise ValueError("parity_defect needs a grid symmetric about 0")
    worst = 0.0
    for row in state.fields:
        num = float(np.max(np.abs(row + row[::-1])))
        den = 1.0 + float(np.max(np.abs(row)))
        worst = max(worst, num / den)
    return worst
