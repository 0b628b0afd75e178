"""Closed-form reference solutions and the lab/psi change of frame.

The frame maps act on line states only, each from its one frame (see
:func:`diraclab.dynamics.require_line`). The spinor-frame image of the
lab ``thirring`` interaction is the catalog's ``thirring_psi``.
"""

import numpy as np

from .dynamics import SpinorState1D, require_line
from .grids import Grid1D

# Coupling constant at which the standing-wave profile below solves the
# current-current model exactly (fixed by matching the profile equation
# at the origin; confirmed against simulation residuals in the tests).
CALIBRATED_THIRRING_COUPLING = 2.0

# argument cutoff: cosh overflows float64 near 710, and the profile is
# far below underflow long before that
_ARG_CUTOFF = 350.0


def t_transform(u, v):
    """Lab pair -> psi pair: psi1 = i(v - u), psi2 = -(u + v)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return 1j * (v - u), -(u + v)


def inverse_t_transform(psi1, psi2):
    """Psi pair -> lab pair; exact inverse of :func:`t_transform`."""
    psi1 = np.asarray(psi1, dtype=complex)
    psi2 = np.asarray(psi2, dtype=complex)
    u = (1j * psi1 - psi2) / 2.0
    v = (-1j * psi1 - psi2) / 2.0
    return u, v


def to_spinor_frame(state):
    """SpinorState1D in the lab frame -> same instant in the psi frame."""
    require_line(state, "to_spinor_frame", "lab_uv")
    p1, p2 = t_transform(state.fields[0], state.fields[1])
    return SpinorState1D(state.grid, "spinor_psi", np.vstack([p1, p2]),
                         state.t)


def to_lab_frame(state):
    """SpinorState1D in the psi frame -> same instant in the lab frame."""
    require_line(state, "to_lab_frame", "spinor_psi")
    u, v = inverse_t_transform(state.fields[0], state.fields[1])
    return SpinorState1D(state.grid, "lab_uv", np.vstack([u, v]), state.t)


class SolitonParams:
    """Parameters of the standing wave: frequency, shift, phase, instant.

    omega must satisfy |omega| < 1 strictly; gamma = sqrt(1 - omega^2)
    is the spatial decay rate.
    """

    def __init__(self, omega, x0=0.0, alpha=0.0, t=0.0):
        omega = float(omega)
        if not abs(omega) < 1.0:
            raise ValueError(f"omega = {omega:g} is outside (-1, 1)")
        self.omega = omega
        self.x0 = float(x0)
        self.alpha = float(alpha)
        self.t = float(t)

    @property
    def gamma(self):
        return np.sqrt(1.0 - self.omega ** 2)

    def __repr__(self):
        return (f"SolitonParams(omega={self.omega!r}, x0={self.x0!r}, "
                f"alpha={self.alpha!r}, t={self.t!r})")


def soliton_profile(omega, x):
    """Complex standing-wave profile U on the given points.

    Rationalized form
        U(x) = gamma (A cosh(gamma x) - i B sinh(gamma x))
               / (cosh(2 gamma x) + omega),
    A = sqrt(1 + omega), B = sqrt(1 - omega), so that
    |U|^2 = gamma^2 / (cosh(2 gamma x) + omega).  Far-tail arguments are
    mapped to exact zeros instead of overflowing.
    """
    params = SolitonParams(omega)
    omega, gamma = params.omega, params.gamma
    a_co = np.sqrt(1.0 + omega)
    b_co = np.sqrt(1.0 - omega)
    arg = gamma * np.asarray(x, dtype=float)
    out = np.zeros(arg.shape, dtype=complex)
    mask = np.abs(arg) <= _ARG_CUTOFF
    am = arg[mask]
    denom = np.cosh(2.0 * am) + omega
    out[mask] = gamma * (a_co * np.cosh(am) - 1j * b_co * np.sinh(am)) / denom
    return out


def thirring_soliton(params, grid):
    """Exact standing wave of the current-current model, lab frame.

    u(t, x) = U(x + x0) e^{i(omega t + alpha)},  v = conj(U)(x + x0)
    times the same phase.  Solves the system with m = 1 and coupling
    CALIBRATED_THIRRING_COUPLING.
    """
    if not isinstance(grid, Grid1D):
        raise TypeError("thirring_soliton needs a Grid1D")
    prof = soliton_profile(params.omega, grid.x + params.x0)
    phase = np.exp(1j * (params.omega * params.t + params.alpha))
    fields = np.vstack([prof * phase, np.conj(prof) * phase])
    return SpinorState1D(grid, "lab_uv", fields, params.t)


def soliton_charge(omega):
    """Total charge of the standing wave, 2 arccos(omega)."""
    return 2.0 * np.arccos(SolitonParams(omega).omega)


def massless_free(u0_profile, v0_profile, t, grid):
    """Exact solution of the decoupled massless transport system.

    u rides right, v rides left: u(t, x) = u0(x - t), v(t, x) = v0(x + t).
    The profiles are callables evaluated off-grid, so any t is exact.
    Raises ValueError once either translate visibly reaches the edge
    nodes, since the evolved problem on the finite domain would differ
    there.
    """
    if not isinstance(grid, Grid1D):
        raise TypeError("massless_free needs a Grid1D")
    t = float(t)
    u = np.asarray(u0_profile(grid.x - t), dtype=complex)
    v = np.asarray(v0_profile(grid.x + t), dtype=complex)
    if u.shape != grid.x.shape or v.shape != grid.x.shape:
        raise ValueError("profiles must evaluate pointwise on the nodes")
    edge = max(float(np.max(np.abs(u[:8]) + np.abs(v[:8]))),
               float(np.max(np.abs(u[-8:]) + np.abs(v[-8:]))))
    bulk = float(np.max(np.abs(u)) + np.max(np.abs(v)))
    if bulk > 0.0 and edge > 1e-10 * bulk:
        raise ValueError(
            f"transported support reaches the domain edge at t = {t:g}")
    return SpinorState1D(grid, "lab_uv", np.vstack([u, v]), t)
