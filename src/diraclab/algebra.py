"""The Dirac matrices (alpha, beta) of each stepped system, read off the
kernel that :func:`diraclab.dynamics.integrate` steps it with, and the
exact check of the algebra the virial identities rest on.
"""

import numpy as np

from . import dynamics
from .dynamics import SYSTEMS
from .exact import t_transform
from .grids import Grid1D, RadialGrid
from .nonlinearity import zero_model

__all__ = ["SYSTEMS", "kernel_matrices", "check_clifford",
           "ValidationReport"]

_PROBE_NODE = 20


def _zero_state(system):
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; known: "
                         f"{', '.join(SYSTEMS)}")
    if system == "radial_3d":
        return dynamics.RadialSpinorState(RadialGrid(16.0, 32),
                                          np.zeros((4, 32)))
    return dynamics.SpinorState1D(Grid1D(-8.0, 8.0, 33), SYSTEMS[system],
                                  np.zeros((2, 33)))


def kernel_matrices(system):
    """The pair (alpha, beta), complex 2x2, of the kernel that
    ``dynamics._select_rhs`` picks for ``system`` (one of ``SYSTEMS``):
    d/dt Psi = -alpha Psi_x - i m beta Psi - i W, read at node k = 20 of
    a zero state's grid under the zero model.

    Column c of alpha is minus the kernel on the ramp (x - x_k) e_c at
    m = 0, which the stencil differentiates exactly on these grids of
    spacing 1/2; column c of -i beta is the kernel on e_c at m = 1 less
    that at m = 0. The radial 2 p / r term vanishes with the ramp at x_k
    and cancels in the difference; the origin rows are not probed. So
    every entry is an exact integer. Each of the radial kernel's four
    real rows is probed, and the pair is the complex-linear part of that
    real map, so a sign wrong in any row shows in it.
    """
    state = _zero_state(system)
    grid, k = state.grid, _PROBE_NODE
    model = zero_model(state.kind)
    rhs = dynamics._select_rhs(state, model)
    alpha = np.empty((len(state.fields),) * 2, state.fields.dtype)
    mass = np.empty_like(alpha)
    for c in range(len(alpha)):
        e = np.zeros_like(state.fields)
        e[c] = grid.nodes - grid.nodes[k]
        alpha[:, c] = -rhs(e, grid, model, 0.0)[:, k]
        e[c] = 1.0
        mass[:, c] = (rhs(e, grid, model, 1.0)[:, k]
                      - rhs(e, grid, model, 0.0)[:, k])
    if system == "radial_3d":
        alpha, mass = _complex_linear_part(alpha), _complex_linear_part(mass)
    return alpha + 0.0, 1j * mass + 0.0  # + 0.0 turns -0.0 into +0.0


def _complex_linear_part(a):
    # (L e_c - i L(i e_c)) / 2 of L on the rows (Re z1, Im z1, Re z2, Im z2)
    z = a[0::2] + 1j * a[1::2]
    return (z[:, 0::2] - 1j * z[:, 1::2]) / 2.0


class ValidationReport:
    """Per-relation defect table; passes iff the worst defect is 0.0 exactly."""

    def __init__(self, system, relations):
        self.system = system
        self.relations = relations  # list of (name, defect)

    @property
    def max_defect(self):
        return max(d for _, d in self.relations) if self.relations else 0.0

    @property
    def passed(self):
        return self.max_defect == 0.0

    def lines(self):
        return [f"{'pass' if defect == 0.0 else 'FAIL'}  "
                f"defect={defect:.3e}  {name}"
                for name, defect in self.relations]


def _maxabs(m):
    return float(np.max(np.abs(m)))


def check_clifford(system):
    """The relations of the pair :func:`kernel_matrices` reads, complex
    and split alpha = a_r + i a_i; for "lab_1d" also that the change of
    frame T of :func:`~diraclab.exact.t_transform` carries the lab pair
    to the "spinor_1d" kernel's. A correct kernel has defect exactly 0.
    """
    alpha, beta = kernel_matrices(system)
    eye = np.eye(len(beta))
    a_r, a_i = alpha.real, alpha.imag
    rel = [
        ("alpha^2 = I", _maxabs(alpha @ alpha - eye)),
        ("beta^2 = I", _maxabs(beta @ beta - eye)),
        ("alpha beta + beta alpha = 0", _maxabs(alpha @ beta + beta @ alpha)),
        ("alpha^dagger = alpha", _maxabs(alpha.conj().T - alpha)),
        ("a_r^2 - a_i^2 = I", _maxabs(a_r @ a_r - a_i @ a_i - eye)),
        ("a_r a_i + a_i a_r = 0", _maxabs(a_r @ a_i + a_i @ a_r)),
        ("a_r^T = a_r", _maxabs(a_r.T - a_r)),
        ("a_i^T = -a_i", _maxabs(a_i.T + a_i)),
    ]
    if system == "lab_1d":
        t = np.array(t_transform(*np.eye(2)))
        alpha_psi, beta_psi = kernel_matrices("spinor_1d")
        rel += [("T alpha_lab = alpha_psi T",
                 _maxabs(t @ alpha - alpha_psi @ t)),
                ("T beta_lab = beta_psi T", _maxabs(t @ beta - beta_psi @ t))]
    return ValidationReport(system, rel)
