"""Second-order reformulation of the two-component spinor system.

Eliminating one time derivative turns the first-order system into a
pair of wave equations with nonlinear source terms. This module
post-processes stored trajectories: at every interior sample it
rebuilds the first-order compatibility fields (which vanish
identically on exact solutions) and the two wave-equation residual
lines, and reports the Gronwall quantity M built from the former next
to the max norms of the latter.

All time derivatives come from the trajectory samples themselves
(centered first and second differences), never from extra right-hand
side evaluations, so the residuals test the stored data stream end to
end. The spatial operator is the same fourth-order difference the
evolution uses.
"""

import numpy as np

from .dynamics import require_line
from .grids import deriv1, quad
from .nonlinearity import check_harmonic

__all__ = ["GronwallSeries", "gronwall_monitor"]


class GronwallSeries:
    """Both formulations' residuals at every interior sample.

    ``values`` is M(t) = integral of |u0|^2 + |v0|^2, where u0 and v0
    are the first-order compatibility fields; M starts at the
    discretization noise floor and the Gronwall inequality keeps it
    there. ``nlkg_1`` and ``nlkg_2`` are the max norms of the two
    second-order residual lines at the same instants.
    """

    def __init__(self, times, values, nlkg_1, nlkg_2):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.nlkg_1 = np.asarray(nlkg_1, dtype=float)
        self.nlkg_2 = np.asarray(nlkg_2, dtype=float)

    @property
    def m_first(self):
        return float(self.values[0])

    @property
    def m_max(self):
        return float(np.max(self.values))


def _residuals_at(states, k, grads, dt_s, m):
    """(M, nlkg_1, nlkg_2) at interior sample k; ``grads`` holds the
    model's gradient (W1, W2) at samples k - 1, k and k + 1."""
    grid = states[k].grid
    p1m, p2m = states[k - 1].fields
    p1, p2 = states[k].fields
    p1p, p2p = states[k + 1].fields
    (w1m, w2m), (w1, w2), (w1p, w2p) = grads

    dt_p1 = (p1p - p1m) / (2.0 * dt_s)
    dt_p2 = (p2p - p2m) / (2.0 * dt_s)

    dx_p1, dx_p2 = dx_p = deriv1(states[k].fields, grid)
    u0 = dt_p1 + 1j * dx_p2 + 1j * m * p1 - 1j * w1
    v0 = dt_p2 - 1j * dx_p1 - 1j * m * p2 + 1j * w2

    dtt_p1 = (p1p - 2.0 * p1 + p1m) / dt_s ** 2
    dtt_p2 = (p2p - 2.0 * p2 + p2m) / dt_s ** 2
    dt_w1 = (w1p - w1m) / (2.0 * dt_s)
    dt_w2 = (w2p - w2m) / (2.0 * dt_s)

    # the squared transport operator, not a second-derivative stencil:
    # this is what the first-order evolution actually iterates
    dxx_p1, dxx_p2 = deriv1(dx_p, grid)

    line1 = dtt_p1 - dxx_p1 + m * m * p1 - m * w1 \
        + deriv1(w2, grid) - 1j * dt_w1
    line2 = dtt_p2 - dxx_p2 + m * m * p2 - m * w2 \
        + deriv1(w1, grid) + 1j * dt_w2
    dens = np.abs(u0) ** 2 + np.abs(v0) ** 2
    return (quad(dens, grid), np.max(np.abs(line1)),
            np.max(np.abs(line2)))


def gronwall_monitor(trajectory, model, m=1.0):
    """Residuals of both formulations at every interior sample.

    On data generated by the first-order evolution M starts at the
    discretization noise floor and stays there; a genuine departure
    from the system (corrupted data, wrong model or mass) shows up as
    a jump of M above that floor. The model must satisfy the
    mixed-gradient cancellation conditions; anything else is refused
    because the second-order lines are only equivalent to the
    first-order system under them.
    """
    dt_s = trajectory.sample_step("gronwall_monitor")
    require_line(trajectory.states[0], "gronwall_monitor", "spinor_psi")
    if model is None:
        raise ValueError("gronwall_monitor needs the model the run was "
                         "generated with")
    report = check_harmonic(model)
    if not report.ok:
        raise ValueError(
            f"gronwall_monitor: model {model.name!r} fails the "
            f"mixed-gradient cancellation conditions (defect "
            f"{report.defect:.3e}); the second-order reformulation "
            "only closes when they hold")
    m = float(m)
    states = trajectory.states
    interior = range(1, len(states) - 1)
    # each state's gradient is computed once and kept while the three
    # samples around it read it
    grads = [model.grad(*st.fields) for st in states[:2]]
    rows = []
    for k in interior:
        grads.append(model.grad(*states[k + 1].fields))
        rows.append(_residuals_at(states, k, grads, dt_s, m))
        del grads[0]
    values, nlkg_1, nlkg_2 = zip(*rows)
    return GronwallSeries([states[k].t for k in interior], values,
                          nlkg_1, nlkg_2)
