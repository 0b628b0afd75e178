"""Second-order reformulation of the two-component spinor system.

Eliminating one time derivative turns the first-order system into a
pair of wave equations with nonlinear source terms. This module
post-processes stored trajectories: it rebuilds the first-order
compatibility fields (which vanish identically on exact solutions)
and the two wave-equation residual lines, and tracks the Gronwall
quantity that certifies the equivalence of the two formulations.

All time derivatives come from the trajectory samples themselves
(centered first and second differences), never from extra right-hand
side evaluations, so the residuals test the stored data stream end to
end. The spatial operator is the same fourth-order difference the
evolution uses.
"""

import numpy as np

from .dynamics import SpinorState1D, Trajectory
from .grids import deriv1, quad
from .nonlinearity import check_harmonic

__all__ = [
    "BridgeResidual",
    "GronwallSeries",
    "bridge_residual",
    "gronwall_monitor",
    "chain_rule_dW",
]


class BridgeResidual:
    """Residuals of both formulations at one interior sample.

    u0 and v0 are the first-order compatibility fields; on an exact
    solution both vanish, so their size measures how well the sampled
    data solves the first-order system. nlkg_defect_1/2 are the max
    norms of the two second-order residual lines at the same instant.
    """

    def __init__(self, t, u0, v0, nlkg_defect_1, nlkg_defect_2):
        self.t = float(t)
        self.u0 = u0
        self.v0 = v0
        self.u0_max = float(np.max(np.abs(u0)))
        self.v0_max = float(np.max(np.abs(v0)))
        self.nlkg_defect_1 = float(nlkg_defect_1)
        self.nlkg_defect_2 = float(nlkg_defect_2)

    def to_dict(self):
        return {
            "t": self.t,
            "u0_max": self.u0_max,
            "v0_max": self.v0_max,
            "nlkg_defect_1": self.nlkg_defect_1,
            "nlkg_defect_2": self.nlkg_defect_2,
        }

    def __repr__(self):
        return (f"BridgeResidual(t={self.t:g}, u0_max={self.u0_max:.3e}, "
                f"v0_max={self.v0_max:.3e}, "
                f"nlkg=({self.nlkg_defect_1:.3e}, "
                f"{self.nlkg_defect_2:.3e}))")


class GronwallSeries:
    """Time series of M(t) = integral of |u0|^2 + |v0|^2.

    M starts at the discretization noise floor and the Gronwall
    inequality keeps it there; `ratio` holds |dM/dt|/M at the samples
    where M sits above `floor` (relative to its own maximum), which is
    where the quotient is meaningful.
    """

    def __init__(self, times, values, floor_rel=1e-12):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.floor = floor_rel * float(np.max(self.values, initial=0.0))
        if len(self.times) >= 3:
            dm = (self.values[2:] - self.values[:-2]) \
                / (self.times[2:] - self.times[:-2])
            mid = self.values[1:-1]
            mask = mid > self.floor
            self.ratio_times = self.times[1:-1][mask]
            self.ratio = np.abs(dm[mask]) / mid[mask]
        else:
            self.ratio_times = np.empty(0)
            self.ratio = np.empty(0)

    @property
    def m_first(self):
        return float(self.values[0])

    @property
    def m_max(self):
        return float(np.max(self.values))

    def to_dict(self):
        return {
            "times": self.times.tolist(),
            "M": self.values.tolist(),
            "ratio_times": self.ratio_times.tolist(),
            "ratio": self.ratio.tolist(),
            "m_first": self.m_first,
            "m_max": self.m_max,
        }

    def __repr__(self):
        return (f"GronwallSeries(n={len(self.times)}, "
                f"m_first={self.m_first:.3e}, m_max={self.m_max:.3e})")


def _require_psi_run(trajectory, who):
    dt_s = trajectory.sample_step(who)
    st = trajectory.states[0]
    if not isinstance(st, SpinorState1D) or st.kind != "spinor_psi":
        raise ValueError(
            f"{who} works on spinor-frame 1D trajectories; map frames first")
    return dt_s


def _require_harmonic(model, who):
    if model is None:
        raise ValueError(f"{who} needs the model the run was generated with")
    report = check_harmonic(model)
    if not report.ok:
        raise ValueError(
            f"{who}: model {model.name!r} fails the mixed-gradient "
            f"cancellation conditions (defect {report.worst_defect:.3e}); "
            "the second-order reformulation only closes when they hold")


def _residual_at(states, k, dt_s, model, m):
    grid = states[k].grid
    p1m, p2m = states[k - 1].fields
    p1, p2 = states[k].fields
    p1p, p2p = states[k + 1].fields

    dt_p1 = (p1p - p1m) / (2.0 * dt_s)
    dt_p2 = (p2p - p2m) / (2.0 * dt_s)
    w1, w2 = model.grad(p1, p2)

    u0 = dt_p1 + 1j * deriv1(p2, grid) + 1j * m * p1 - 1j * w1
    v0 = dt_p2 - 1j * deriv1(p1, grid) - 1j * m * p2 + 1j * w2

    dtt_p1 = (p1p - 2.0 * p1 + p1m) / dt_s ** 2
    dtt_p2 = (p2p - 2.0 * p2 + p2m) / dt_s ** 2
    w1m, w2m = model.grad(p1m, p2m)
    w1p, w2p = model.grad(p1p, p2p)
    dt_w1 = (w1p - w1m) / (2.0 * dt_s)
    dt_w2 = (w2p - w2m) / (2.0 * dt_s)

    # the squared transport operator, not a second-derivative stencil:
    # this is what the first-order evolution actually iterates
    dxx_p1 = deriv1(deriv1(p1, grid), grid)
    dxx_p2 = deriv1(deriv1(p2, grid), grid)

    line1 = dtt_p1 - dxx_p1 + m * m * p1 - m * w1 \
        + deriv1(w2, grid) - 1j * dt_w1
    line2 = dtt_p2 - dxx_p2 + m * m * p2 - m * w2 \
        + deriv1(w1, grid) + 1j * dt_w2
    return BridgeResidual(states[k].t, u0, v0,
                          np.max(np.abs(line1)), np.max(np.abs(line2)))


def bridge_residual(trajectory, k, model, m=1.0):
    """Both formulations' residuals at interior sample k.

    The model must satisfy the mixed-gradient cancellation conditions;
    anything else is refused because the second-order lines are only
    equivalent to the first-order system under them.
    """
    dt_s = _require_psi_run(trajectory, "bridge_residual")
    _require_harmonic(model, "bridge_residual")
    if not 1 <= k <= len(trajectory) - 2:
        raise IndexError(
            f"sample {k} has no two neighbours in 0..{len(trajectory) - 1}")
    return _residual_at(trajectory.states, k, dt_s, model, float(m))


def gronwall_monitor(trajectory, model, m=1.0):
    """M(t) = integral of |u0|^2 + |v0|^2 at every interior sample.

    On data generated by the first-order evolution M starts at the
    discretization noise floor and stays there; a genuine departure
    from the system (corrupted data, wrong model or mass) shows up as
    a jump of M above that floor.
    """
    dt_s = _require_psi_run(trajectory, "gronwall_monitor")
    _require_harmonic(model, "gronwall_monitor")
    m = float(m)
    states = trajectory.states
    grid = states[0].grid
    times, values = [], []
    for k in range(1, len(states) - 1):
        res = _residual_at(states, k, dt_s, model, m)
        dens = np.abs(res.u0) ** 2 + np.abs(res.v0) ** 2
        times.append(states[k].t)
        values.append(quad(dens, grid))
    return GronwallSeries(times, values)


def chain_rule_dW(trajectory, k, model, eps=1e-5):
    """Two routes to d/dt of the nonlinear terms at sample k.

    Returns (chain_w1, chain_w2, direct_w1, direct_w2). The chain route
    differentiates the four slots independently and contracts with the
    sampled time derivatives of the fields; the direct route is a
    centered difference of the evaluated terms. Agreement to second
    order in the sample spacing is a consistency check on the slot
    bookkeeping (conjugate slots move with their partners).
    """
    dt_s = _require_psi_run(trajectory, "chain_rule_dW")
    if not 1 <= k <= len(trajectory) - 2:
        raise IndexError(
            f"sample {k} has no two neighbours in 0..{len(trajectory) - 1}")
    states = trajectory.states
    p1m, p2m = states[k - 1].fields
    p1, p2 = states[k].fields
    p1p, p2p = states[k + 1].fields
    dt_p1 = (p1p - p1m) / (2.0 * dt_s)
    dt_p2 = (p2p - p2m) / (2.0 * dt_s)

    slots = [p1, np.conj(p1), p2, np.conj(p2)]
    rates = [dt_p1, np.conj(dt_p1), dt_p2, np.conj(dt_p2)]
    chain_w1 = np.zeros_like(p1)
    chain_w2 = np.zeros_like(p1)
    for j in range(4):
        bumped_p = list(slots)
        bumped_m = list(slots)
        bumped_p[j] = slots[j] + eps
        bumped_m[j] = slots[j] - eps
        w1p, w2p = model.eval_grad(*bumped_p)
        w1m, w2m = model.eval_grad(*bumped_m)
        chain_w1 = chain_w1 + (w1p - w1m) / (2.0 * eps) * rates[j]
        chain_w2 = chain_w2 + (w2p - w2m) / (2.0 * eps) * rates[j]

    w1m_t, w2m_t = model.grad(p1m, p2m)
    w1p_t, w2p_t = model.grad(p1p, p2p)
    direct_w1 = (w1p_t - w1m_t) / (2.0 * dt_s)
    direct_w2 = (w2p_t - w2m_t) / (2.0 * dt_s)
    return chain_w1, chain_w2, direct_w1, direct_w2
