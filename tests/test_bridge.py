import numpy as np
import pytest

from diraclab import nonlinearity
from diraclab.bridge import GronwallSeries, gronwall_monitor
from diraclab.dynamics import SpinorState1D, Trajectory, integrate
from diraclab.grids import Grid1D, deriv1, quad

G = Grid1D(-40.0, 40.0, 1601)


def psi_state(amp=0.15):
    p1 = amp * np.exp(-(G.x + 3.0) ** 2 / 4.0) * (1.0 + 0.3j)
    p2 = amp * 0.6 * np.exp(-(G.x - 2.0) ** 2 / 5.0) * (0.5 - 0.8j)
    return SpinorState1D(G, "spinor_psi", np.vstack([p1, p2]))


def substride(tr, step):
    return Trajectory(tr.times[::step], tr.states[::step],
                      tr.boundary_mass[::step], tr.max_abs[::step])


@pytest.fixture(scope="module")
def quartic_traj():
    return integrate(psi_state(), nonlinearity.quartic_harmonic(),
                     t_end=10.0, dt=0.01, m=1.0, sample_stride=2)


@pytest.fixture(scope="module")
def quartic_series(quartic_traj):
    return gronwall_monitor(quartic_traj, nonlinearity.quartic_harmonic(),
                            m=1.0)


def test_residuals_sit_at_time_sampling_floor(quartic_series):
    # interior sample 250 is series index 249; dt_s = 0.02 and the
    # floor is quadratic in it
    assert quartic_series.values[249] <= 1e-8
    assert quartic_series.nlkg_1[249] <= 5e-5
    assert quartic_series.nlkg_2[249] <= 5e-5


def test_residual_order_in_sample_spacing(quartic_traj):
    model = nonlinearity.quartic_harmonic()
    m_vals, nlkg_1, nlkg_2 = {}, {}, {}
    for step, k in [(8, 30), (4, 60), (2, 120)]:  # all at t = 4.8
        series = gronwall_monitor(substride(quartic_traj, step), model,
                                  m=1.0)
        assert series.times[k - 1] == pytest.approx(4.8)
        m_vals[step] = series.values[k - 1]
        nlkg_1[step] = series.nlkg_1[k - 1]
        nlkg_2[step] = series.nlkg_2[k - 1]
    for nlkg in (nlkg_1, nlkg_2):
        assert np.log2(nlkg[8] / nlkg[4]) >= 1.8
        assert np.log2(nlkg[4] / nlkg[2]) >= 1.8
    # M is quadratic in the compatibility fields, so twice their order
    assert np.log2(m_vals[8] / m_vals[4]) >= 3.6
    assert np.log2(m_vals[4] / m_vals[2]) >= 3.6


def test_gronwall_quantity_stays_at_floor(quartic_series):
    gw = quartic_series
    assert gw.m_max <= 10.0 * gw.m_first
    assert gw.m_max <= 1e-8
    assert gw.times[0] == pytest.approx(0.02)
    assert gw.times[-1] == pytest.approx(9.98)


def test_corrupted_sample_is_detected(quartic_traj, quartic_series):
    model = nonlinearity.quartic_harmonic()
    states = [SpinorState1D(G, "spinor_psi", st.fields.copy(), t=st.t)
              for st in quartic_traj.states]
    states[250].fields[0] += 1e-3 * np.exp(-G.x ** 2 / 4.0)
    tr = Trajectory(quartic_traj.times, states,
                    quartic_traj.boundary_mass, quartic_traj.max_abs)
    corrupted = gronwall_monitor(tr, model, m=1.0)
    jump = np.max(np.abs(corrupted.values - quartic_series.values))
    assert jump >= 1e-6


def test_zero_trajectory_gives_exact_zeros():
    model = nonlinearity.quartic_harmonic()
    states = [SpinorState1D(G, "spinor_psi",
                            np.zeros((2, G.n_points), dtype=complex), t=t)
              for t in (0.0, 0.1, 0.2)]
    tr = Trajectory([0.0, 0.1, 0.2], states, [0.0] * 3, [0.0] * 3)
    gw = gronwall_monitor(tr, model, m=1.0)
    for arr in (gw.values, gw.nlkg_1, gw.nlkg_2):
        assert arr.shape == (1,)
        assert np.all(arr == 0.0)


def test_non_harmonic_models_are_refused(quartic_traj):
    for bad in (nonlinearity.soler(), nonlinearity.thirring_psi()):
        with pytest.raises(ValueError, match="mixed-gradient"):
            gronwall_monitor(quartic_traj, bad, m=1.0)
        with pytest.raises(ValueError, match="defect"):
            gronwall_monitor(quartic_traj, bad, m=1.0)


def test_linear_run_floor():
    model = nonlinearity.zero_model("spinor_psi")
    tr = integrate(psi_state(), model, t_end=4.0, dt=0.01, m=1.0,
                   sample_stride=2)
    gw = gronwall_monitor(tr, model, m=1.0)
    assert gw.values[99] <= 1e-8
    assert gw.nlkg_1[99] <= 5e-5
    assert gw.nlkg_2[99] <= 5e-5
    assert gw.m_max <= 10.0 * gw.m_first


def test_bridge_input_validation(quartic_traj):
    model = nonlinearity.quartic_harmonic()
    with pytest.raises(ValueError, match="model"):
        gronwall_monitor(quartic_traj, None, m=1.0)
    u = np.exp(-G.x ** 2).astype(complex)
    lab_states = [SpinorState1D(G, "lab_uv", np.vstack([u, u]), t=t)
                  for t in (0.0, 0.1, 0.2)]
    lab_tr = Trajectory([0.0, 0.1, 0.2], lab_states, [0.0] * 3, [0.0] * 3)
    with pytest.raises(ValueError, match="spinor frame"):
        gronwall_monitor(lab_tr, model, m=1.0)
    sts = [psi_state() for _ in range(3)]
    uneven = Trajectory([0.0, 0.1, 0.3], sts, [0.0] * 3, [0.0] * 3)
    with pytest.raises(ValueError, match="uniformly"):
        gronwall_monitor(uneven, model, m=1.0)


def test_residual_report_plumbing(quartic_traj, quartic_series):
    gw = quartic_series
    assert isinstance(gw, GronwallSeries)
    n = len(quartic_traj) - 2
    for arr in (gw.times, gw.values, gw.nlkg_1, gw.nlkg_2):
        assert arr.shape == (n,)
    assert gw.times[249] == pytest.approx(5.0)
    assert gw.m_first == gw.values[0]
    assert gw.m_max == np.max(gw.values)
    assert np.all(gw.nlkg_1 > 0.0) and np.all(gw.nlkg_2 > 0.0)


def reference_residuals_at(states, k, dt_s, model, m):
    """(M, nlkg_1, nlkg_2) at interior sample k, each neighbour's
    gradient evaluated afresh: the formula gronwall_monitor must
    reproduce bit for bit."""
    grid = states[k].grid
    p1m, p2m = states[k - 1].fields
    p1, p2 = states[k].fields
    p1p, p2p = states[k + 1].fields
    dt_p1 = (p1p - p1m) / (2.0 * dt_s)
    dt_p2 = (p2p - p2m) / (2.0 * dt_s)
    w1, w2 = model.grad(p1, p2)
    dx_p1, dx_p2 = dx_p = deriv1(states[k].fields, grid)
    u0 = dt_p1 + 1j * dx_p2 + 1j * m * p1 - 1j * w1
    v0 = dt_p2 - 1j * dx_p1 - 1j * m * p2 + 1j * w2
    dtt_p1 = (p1p - 2.0 * p1 + p1m) / dt_s ** 2
    dtt_p2 = (p2p - 2.0 * p2 + p2m) / dt_s ** 2
    w1m, w2m = model.grad(p1m, p2m)
    w1p, w2p = model.grad(p1p, p2p)
    dt_w1 = (w1p - w1m) / (2.0 * dt_s)
    dt_w2 = (w2p - w2m) / (2.0 * dt_s)
    dxx_p1, dxx_p2 = deriv1(dx_p, grid)
    line1 = dtt_p1 - dxx_p1 + m * m * p1 - m * w1 \
        + deriv1(w2, grid) - 1j * dt_w1
    line2 = dtt_p2 - dxx_p2 + m * m * p2 - m * w2 \
        + deriv1(w1, grid) + 1j * dt_w2
    dens = np.abs(u0) ** 2 + np.abs(v0) ** 2
    return (quad(dens, grid), np.max(np.abs(line1)),
            np.max(np.abs(line2)))


def test_one_gradient_per_state_and_the_reference_bits(quartic_traj,
                                                       monkeypatch):
    tr = substride(quartic_traj, 10)
    model = nonlinearity.quartic_harmonic()
    dt_s = tr.sample_step("test")
    interior = range(1, len(tr) - 1)
    rows = [reference_residuals_at(tr.states, k, dt_s, model, 1.0)
            for k in interior]
    values, nlkg_1, nlkg_2 = (np.array(col) for col in zip(*rows))

    grad = nonlinearity.NonlinearityModel.grad
    calls = []

    def counting_grad(self, z1, z2):
        calls.append(self.name)
        return grad(self, z1, z2)

    monkeypatch.setattr(nonlinearity.NonlinearityModel, "grad", counting_grad)
    gw = gronwall_monitor(tr, model, m=1.0)
    assert len(tr) == 51
    assert len(calls) == len(tr)
    assert gw.times.tobytes() == tr.times[1:-1].tobytes()
    assert gw.values.tobytes() == values.tobytes()
    assert gw.nlkg_1.tobytes() == nlkg_1.tobytes()
    assert gw.nlkg_2.tobytes() == nlkg_2.tobytes()
