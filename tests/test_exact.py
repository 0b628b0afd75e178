import numpy as np
import pytest
from scipy.integrate import quad

from diraclab.dynamics import (_rhs_lab_arrays, _rhs_spinor_arrays,
                               integrate)
from diraclab.exact import (
    CALIBRATED_THIRRING_COUPLING,
    SolitonParams,
    inverse_t_transform,
    massless_free,
    soliton_charge,
    soliton_profile,
    t_transform,
    thirring_soliton,
    to_lab_frame,
    to_spinor_frame,
)
from diraclab.grids import Grid1D, RadialGrid
from diraclab.nonlinearity import (NonlinearityModel, sample_states,
                                   thirring, thirring_psi, zero_model)
from diraclab.observables import charge, hamiltonian_1d


def t_transform_model(model):
    """Psi-frame image of a lab-frame nonlinearity: the frame oracle.

    If (u, v) solves the lab system with gradient pair (W1, W2), then
    psi = T(u, v) solves the psi-frame system with
        hat W1 = i (W1 - W2) o T^{-1},   hat W2 = -(W1 + W2) o T^{-1}.
    The psi-frame equations carry the pair with opposite signs (-hat W1
    on the first line, +hat W2 on the second), so the image is not a
    joint conjugate-gradient pair and no potential is attached.
    """
    if model.arity != "lab_uv":
        raise ValueError("t_transform_model expects a lab_uv model")

    def slots(a, b, c, d):
        return ((1j * a - c) / 2.0, (-1j * b - d) / 2.0,
                (-1j * a - c) / 2.0, (1j * b - d) / 2.0)

    def grad(a, b, c, d):
        w1, w2 = model.eval_grad(*slots(a, b, c, d))
        return 1j * (w1 - w2), -(w1 + w2)

    return NonlinearityModel(f"t_image_{model.name}", "spinor_psi",
                             model.p, grad, None, model.coupling)


def test_soliton_params_validation():
    with pytest.raises(ValueError):
        SolitonParams(omega=1.0)
    with pytest.raises(ValueError):
        SolitonParams(omega=-1.2)
    for bad in ({"x0": np.nan}, {"alpha": np.inf}, {"t": -np.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            SolitonParams(0.5, **bad)
    assert SolitonParams(omega=0.5).gamma == pytest.approx(np.sqrt(0.75))


def test_soliton_charge_against_quadrature():
    # independent oracle: integrate 2|U|^2 directly, |U|^2 has the
    # rationalized closed form gamma^2 / (cosh(2 gamma x) + omega)
    for om in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.95):
        g2 = 1.0 - om ** 2
        cut = 60.0 / (2.0 * np.sqrt(g2))  # tail below machine epsilon
        val, err = quad(
            lambda x: 2.0 * g2 / (np.cosh(2.0 * np.sqrt(g2) * x) + om),
            -cut, cut, limit=200)
        closed = soliton_charge(om)
        assert err < 1e-6
        assert abs(val - closed) <= 1e-12 * closed


def test_soliton_profile_decays_to_exact_zero():
    # gamma = sqrt(3)/2 at omega = 0.5; the profile is flushed to zero
    # once gamma |x| passes the underflow guard, and stays finite before it
    x = np.array([-5000.0, -450.0, 450.0, 5000.0])
    vals = soliton_profile(0.5, x)
    assert np.all(vals == 0.0)
    near = soliton_profile(0.5, np.array([-400.0, 400.0]))
    assert np.all(np.isfinite(near)) and np.all(near != 0.0)
    assert np.all(np.isfinite(soliton_profile(0.999, np.linspace(-50, 50, 11))))


def test_coupling_calibration_argmin():
    # the standing wave solves the system only at one coupling; sweeping
    # the prefactor and measuring the stationarity residual must pick it out
    grid = Grid1D(-40.0, 40.0, 1601)
    par = SolitonParams(0.5)
    st = thirring_soliton(par, grid)
    dudt = 1j * par.omega * st.fields
    interior = slice(8, -8)
    residuals = {}
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        r = _rhs_lab_arrays(st.fields, grid, thirring(coupling=c), 1.0) - dudt
        residuals[c] = float(np.max(np.abs(r[:, interior])))
    best = min(residuals, key=residuals.get)
    assert best == CALIBRATED_THIRRING_COUPLING == 2.0
    assert residuals[2.0] <= 1e-4
    for c, res in residuals.items():
        if c != 2.0:
            assert res >= 0.1


def test_soliton_residual_fourth_order_in_h():
    par = SolitonParams(0.5)
    model = thirring(coupling=CALIBRATED_THIRRING_COUPLING)
    res = {}
    for h in (0.1, 0.05, 0.025):
        n = int(round(80.0 / h)) + 1
        g = Grid1D(-40.0, 40.0, n)
        s = thirring_soliton(par, g)
        r = (_rhs_lab_arrays(s.fields, g, model, 1.0)
             - 1j * par.omega * s.fields)
        res[h] = float(np.max(np.abs(r[:, 8:-8])))
        assert res[h] <= 10.0 * h ** 4 * np.max(np.abs(s.fields))
    order = np.log2(res[0.1] / res[0.05])
    assert order >= 3.5


def test_soliton_period_return():
    # omega = 0.5 gives phase period 4 pi; after one period the state must
    # return to itself up to accumulated scheme error
    par = SolitonParams(0.5)
    model = thirring(coupling=2.0)
    T = 4.0 * np.pi
    g = Grid1D(-40.0, 40.0, 1601)
    s0 = thirring_soliton(par, g)
    traj = integrate(s0, model, t_end=T, dt=T / 640.0, m=1.0,
                     sample_stride=64)
    d = traj.states[-1].fields - s0.fields
    l2 = np.sqrt(float(np.sum(np.abs(d) ** 2)) * g.h)
    assert l2 <= 1e-4
    q0, qT = charge(s0), charge(traj.states[-1])
    assert abs(qT - q0) / q0 <= 1e-9
    h0 = hamiltonian_1d(s0, model)
    hT = hamiltonian_1d(traj.states[-1], model)
    assert abs(hT - h0) <= 1e-9
    assert q0 == pytest.approx(soliton_charge(0.5), rel=1e-6)


def test_soliton_phase_offsets():
    g = Grid1D(-30.0, 30.0, 601)
    base = thirring_soliton(SolitonParams(0.3), g)
    shifted = thirring_soliton(SolitonParams(0.3, x0=2.0, alpha=0.7, t=1.5), g)
    phase = np.exp(1j * (0.3 * 1.5 + 0.7))
    prof = soliton_profile(0.3, g.x + 2.0)
    assert np.allclose(shifted.u, prof * phase, atol=1e-15)
    assert np.allclose(shifted.v, np.conj(prof) * phase, atol=1e-15)
    assert shifted.t == 1.5
    assert np.allclose(np.abs(base.u), np.abs(base.v))


def test_frame_map_round_trip_and_charge_factor():
    rng = np.random.default_rng(7)
    n = 257
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    p1, p2 = t_transform(u, v)
    ub, vb = inverse_t_transform(p1, p2)
    assert np.max(np.abs(ub - u)) <= 1e-14
    assert np.max(np.abs(vb - v)) <= 1e-14
    # the map scales the pointwise amplitude by sqrt(2)
    ratio = np.sum(np.abs(p1) ** 2 + np.abs(p2) ** 2) \
        / np.sum(np.abs(u) ** 2 + np.abs(v) ** 2)
    assert ratio == pytest.approx(2.0, rel=1e-14)


def test_frame_map_state_round_trip():
    g = Grid1D(-30.0, 30.0, 1201)
    s0 = thirring_soliton(SolitonParams(0.3), g)
    sp = to_spinor_frame(s0)
    assert sp.kind == "spinor_psi"
    assert charge(sp) == pytest.approx(2.0 * charge(s0), rel=1e-14)
    back = to_lab_frame(sp)
    assert np.max(np.abs(back.fields - s0.fields)) <= 1e-14
    assert back.t == s0.t


def test_transformed_model_matches_instantaneously():
    # commuting square, one corner: applying the frame map to the lab-frame
    # time derivative must equal the image model's spinor-frame derivative
    g = Grid1D(-30.0, 30.0, 1201)
    s0 = thirring_soliton(SolitonParams(0.3), g)
    lab = thirring(coupling=2.0)
    hat = t_transform_model(lab)
    assert hat.arity == "spinor_psi"
    assert hat.eval_W is None
    r_lab = _rhs_lab_arrays(s0.fields, g, lab, 1.0)
    r_mapped = np.vstack([1j * (r_lab[1] - r_lab[0]), -(r_lab[0] + r_lab[1])])
    r_psi = _rhs_spinor_arrays(to_spinor_frame(s0).fields, g, hat, 1.0)
    assert np.max(np.abs(r_mapped - r_psi)) <= 1e-13


def test_transformed_model_matches_along_trajectory():
    # commuting square, full time horizon: evolve in each frame separately
    g = Grid1D(-30.0, 30.0, 1201)
    s0 = thirring_soliton(SolitonParams(0.3), g)
    lab = thirring(coupling=2.0)
    hat = t_transform_model(lab)
    tr_lab = integrate(s0, lab, t_end=2.0, dt=0.02, m=1.0, sample_stride=100)
    tr_psi = integrate(to_spinor_frame(s0), hat, t_end=2.0, dt=0.02, m=1.0,
                       sample_stride=100)
    end_lab = to_spinor_frame(tr_lab.states[-1])
    assert np.max(np.abs(end_lab.fields - tr_psi.states[-1].fields)) <= 1e-12


@pytest.mark.parametrize("coupling", [1.0, 2.0])
def test_thirring_psi_is_the_image_of_thirring(coupling):
    z1, z2 = sample_states(200, 3)
    want = t_transform_model(thirring(coupling)).grad(z1, z2)
    got = thirring_psi(coupling).grad(z1, z2)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * coupling
    assert thirring_psi(coupling).eval_W is None


def test_transformed_model_rejects_wrong_arity():
    from diraclab.nonlinearity import soler
    with pytest.raises(ValueError):
        t_transform_model(soler(g_coeffs=(1.0,), coupling=1.0))


def _gauss_u(x):
    return np.exp(-((x + 6.0) / 2.5) ** 2)


def _gauss_v(x):
    return 0.8 * np.exp(-((x - 6.0) / 3.0) ** 2) * (1.0 + 0.2j)


def test_massless_free_stream_matches_integrator():
    # m = 0, W = 0 decouples the system into counter-propagating transports
    g = Grid1D(-60.0, 60.0, 2401)
    s0 = massless_free(_gauss_u, _gauss_v, 0.0, g)
    traj = integrate(s0, zero_model(arity="lab_uv"), t_end=5.0, dt=0.02,
                     m=0.0, sample_stride=250)
    ex = massless_free(_gauss_u, _gauss_v, 5.0, g)
    diff = traj.states[-1].fields - ex.fields
    l2 = np.sqrt(float(np.sum(np.abs(diff) ** 2)) * g.h)
    assert l2 <= 1e-6


def test_massless_free_stream_scheme_order():
    errs = {}
    for h, dt in ((0.1, 0.04), (0.05, 0.02)):
        n = int(round(120.0 / h)) + 1
        g = Grid1D(-60.0, 60.0, n)
        s0 = massless_free(_gauss_u, _gauss_v, 0.0, g)
        tr = integrate(s0, zero_model(arity="lab_uv"), t_end=5.0, dt=dt,
                       m=0.0, sample_stride=int(round(5.0 / dt)))
        ex = massless_free(_gauss_u, _gauss_v, 5.0, g)
        diff = tr.states[-1].fields - ex.fields
        errs[h] = np.sqrt(float(np.sum(np.abs(diff) ** 2)) * g.h)
    assert np.log2(errs[0.1] / errs[0.05]) >= 3.5


def test_massless_free_rejects_support_outside_grid():
    g = Grid1D(-20.0, 20.0, 801)
    with pytest.raises(ValueError):
        massless_free(_gauss_u, _gauss_v, 16.0, g)


def test_exact_states_refuse_a_radial_grid_and_a_scalar_profile():
    rg = RadialGrid(10.0, 100)
    with pytest.raises(TypeError, match="^thirring_soliton needs a Grid1D$"):
        thirring_soliton(SolitonParams(0.5), rg)
    with pytest.raises(TypeError, match="^massless_free needs a Grid1D$"):
        massless_free(_gauss_u, _gauss_v, 0.0, rg)
    with pytest.raises(ValueError, match="^profiles must evaluate "
                       "pointwise on the nodes$"):
        massless_free(lambda x: 1.0, _gauss_v, 0.0, Grid1D(-5.0, 5.0, 64))
