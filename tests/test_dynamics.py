import numpy as np
import pytest

from diraclab.dynamics import (
    RadialSpinorState,
    SpinorState1D,
    Trajectory,
    _rhs_real4_arrays,
    integrate,
    rhs_lab,
    rhs_radial,
    rhs_spinor,
)
from diraclab.exact import SolitonParams, thirring_soliton
from diraclab.grids import Grid1D, RadialGrid
from diraclab.nonlinearity import soler, thirring, thirring_psi, zero_model
from diraclab.observables import charge, hamiltonian_1d, parity_defect


def _smooth_pair(grid, seed=3, width=18.0):
    rng = np.random.default_rng(seed)
    env = np.exp(-grid.x ** 2 / width)
    rows = []
    for _ in range(2):
        a, b, c = rng.normal(size=3)
        rows.append(env * (np.cos(a * grid.x + b) + 1j * np.sin(c * grid.x)))
    return np.vstack(rows)


def test_state_kind_and_shape_validation():
    g = Grid1D(-10.0, 10.0, 401)
    with pytest.raises(ValueError):
        SpinorState1D(g, "no_such_kind", np.zeros((2, g.n_points), complex))
    with pytest.raises(ValueError):
        SpinorState1D(g, "lab_uv", np.zeros((3, g.n_points), complex))
    with pytest.raises(ValueError):
        SpinorState1D(g, "real4", np.zeros((2, g.n_points)))


def test_rhs_complex_vs_real_split_agree():
    g = Grid1D(-30.0, 30.0, 1201)
    sp = SpinorState1D(g, "spinor_psi", _smooth_pair(g))
    model = soler(g_coeffs=(1.0,), coupling=1.0)
    rc = rhs_spinor(sp, model, m=1.0)
    p1, p2 = sp.fields
    real4 = np.vstack([p1.real, p1.imag, p2.real, p2.imag])
    rr = _rhs_real4_arrays(real4, g, model, 1.0)
    rc_split = np.vstack([rc[0].real, rc[0].imag, rc[1].real, rc[1].imag])
    assert np.max(np.abs(rc_split - rr)) <= 1e-14


def test_rhs_arity_mismatch_rejected():
    g = Grid1D(-10.0, 10.0, 401)
    sp = SpinorState1D(g, "spinor_psi", _smooth_pair(g))
    lab = thirring(coupling=2.0)
    with pytest.raises(ValueError):
        rhs_spinor(sp, lab, m=1.0)
    s_lab = SpinorState1D(g, "lab_uv", _smooth_pair(g))
    with pytest.raises(ValueError):
        rhs_lab(s_lab, thirring_psi(coupling=1.0), m=1.0)


def test_integrate_step_validation():
    g = Grid1D(-10.0, 10.0, 401)  # h = 0.05
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    model = soler(g_coeffs=(1.0,), coupling=1.0)
    with pytest.raises(ValueError):
        integrate(s0, model, t_end=1.0, dt=0.05)  # above the dt <= h/2 cap
    with pytest.raises(ValueError):
        integrate(s0, model, t_end=1.0, dt=-0.01)
    with pytest.raises(ValueError):
        integrate(s0, model, t_end=1.0, dt=0.0213)  # t_end not a multiple
    with pytest.raises(ValueError):
        integrate(s0, model, t_end=1.0, dt=0.02, sample_stride=0)


def test_trajectory_sampling_includes_endpoints():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    model = zero_model(arity="spinor_psi")
    tr = integrate(s0, model, t_end=1.0, dt=0.02, m=1.0, sample_stride=10)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert len(tr.times) == len(tr.states) == 6
    assert tr.final() is tr.states[-1]
    assert isinstance(tr, Trajectory)


def test_integrate_pins_outer_nodes():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    tr = integrate(s0, zero_model(arity="spinor_psi"), t_end=0.1, dt=0.02,
                   m=1.0)
    f = tr.final().fields
    assert np.all(f[:, :4] == 0.0)
    assert np.all(f[:, -4:] == 0.0)


def test_integrate_aborts_on_boundary_arrival():
    # counter-propagating masses reach the edge of a short box quickly;
    # the run must stop with a diagnostic instead of silently reflecting
    g = Grid1D(-8.0, 8.0, 321)
    u0 = np.exp(-g.x ** 2).astype(complex)
    s0 = SpinorState1D(g, "lab_uv", np.vstack([u0, 0.5 * u0]))
    with pytest.raises(RuntimeError, match="boundary"):
        integrate(s0, zero_model(arity="lab_uv"), t_end=12.0, dt=0.02, m=0.0)


def test_integrate_aborts_on_blowup():
    g = Grid1D(-10.0, 10.0, 401)
    big = 40.0 * np.exp(-g.x ** 2).astype(complex)
    s0 = SpinorState1D(g, "spinor_psi", np.vstack([big, 0.5j * big]))
    model = soler(g_coeffs=(1.0, 0.0, 1.0), coupling=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            integrate(s0, model, t_end=4.0, dt=0.02, m=1.0, sample_stride=5)


def test_soliton_conservation_long_run():
    model = thirring(coupling=2.0)
    g = Grid1D(-60.0, 60.0, 2401)
    s0 = thirring_soliton(SolitonParams(0.5), g)
    tr = integrate(s0, model, t_end=10.0, dt=0.025, m=1.0, sample_stride=40)
    hs = [hamiltonian_1d(s, model) for s in tr.states]
    qs = [charge(s) for s in tr.states]
    assert max(abs(h - hs[0]) for h in hs) <= 1e-9
    assert max(abs(q - qs[0]) for q in qs) / qs[0] <= 1e-9


def test_odd_parity_is_broken_by_the_transport_term():
    # the first-order flow cannot hold both components odd: the transport
    # derivative of an odd field sources an even contribution immediately,
    # for any nonlinearity (including W = 0), so the defect must grow from
    # rounding level to the size set by the odd data's slope
    g = Grid1D(-30.0, 30.0, 1201)
    odd1 = g.x * np.exp(-g.x ** 2 / 6.0) * (1.0 + 0.5j)
    odd2 = np.sin(g.x) * np.exp(-g.x ** 2 / 8.0) * (0.3 - 1j)
    s0 = SpinorState1D(g, "spinor_psi", np.vstack([odd1, odd2]))
    assert parity_defect(s0) <= 1e-13
    for model in (soler(g_coeffs=(1.0,), coupling=1.0),
                  zero_model(arity="spinor_psi")):
        tr = integrate(s0, model, t_end=1.0, dt=0.02, m=1.0,
                       sample_stride=50)
        assert parity_defect(tr.final()) >= 1e-3


def test_radial_state_validation():
    rg = RadialGrid(20.0, 800)
    r = rg.r
    even = np.exp(-(r - 4.0) ** 2)
    odd = r * np.exp(-(r - 4.0) ** 2)
    ok = np.vstack([even, 0.3 * even, odd, -0.5 * odd])
    st = RadialSpinorState(rg, ok)
    assert st.fields.shape == (4, rg.n_cells)
    # odd rows must vanish at the origin: a profile peaking at the first
    # node cannot be extended oddly across r = 0
    bad = ok.copy()
    bad[2] = np.exp(-r)
    with pytest.raises(ValueError):
        RadialSpinorState(rg, bad)
    with pytest.raises(ValueError):
        RadialSpinorState(rg, ok[:3])


def test_radial_charge_conservation():
    rg = RadialGrid(40.0, 1600)
    r = rg.r
    even = np.exp(-(r - 4.0) ** 2)
    odd = r * np.exp(-(r - 4.0) ** 2) / 4.0
    s0 = RadialSpinorState(rg, np.vstack([even, 0.3 * even, odd, -0.5 * odd]))
    model = soler(g_coeffs=(1.0,), coupling=1.0)
    tr = integrate(s0, model, t_end=2.0, dt=0.0125, m=1.0, sample_stride=40)
    qs = [charge(s) for s in tr.states]
    assert max(abs(q - qs[0]) for q in qs) / qs[0] <= 1e-7
    assert np.all(np.isfinite(tr.final().fields))


def test_radial_rhs_arity():
    rg = RadialGrid(20.0, 800)
    r = rg.r
    even = np.exp(-(r - 4.0) ** 2)
    odd = r * np.exp(-(r - 4.0) ** 2)
    st = RadialSpinorState(rg, np.vstack([even, even, odd, odd]))
    with pytest.raises(ValueError):
        rhs_radial(st, thirring(coupling=2.0), m=1.0)
