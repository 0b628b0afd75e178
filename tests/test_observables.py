import numpy as np
import pytest
from scipy.integrate import quad

from diraclab.dynamics import RadialSpinorState, SpinorState1D, integrate
from diraclab.exact import SolitonParams, thirring_soliton, to_spinor_frame
from diraclab.grids import Grid1D, RadialGrid
from diraclab.nonlinearity import soler, thirring
from diraclab.observables import (
    Region,
    charge,
    energy_psi,
    hamiltonian_1d,
    momentum_1d,
    parity_defect,
    region_mass,
)
from test_nonlinearity import square_modulus


def test_charge_line_measure():
    g = Grid1D(-20.0, 20.0, 801)
    u = np.exp(-g.x ** 2 / 2.0).astype(complex)
    s = SpinorState1D(g, "lab_uv", np.vstack([u, 2.0 * u]))
    # integral of (1 + 4) e^{-x^2} = 5 sqrt(pi)
    assert charge(s) == pytest.approx(5.0 * np.sqrt(np.pi), rel=1e-12)


def test_charge_radial_spherical_measure():
    rg = RadialGrid(20.0, 800)
    r = rg.r
    even = np.exp(-(r - 4.0) ** 2)
    st = RadialSpinorState(rg, np.vstack([even, np.zeros_like(r),
                                          np.zeros_like(r), np.zeros_like(r)]))
    ref = 4.0 * np.pi * quad(lambda x: x ** 2 * np.exp(-2.0 * (x - 4.0) ** 2),
                             0.0, 20.0, limit=200)[0]
    assert charge(st) == pytest.approx(ref, rel=1e-8)


def test_momentum_of_modulated_gaussian():
    # u = e^{ikx} f(x) carries P = -k * integral f^2
    g = Grid1D(-40.0, 40.0, 1601)
    k = 2.0
    u = np.exp(1j * k * g.x) * np.exp(-g.x ** 2 / 2.0)
    s = SpinorState1D(g, "lab_uv", np.vstack([u, np.zeros_like(u)]))
    assert momentum_1d(s) == pytest.approx(-k * np.sqrt(np.pi), rel=1e-4)


def test_momentum_frame_factor():
    # amplitudes double in the spinor frame, so P does as well
    g = Grid1D(-40.0, 40.0, 1601)
    u = np.exp(0.7j * g.x) * np.exp(-(g.x - 3.0) ** 2 / 4.0)
    v = np.exp(-0.4j * g.x) * np.exp(-(g.x + 2.0) ** 2 / 5.0) * (0.6 + 0.3j)
    sl = SpinorState1D(g, "lab_uv", np.vstack([u, v]))
    assert momentum_1d(to_spinor_frame(sl)) == \
        pytest.approx(2.0 * momentum_1d(sl), rel=1e-13)


def test_stationary_soliton_has_zero_momentum():
    g = Grid1D(-40.0, 40.0, 1601)
    s0 = thirring_soliton(SolitonParams(0.5), g)
    assert abs(momentum_1d(s0)) <= 1e-12


def test_hamiltonian_requires_lab_frame():
    g = Grid1D(-20.0, 20.0, 801)
    u = np.exp(-g.x ** 2).astype(complex)
    sp = SpinorState1D(g, "spinor_psi", np.vstack([u, u]))
    with pytest.raises(ValueError):
        hamiltonian_1d(sp, thirring(coupling=2.0))


def test_energy_psi_requires_diagonal_difference_form():
    g = Grid1D(-20.0, 20.0, 801)
    u = np.exp(-g.x ** 2).astype(complex)
    sp = SpinorState1D(g, "spinor_psi", np.vstack([u, 0.5 * u]))
    with pytest.raises(ValueError):
        energy_psi(sp, square_modulus(coupling=1.0))
    sl = SpinorState1D(g, "lab_uv", np.vstack([u, u]))
    with pytest.raises(ValueError):
        energy_psi(sl, soler(g_coeffs=(1.0,), coupling=1.0))


def test_energy_psi_conserved_along_flow():
    g = Grid1D(-30.0, 30.0, 1201)
    p1 = np.exp(-g.x ** 2 / 4.0).astype(complex)
    p2 = 0.4 * g.x * np.exp(-g.x ** 2 / 5.0) * (1.0 + 0.3j)
    s0 = SpinorState1D(g, "spinor_psi", np.vstack([p1, p2]))
    model = soler(g_coeffs=(1.0,), coupling=1.0)
    tr = integrate(s0, model, t_end=4.0, dt=0.02, m=1.0, sample_stride=40)
    es = [energy_psi(s, model) for s in tr.states]
    assert max(abs(e - es[0]) for e in es) <= 1e-7


def test_region_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        Region("no_such_region")
    with pytest.raises(ValueError, match="ball:R needs R > 0"):
        Region("ball:-1")
    with pytest.raises(ValueError, match="write it as ball:R"):
        Region("ball:2:1")
    with pytest.raises(ValueError, match="exterior:B needs B > 0"):
        Region("exterior:0")
    with pytest.raises(ValueError, match="needs LO < HI"):
        Region("interval:3:3")
    with pytest.raises(ValueError):
        Region("log_window").indicator(np.zeros(4), t=5.0)
    with pytest.raises(ValueError):
        Region("exterior:0.1").indicator(np.zeros(4), t=2.0)


def test_region_indicators():
    x = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    assert np.array_equal(Region("ball:1.5").indicator(x, 0.0),
                          [False, True, True, True, False])
    assert np.array_equal(Region("interval:0:5").indicator(x, 0.0),
                          [False, False, True, True, True])
    # at t = 20 the window half-width is 20 / ln(20)^2, about 2.23
    ind = Region("log_window").indicator(x, 20.0)
    assert np.array_equal(ind, [False, True, True, True, False])
    ind = Region("exterior:0.1").indicator(x, 4.0)
    assert np.array_equal(ind, [True, False, False, False, True])


def test_log_window_excludes_separated_humps():
    # two humps parked at |x| = 20 carry no mass inside the shrinking
    # window once t reaches 20
    g = Grid1D(-60.0, 60.0, 2401)
    hump = np.exp(-(np.abs(g.x) - 20.0) ** 2).astype(complex)
    s = SpinorState1D(g, "lab_uv", np.vstack([hump, hump]), t=20.0)
    total = charge(s)
    inside = region_mass(s, Region("log_window"))
    assert total > 1.0
    assert inside <= 1e-30 * total


def test_exterior_mass_matches_quadrature():
    om = 0.5
    g2 = 1.0 - om * om
    s0 = thirring_soliton(SolitonParams(om), Grid1D(-60.0, 60.0, 2401))
    got = region_mass(s0, Region("exterior:0.1"), t=3.0)
    edge = 1.1 * 3.0
    ref = 2.0 * quad(
        lambda x: 2.0 * g2 / (np.cosh(2.0 * np.sqrt(g2) * x) + om),
        edge, 60.0)[0]
    assert got == pytest.approx(ref, rel=5e-3)


def test_region_mass_radial_ball():
    rg = RadialGrid(20.0, 800)
    r = rg.r
    even = np.exp(-(r - 4.0) ** 2)
    odd = r * np.exp(-(r - 4.0) ** 2) / 4.0
    st = RadialSpinorState(rg, np.vstack([even, 0.3 * even, odd, -0.5 * odd]))
    dens = (1.0 + 0.09) * even ** 2 + (1.0 + 0.25) * odd ** 2
    mask = r <= 6.0
    byhand = 4.0 * np.pi * float(np.sum((r ** 2 * dens)[mask])) * rg.h
    assert region_mass(st, Region("ball:6")) == \
        pytest.approx(byhand, rel=1e-13)


def test_parity_defect_detects_even_contamination():
    g = Grid1D(-30.0, 30.0, 1201)
    odd = g.x * np.exp(-g.x ** 2 / 6.0) * (1.0 + 0.5j)
    s = SpinorState1D(g, "spinor_psi", np.vstack([odd, 2.0 * odd]))
    assert parity_defect(s) <= 1e-13
    tainted = s.fields.copy()
    tainted[0] += 0.01 * np.exp(-g.x ** 2)
    s2 = SpinorState1D(g, "spinor_psi", tainted)
    defect = parity_defect(s2)
    assert 1e-3 <= defect <= 1e-1


def test_parity_defect_needs_symmetric_grid():
    g = Grid1D(-10.0, 12.0, 441)
    u = np.exp(-g.x ** 2).astype(complex)
    s = SpinorState1D(g, "lab_uv", np.vstack([u, u]))
    with pytest.raises(ValueError):
        parity_defect(s)
