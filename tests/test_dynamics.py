import numpy as np
import pytest

from diraclab import dynamics
from diraclab.dynamics import (
    RadialSpinorState,
    SpinorState1D,
    Trajectory,
    _rhs_real4_arrays,
    _rhs_spinor_arrays,
    integrate,
)
from diraclab.exact import SolitonParams, thirring_soliton
from diraclab.grids import Grid1D, RadialGrid, deriv1, quad
from diraclab.nonlinearity import (
    NonlinearityModel,
    quartic_harmonic,
    soler,
    thirring,
    thirring_psi,
    zero_model,
)
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
    rc = _rhs_spinor_arrays(sp.fields, g, model, 1.0)
    p1, p2 = sp.fields
    real4 = np.vstack([p1.real, p1.imag, p2.real, p2.imag])
    rr = _rhs_real4_arrays(real4, g, model, 1.0)
    rc_split = np.vstack([rc[0].real, rc[0].imag, rc[1].real, rc[1].imag])
    assert np.max(np.abs(rc_split - rr)) <= 1e-14


def test_rhs_arity_mismatch_rejected():
    g = Grid1D(-10.0, 10.0, 401)
    sp = SpinorState1D(g, "spinor_psi", _smooth_pair(g))
    lab = thirring(coupling=2.0)
    with pytest.raises(ValueError, match="arity"):
        integrate(sp, lab, t_end=0.02, dt=0.02)
    s_lab = SpinorState1D(g, "lab_uv", _smooth_pair(g))
    with pytest.raises(ValueError, match="arity"):
        integrate(s_lab, thirring_psi(coupling=1.0), t_end=0.02, dt=0.02)


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


def test_an_odd_row_left_at_round_off_is_not_a_parity_violation():
    # with only p12 set, the flow keeps p22 at zero up to round-off
    # (~1e-18 here), and that noise may peak at the innermost cell
    rg = RadialGrid(20.0, 400)
    even = 0.265625 * np.exp(-rg.r ** 2)
    zero = np.zeros_like(even)
    s0 = RadialSpinorState(rg, np.vstack([zero, even, zero, zero]))
    tr = integrate(s0, zero_model(arity="spinor_psi"), t_end=1.0,
                   dt=0.025, sample_stride=5)
    p22 = np.abs(tr.final().fields[3])
    assert 0.0 < np.max(p22) < 1e-15


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
    with pytest.raises(ValueError, match="arity"):
        integrate(st, thirring(coupling=2.0), t_end=0.025, dt=0.0125)


def reference_rhs_radial(fields, grid, model, m):
    """The radial right-hand side through grad's complex arithmetic, one
    stencil call per row and plain row expressions: the kernel that
    dynamics._rhs_radial_arrays must reproduce bit for bit."""
    p11, p12, p21, p22 = fields
    w1, w2 = model.grad(p11 + 1j * p12, p21 + 1j * p22)
    w11, w12, w21, w22 = w1.real, w1.imag, w2.real, w2.imag
    r = grid.r[:fields.shape[-1]]
    t22 = deriv1(p22, grid, parity="odd") + 2.0 * p22 / r
    t21 = deriv1(p21, grid, parity="odd") + 2.0 * p21 / r
    d11 = deriv1(p11, grid, parity="even")
    d12 = deriv1(p12, grid, parity="even")
    return np.vstack([t22 + m * p12 - w12,
                      -t21 - m * p11 + w11,
                      -d12 - m * p22 + w22,
                      d11 + m * p21 - w21])


def reference_integrate(initial, model, t_end, dt, m=1.0, sample_stride=1,
                        rhs=None):
    """The full-grid RK4 loop: every stage on every node, a new array per
    step. integrate must reproduce it bit for bit. ``rhs`` replaces the
    kernel that integrate would select."""
    grid = initial.grid
    n_steps = int(round(t_end / dt))
    if rhs is None:
        rhs = dynamics._select_rhs(initial, model)
    y = initial.fields.copy()
    t0 = initial.t
    radial = isinstance(grid, RadialGrid)
    q0 = float(quad(initial.density(), grid,
                    "spherical" if radial else "line"))
    mass_cap = dynamics._BOUNDARY_TOL * q0 if q0 > 0.0 else np.inf
    pin = dynamics._PIN

    times = [t0]
    states = [dynamics._wrap(initial, y.copy(), t0)]
    bmass = [dynamics._zone_mass(y, grid)]
    maxab = [float(np.max(np.abs(y)))]
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, n_steps + 1):
        k1 = rhs(y, grid, model, m)
        k2 = rhs(y + half * k1, grid, model, m)
        k3 = rhs(y + half * k2, grid, model, m)
        k4 = rhs(y + dt * k3, grid, model, m)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if radial:
            y[:, -pin:] = 0.0
        else:
            y[:, :pin] = 0.0
            y[:, -pin:] = 0.0
        if step % sample_stride == 0 or step == n_steps:
            t = t0 + step * dt
            if not np.all(np.isfinite(y)):
                raise RuntimeError(f"non-finite field values at t = {t:g}")
            zm = dynamics._zone_mass(y, grid)
            if zm > mass_cap:
                raise RuntimeError(
                    f"boundary zone mass {zm:.3e} exceeds "
                    f"{dynamics._BOUNDARY_TOL:g} * Q(0) = {mass_cap:.3e} "
                    f"at t = {t:g}; enlarge the domain or stop earlier")
            times.append(t)
            states.append(dynamics._wrap(initial, y.copy(), t))
            bmass.append(zm)
            maxab.append(float(np.max(np.abs(y))))
    return Trajectory(times, states, bmass, maxab)


def assert_bitwise_equal(got, ref):
    """Every sampled array of two trajectories agrees bit for bit."""
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.boundary_mass.tobytes() == ref.boundary_mass.tobytes()
    assert got.max_abs.tobytes() == ref.max_abs.tobytes()
    assert len(got.states) == len(ref.states)
    for a, b in zip(got.states, ref.states):
        assert a.t == b.t
        assert a.fields.tobytes() == b.fields.tobytes()


def _live_count(fields):
    return int(np.count_nonzero(np.any(fields != 0.0, axis=0)))


def _lab_bump(grid, center, width, amplitude, cut=np.inf):
    s = (grid.x - center) / width
    env = np.where(np.abs(s) < cut, amplitude * np.exp(-s ** 2), 0.0)
    return SpinorState1D(grid, "lab_uv",
                         np.vstack([env * (1.0 + 0.5j), env * (0.3 - 1j)]))


def test_window_matches_full_grid_as_the_live_span_grows():
    # a negative amplitude leaves -0.0 in the far field, which the full
    # grid turns into +0.0 next to the live span
    g = Grid1D(-40.0, 40.0, 1601)
    s0 = _lab_bump(g, 0.3, 0.5, -0.5)
    model = thirring(coupling=1.0)
    assert _live_count(s0.fields) < g.n_points // 2
    tr = integrate(s0, model, t_end=4.0, dt=0.025, m=0.0, sample_stride=20)
    assert_bitwise_equal(tr, reference_integrate(s0, model, 4.0, 0.025,
                                                 m=0.0, sample_stride=20))
    assert _live_count(tr.final().fields) > _live_count(s0.fields)


def test_window_keeps_up_with_a_sharp_edge():
    # cut off at two widths, the bump's edge values are far from
    # underflow, so its live span grows by the full 8 nodes every step
    g = Grid1D(-20.0, 20.0, 801)
    s0 = _lab_bump(g, 0.0, 1.0, 0.5, cut=2.0)
    model = thirring(coupling=1.0)
    tr = integrate(s0, model, t_end=0.25, dt=0.025, m=1.0)
    assert_bitwise_equal(tr, reference_integrate(s0, model, 0.25, 0.025,
                                                 m=1.0))
    live = [_live_count(st.fields) for st in tr.states]
    assert np.all(np.diff(live) == 16)


def test_window_matches_full_grid_on_an_everywhere_nonzero_field():
    # the odd bump's tails are ~1e-86 at the edges: the window is the
    # whole grid from the first step
    g = Grid1D(-40.0, 40.0, 1601)
    odd = 0.1 * g.x * np.exp(-g.x ** 2 / 8.0)
    s0 = SpinorState1D(g, "spinor_psi", np.vstack([odd, 0.5j * odd]))
    assert np.all(s0.fields[0, [0, -1]] != 0.0)
    model = quartic_harmonic(coupling=1.0)
    assert_bitwise_equal(integrate(s0, model, t_end=1.0, dt=0.02),
                         reference_integrate(s0, model, 1.0, 0.02))


def test_window_matches_full_grid_on_a_radial_bump_at_the_origin():
    rg = RadialGrid(40.0, 1600)
    r = rg.r
    even = 0.05 * np.exp(-r ** 2)
    odd = 0.05 * r * np.exp(-r ** 2)
    s0 = RadialSpinorState(rg, np.vstack([even, 0.3 * even, odd, -0.5 * odd]))
    assert _live_count(s0.fields) < 0.75 * rg.n_cells
    model = soler(g_coeffs=(1.0,), coupling=1.0)
    tr = integrate(s0, model, t_end=2.0, dt=0.0125, sample_stride=16)
    assert_bitwise_equal(tr, reference_integrate(s0, model, 2.0, 0.0125,
                                                 sample_stride=16))
    assert _live_count(tr.final().fields) > _live_count(s0.fields)


def _radial_bump(rg, amplitude, center=0.0, width=0.5):
    # the odd rows vanish at the origin; an annular bump keeps the size
    # of its odd rows near that of its even rows
    r = rg.r
    env = amplitude * np.exp(-((r - center) / width) ** 2)
    odd = env * r / max(center, width)
    return RadialSpinorState(rg, np.vstack([env, 0.3 * env, odd, -0.5 * odd]))


_RADIAL_ORACLE_CASES = {
    "origin": (0.05, 0.0, soler()),
    "annular": (0.05, 4.0, soler()),
    # exp underflows past r = 13.6: the far field is -0.0 in three rows
    "negative_amplitude": (-0.05, 0.0, soler()),
    "soler_g3_coupling50": (0.05, 0.0,
                            soler(g_coeffs=(1.0, -0.5, 0.2), coupling=50.0)),
    # no real split: the default complex route
    "quartic_harmonic": (0.05, 0.0, quartic_harmonic()),
    # at a negative coupling, soler's rows without the zero-state rule
    # give W at the far field's zeros the other sign than grad does, and
    # that sign reaches the field
    "negative_coupling": (-0.2, 0.0,
                          soler(g_coeffs=(0.0, 1.0), coupling=-1.0)),
}


@pytest.mark.parametrize("case", sorted(_RADIAL_ORACLE_CASES))
def test_radial_integrate_is_the_complex_route_kernel(case):
    amplitude, center, model = _RADIAL_ORACLE_CASES[case]
    rg = RadialGrid(20.0, 800)
    s0 = _radial_bump(rg, amplitude, center)
    assert _live_count(s0.fields) < rg.n_cells
    tr = integrate(s0, model, t_end=1.0, dt=0.0125, sample_stride=8)
    assert_bitwise_equal(tr, reference_integrate(
        s0, model, 1.0, 0.0125, sample_stride=8, rhs=reference_rhs_radial))


def _signed_zero_fields(rng, n):
    # magnitudes from 1 down past the subnormal range, with single
    # entries and whole nodes of +0.0 and -0.0
    f = rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-330.0, 0.0, (4, n))
    f[rng.random((4, n)) < 0.2] = 0.0
    f[rng.random((4, n)) < 0.2] *= -0.0
    f[:, rng.random(n) < 0.2] = 0.0
    zero_nodes = rng.random(n) < 0.2
    f[:, zero_nodes] = np.where(rng.random((4, 1)) < 0.5, 0.0, -0.0)
    return f


_KERNEL_MODELS = {
    "soler": soler(),
    "soler_g3_coupling50": soler(g_coeffs=(1.0, -0.5, 0.2), coupling=50.0),
    "soler_s2_coupling_minus1": soler(g_coeffs=(0.0, 1.0), coupling=-1.0),
    "soler_minus_s": soler(g_coeffs=(-1.0,)),
    "quartic_harmonic": quartic_harmonic(),
}


@pytest.mark.parametrize("m", [1.0, 0.0, -0.5])
@pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
def test_radial_kernel_is_the_complex_route_bit_for_bit(name, m):
    # one evaluation on fields full of signed zeros and subnormals, where
    # the real split's zero signs differ from grad's; without the
    # kernel's fallback to grad at -0.0 rows every soler case fails
    model = _KERNEL_MODELS[name]
    rg = RadialGrid(10.0, 400)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = _signed_zero_fields(rng, rg.n_cells)
        got = dynamics._rhs_radial_arrays(f, rg, model, m)
        assert got.tobytes() == reference_rhs_radial(f, rg, model, m).tobytes()


def test_window_clamped_at_a_pinned_edge_matches_full_grid():
    # the bump's tail is live on the right edge's pinned nodes, so the
    # window reaches that grid edge while its left edge is interior
    g = Grid1D(-10.0, 10.0, 401)
    s0 = _lab_bump(g, 6.0, 0.5, 0.5)
    assert np.all(s0.fields[:, -dynamics._PIN:] != 0.0)
    assert np.all(s0.fields[:, :dynamics._PIN + 40] == 0.0)
    model = thirring(coupling=1.0)
    tr = integrate(s0, model, t_end=0.5, dt=0.025, m=1.0, sample_stride=4)
    assert_bitwise_equal(tr, reference_integrate(s0, model, 0.5, 0.025,
                                                 m=1.0, sample_stride=4))
    assert np.all(tr.final().fields[:, -dynamics._PIN:] == 0.0)


@pytest.mark.parametrize("radial", [False, True])
def test_window_on_an_all_zero_state(radial):
    if radial:
        rg = RadialGrid(10.0, 200)
        s0 = RadialSpinorState(rg, np.zeros((4, rg.n_cells)))
        model = soler(g_coeffs=(1.0,), coupling=1.0)
    else:
        g = Grid1D(-10.0, 10.0, 401)
        s0 = SpinorState1D(g, "lab_uv", np.zeros((2, g.n_points), complex))
        model = thirring(coupling=1.0)
    tr = integrate(s0, model, t_end=0.2, dt=0.025)
    assert_bitwise_equal(tr, reference_integrate(s0, model, 0.2, 0.025))
    assert not np.signbit(tr.final().fields.view(float)).any()


def _abort_message(stepper, *args, **kwargs):
    with pytest.raises(RuntimeError) as info:
        stepper(*args, **kwargs)
    return str(info.value)


def test_window_aborts_like_full_grid_on_boundary_arrival():
    g = Grid1D(-16.0, 16.0, 641)
    u0 = np.exp(-4.0 * g.x ** 2).astype(complex)
    s0 = SpinorState1D(g, "lab_uv", np.vstack([u0, 0.5 * u0]))
    assert _live_count(s0.fields) < g.n_points
    args = (s0, zero_model(arity="lab_uv"), 20.0, 0.025)
    msg = _abort_message(integrate, *args, m=0.0, sample_stride=8)
    assert "boundary" in msg
    assert msg == _abort_message(reference_integrate, *args, m=0.0,
                                 sample_stride=8)


def test_window_aborts_like_full_grid_on_blowup():
    g = Grid1D(-30.0, 30.0, 1201)
    big = 40.0 * np.exp(-g.x ** 2).astype(complex)
    s0 = SpinorState1D(g, "spinor_psi", np.vstack([big, 0.5j * big]))
    assert _live_count(s0.fields) < g.n_points
    args = (s0, soler(g_coeffs=(1.0, 0.0, 1.0), coupling=50.0), 4.0, 0.02)
    with np.errstate(over="ignore", invalid="ignore"):
        msg = _abort_message(integrate, *args, sample_stride=5)
        assert "non-finite" in msg
        assert msg == _abort_message(reference_integrate, *args,
                                     sample_stride=5)


def test_window_steps_fewer_nodes_than_the_grid(monkeypatch):
    # a compact lab bump must keep deriv1 well below the full-grid node
    # count; the bitwise tests alone would pass a full-grid stepper too
    g = Grid1D(-40.0, 40.0, 1601)
    s0 = _lab_bump(g, 0.0, 0.5, 0.5)
    nodes = []
    deriv1 = dynamics.deriv1

    def counting_deriv1(f, grid, parity="none"):
        nodes.append(np.shape(f)[-1])
        return deriv1(f, grid, parity)

    monkeypatch.setattr(dynamics, "deriv1", counting_deriv1)
    integrate(s0, thirring(coupling=1.0), t_end=2.0, dt=0.025, m=0.0)
    assert len(nodes) == 80 * 4 * 2  # steps * stages * components
    assert sum(nodes) < 0.6 * len(nodes) * g.n_points


def test_integrate_refuses_a_model_that_moves_the_zero_state():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = _lab_bump(g, 0.0, 1.0, 0.5)
    affine = NonlinearityModel(
        "affine", "lab_uv", 1,
        lambda a, b, c, d: (a + 1.0, c - 0.5j))
    with pytest.raises(ValueError, match="nonzero gradient at the zero"):
        integrate(s0, affine, t_end=0.1, dt=0.025)
