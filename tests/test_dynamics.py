import sys

import numpy as np
import pytest

from diraclab import (bridge, dynamics, exact, grids, observables, virials,
                      weights)
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


def test_a_stride_that_does_not_divide_the_steps_is_refused():
    # a last sample off the stride would leave the samples unevenly
    # spaced, which every centered time difference refuses
    g = Grid1D(-10.0, 10.0, 401)
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    message = "^sample_stride = 20 does not divide the 50 steps$"
    with pytest.raises(ValueError, match=message):
        dynamics.step_count(g, 1.0, 0.02, 20)
    with pytest.raises(ValueError, match=message):
        integrate(s0, zero_model(arity="spinor_psi"), t_end=1.0, dt=0.02,
                  sample_stride=20)
    assert dynamics.step_count(g, 1.0, 0.02, 25) == 50


def test_trajectory_sampling_includes_endpoints():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    model = zero_model(arity="spinor_psi")
    tr = integrate(s0, model, t_end=1.0, dt=0.02, m=1.0, sample_stride=10)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert len(tr.times) == len(tr.states) == 6
    assert isinstance(tr, Trajectory)


def test_integrate_pins_outer_nodes():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = SpinorState1D(g, "spinor_psi", _smooth_pair(g, width=4.0))
    tr = integrate(s0, zero_model(arity="spinor_psi"), t_end=0.1, dt=0.02,
                   m=1.0)
    f = tr.states[-1].fields
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
        assert parity_defect(tr.states[-1]) >= 1e-3


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
    p22 = np.abs(tr.states[-1].fields[3])
    assert 0.0 < np.max(p22) < 1e-15


# Every public consumer of one geometry or frame, as (name, call, what it
# accepts): "lab" and "spinor" are the frames of the line, "line" is
# either frame, and "radial" the radial geometry.
_TANH, _R32 = weights.tanh_1d(), weights.r32_weight()
_CONSUMERS = [
    ("momentum_1d", observables.momentum_1d, ("line",)),
    ("parity_defect", observables.parity_defect, ("line",)),
    ("hamiltonian_1d", lambda st: observables.hamiltonian_1d(st, thirring()),
     ("lab",)),
    ("energy_psi", lambda st: observables.energy_psi(st, soler()),
     ("spinor",)),
    ("functional_I", lambda st: virials.functional_I(
        st, _TANH, virials.ScalingTriple.constant()), ("line",)),
    ("rhs_I", lambda st: virials.rhs_I(
        st, _TANH, virials.ScalingTriple.constant()), ("line",)),
    ("functional_J_1d", lambda st: virials.functional_J_1d(st, _TANH),
     ("lab",)),
    ("rhs_J_1d", lambda st: virials.rhs_J_1d(st, _TANH), ("lab",)),
    ("functionals_J1_to_J4",
     lambda st: virials.functionals_J1_to_J4(st, _TANH), ("spinor",)),
    ("rhs_J1_to_J4", lambda st: virials.rhs_J1_to_J4(st, _TANH),
     ("spinor",)),
    ("rhs_J_combined_1d", lambda st: virials.rhs_J_combined_1d(st, _TANH),
     ("spinor",)),
    ("functionals_K_3d", lambda st: virials.functionals_K_3d(st, _R32),
     ("radial",)),
    ("rhs_K_3d", lambda st: virials.rhs_K_3d(st, _R32), ("radial",)),
    ("functional_H", virials.functional_H, ("spinor", "radial")),
    ("rhs_H", virials.rhs_H, ("spinor", "radial")),
    ("window_flux_1d", lambda st: virials.window_flux_1d(st, 2.0),
     ("line",)),
    ("origin_flux_radial", virials.origin_flux_radial, ("radial",)),
    ("to_spinor_frame", exact.to_spinor_frame, ("lab",)),
    ("to_lab_frame", exact.to_lab_frame, ("spinor",)),
    ("gronwall_monitor", lambda st: bridge.gronwall_monitor(
        Trajectory([0.0, 0.1, 0.2], [st] * 3, [0.0] * 3, [0.0] * 3),
        quartic_harmonic()), ("spinor",)),
]


def _state_of(what):
    if what == "radial":
        rg = RadialGrid(10.0, 100)
        env = np.exp(-(rg.r - 3.0) ** 2)
        return RadialSpinorState(rg, np.vstack([env, env, env * rg.r,
                                                env * rg.r]))
    g = Grid1D(-10.0, 10.0, 201)
    return SpinorState1D(g, "lab_uv" if what == "lab" else "spinor_psi",
                         _smooth_pair(g, width=4.0))


def _geometry(what):
    return "radial" if what == "radial" else "line"


def _refusals():
    """One case per consumer and state it refuses: a wrong geometry is a
    TypeError, a wrong frame of the line a ValueError."""
    for name, call, accepts in _CONSUMERS:
        for given in ("lab", "spinor", "radial"):
            if given in accepts or ("line" in accepts and given != "radial"):
                continue
            error = (ValueError if _geometry(given) in map(_geometry, accepts)
                     else TypeError)
            yield pytest.param(name, call, given, error, id=f"{name}-{given}")


@pytest.mark.parametrize("name, call, given, error", _refusals())
def test_a_state_of_the_wrong_kind_is_refused(name, call, given, error):
    # the message starts with the consumer's name
    with pytest.raises(error, match=f"^{name} "):
        call(_state_of(given))


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
    assert np.all(np.isfinite(tr.states[-1].fields))


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
    stencil call per row (a 1-row block) and plain row expressions: the
    kernel whose values dynamics._rhs_radial_arrays must reproduce, and
    whose runs integrate must reproduce bit for bit."""
    p11, p12, p21, p22 = fields
    w1, w2 = model.grad(p11 + 1j * p12, p21 + 1j * p22)
    w11, w12, w21, w22 = w1.real, w1.imag, w2.real, w2.imag
    r = grid.r[:fields.shape[-1]]

    def d(row, parity):
        return deriv1(row[None], grid, (parity,))[0]

    t22 = d(p22, "odd") + 2.0 * p22 / r
    t21 = d(p21, "odd") + 2.0 * p21 / r
    d11 = d(p11, "even")
    d12 = d(p12, "even")
    return np.vstack([t22 + m * p12 - w12,
                      -t21 - m * p11 + w11,
                      -d12 - m * p22 + w22,
                      d11 + m * p21 - w21])


def reference_integrate(initial, model, t_end, dt, m=1.0, sample_stride=1,
                        rhs=None, floor=dynamics._FLOOR):
    """The full-grid RK4 loop: every stage on every node, a new array per
    step, and every float below ``floor`` in magnitude set to +0.0 after
    each update. integrate must reproduce it bit for bit. ``rhs``
    replaces the kernel that integrate would select; ``floor=0.0`` gives
    the loop without truncation."""
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
        parts = y.view(float)
        parts[np.abs(parts) < floor] = 0.0
        if radial:
            y[:, -pin:] = 0.0
        else:
            y[:, :pin] = 0.0
            y[:, -pin:] = 0.0
        if step % sample_stride == 0:
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


def _above_floor_count(fields):
    parts = np.abs(fields.view(float)).reshape(len(fields), fields.shape[-1], -1)
    return int(np.count_nonzero((parts >= dynamics._FLOOR).any(axis=(0, 2))))


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
    assert _live_count(tr.states[-1].fields) > _live_count(s0.fields)


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
    # exp(-r^2) is sub-floor past r ~ 18.8, and stepping truncates that
    # tail: the packet spreads past the nodes it held above the floor
    assert _live_count(tr.states[-1].fields) > _above_floor_count(s0.fields)


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
    # a negative coupling flips the sign of every W; the kernel repairs no
    # zero sign, and the run is the complex route's bit for bit, as it is
    # also with the floor at 0.0
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
    # the real split's zero signs differ from grad's: the values must be
    # the complex route's, and a differing bit may only be a zero's sign,
    # which the floor erases from every stepped field (see the next test)
    model = _KERNEL_MODELS[name]
    rg = RadialGrid(10.0, 400)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = _signed_zero_fields(rng, rg.n_cells)
        got = dynamics._rhs_radial_arrays(f, rg, model, m)
        ref = reference_rhs_radial(f, rg, model, m)
        assert np.array_equal(got, ref)
        assert np.all(got[got.view(np.uint64) != ref.view(np.uint64)] == 0.0)


def _signed_zero_bump(rg, rng):
    # a valid radial bump whose far field, past r = 5, holds
    # _signed_zero_fields scaled below the floor: signed zeros, whole
    # zero nodes and subnormals
    f = _radial_bump(rg, 0.05, center=2.0, width=0.5).fields
    far = rg.r > 5.0
    f[:, far] = _signed_zero_fields(rng, np.count_nonzero(far)) * 1e-150
    return RadialSpinorState(rg, f)


@pytest.mark.parametrize("m", [1.0, 0.0, -0.5])
@pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
def test_radial_integrate_is_the_complex_route_from_signed_zeros(name, m):
    # the kernel repairs no zero sign: after each step the floor turns
    # every stepped -0.0 into +0.0, so the run is the complex route's bit
    # for bit even where the data start with signed zeros and subnormals
    model = _KERNEL_MODELS[name]
    rg = RadialGrid(10.0, 400)
    s0 = _signed_zero_bump(rg, np.random.default_rng(5))
    # on this start the real split's zero signs already show in the rows
    k1 = dynamics._rhs_radial_arrays(s0.fields, rg, model, m)
    ref = reference_rhs_radial(s0.fields, rg, model, m)
    assert (k1.tobytes() != ref.tobytes()) == (model.real_split is not None)
    tr = integrate(s0, model, t_end=0.5, dt=0.0125, m=m, sample_stride=8)
    assert_bitwise_equal(tr, reference_integrate(
        s0, model, 0.5, 0.0125, m=m, sample_stride=8,
        rhs=reference_rhs_radial))


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
    assert np.all(tr.states[-1].fields[:, -dynamics._PIN:] == 0.0)


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
    assert not np.signbit(tr.states[-1].fields.view(float)).any()


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
    assert len(nodes) == 80 * 4  # steps * stages, one stacked call each
    assert sum(nodes) < 0.6 * len(nodes) * g.n_points


@pytest.mark.parametrize("geometry", ["lab", "radial"])
def test_closure_tables_do_not_grow_with_the_window(geometry, monkeypatch):
    # deriv1 keys its closure tables by row layout, not by window width:
    # a run whose window widens 20 times or more leaves the cache at the
    # size a run that barely widens does
    if geometry == "lab":
        s0, model = _lab_bump(Grid1D(-40.0, 40.0, 1601), 0.0, 0.5, 0.5), \
            thirring(coupling=1.0)
    else:
        # + 0.0 turns the far field's -0.0 into +0.0, outside the window
        bump = _radial_bump(RadialGrid(40.0, 800), 0.05)
        s0, model = RadialSpinorState(bump.grid, bump.fields + 0.0), soler()
    stencil = dynamics.deriv1
    widths = []

    def recording_deriv1(f, grid, parity="none"):
        widths.append(np.shape(f)[-1])
        return stencil(f, grid, parity)

    monkeypatch.setattr(dynamics, "deriv1", recording_deriv1)
    runs = []
    for t_end in (0.5, 12.0):
        grids._closure_plan.cache_clear()
        widths.clear()
        integrate(s0, model, t_end=t_end, dt=0.025, m=1.0, sample_stride=20)
        runs.append((len(set(widths)), grids._closure_plan.cache_info()))
    (short_widths, short), (long_widths, long) = runs
    assert short_widths <= 2 and long_widths >= 21
    assert long.currsize == short.currsize == 1
    assert long.misses == 1


_LINE = Grid1D(-10.0, 10.0, 201)
_STENCIL_PASSES = {
    # initial state, model, rows of the one deriv1 call per RHS evaluation
    "lab": (_lab_bump(_LINE, 0.0, 0.5, 0.5), thirring(coupling=1.0), 2),
    "spinor": (SpinorState1D(_LINE, "spinor_psi",
                             _smooth_pair(_LINE, width=2.0)),
               quartic_harmonic(), 2),
    "radial": (_radial_bump(RadialGrid(10.0, 200), 0.05), soler(), 4),
}


@pytest.mark.parametrize("case", sorted(_STENCIL_PASSES))
def test_rhs_kernels_take_one_stencil_pass_per_evaluation(case, monkeypatch):
    # perfbench's tracer times the stencil by patching dynamics.deriv1,
    # so every pass a kernel makes must look that name up at call time:
    # the stencil's code may run only under the patched attribute
    s0, model, rows = _STENCIL_PASSES[case]
    stencil = dynamics.deriv1
    calls, evals, runs = [], [], []

    def counting_deriv1(f, grid, parity="none"):
        calls.append(np.shape(f))
        return stencil(f, grid, parity)

    def counting(kernel):
        def wrapper(*args):
            evals.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is stencil.__code__:
            runs.append(frame.f_back.f_code.co_name)

    monkeypatch.setattr(dynamics, "deriv1", counting_deriv1)
    for name in ("_rhs_lab_arrays", "_rhs_spinor_arrays",
                 "_rhs_radial_arrays"):
        monkeypatch.setattr(dynamics, name, counting(getattr(dynamics, name)))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        integrate(s0, model, t_end=0.1, dt=0.025, m=1.0)
    finally:
        sys.setprofile(previous)
    assert len(evals) == 4 * 4
    assert len(calls) == len(evals)
    assert runs == ["counting_deriv1"] * len(calls)
    assert all(shape[0] == rows for shape in calls)  # every row at once


def test_line_kernels_are_the_plain_row_expressions():
    # the in-place rows of the lab and spinor kernels against the plain
    # expressions on per-row stencil calls, on fields with signed zeros
    # and subnormals in both parts
    g = Grid1D(-10.0, 10.0, 400)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = _signed_zero_fields(rng, g.n_points)
        fields = np.empty((2, g.n_points), complex)
        fields.real, fields.imag = f[:2], f[2:]
        a, b = fields
        da, db = deriv1(a, g), deriv1(b, g)
        lab_model, psi_model = thirring(coupling=1.0), quartic_harmonic()
        for m in (1.0, 0.0, -0.5):
            w1, w2 = lab_model.grad(a, b)
            lab = np.vstack([-da + 1j * (m * b - w1), db + 1j * (m * a - w2)])
            got = dynamics._rhs_lab_arrays(fields, g, lab_model, m)
            assert got.tobytes() == lab.tobytes()
            w1, w2 = psi_model.grad(a, b)
            spinor = np.vstack([-1j * (db + m * a - w1),
                                1j * (da + m * b - w2)])
            got = dynamics._rhs_spinor_arrays(fields, g, psi_model, m)
            assert got.tobytes() == spinor.tobytes()


def test_integrate_refuses_a_model_that_moves_the_zero_state():
    g = Grid1D(-10.0, 10.0, 401)
    s0 = _lab_bump(g, 0.0, 1.0, 0.5)
    affine = NonlinearityModel(
        "affine", "lab_uv", 1,
        lambda a, b, c, d: (a + 1.0, c - 0.5j))
    with pytest.raises(ValueError, match="nonzero gradient at the zero"):
        integrate(s0, affine, t_end=0.1, dt=0.025)


# The floor: stepped floats below sqrt(DBL_MIN) become +0.0.

def _odd_spinor_bump(grid, amplitude, width):
    odd = amplitude * grid.x * np.exp(-(grid.x / width) ** 2)
    return SpinorState1D(grid, "spinor_psi", np.vstack([odd, 0.5j * odd]))


_FLOOR_CASES = {
    # initial state, model, t_end, dt, sample_stride; each tail falls
    # below the floor inside the grid
    "lab": (_lab_bump(Grid1D(-10.0, 10.0, 401), 6.0, 0.5, 0.5),
            thirring(coupling=1.0), 1.0, 0.025, 4),
    "spinor_odd": (_odd_spinor_bump(Grid1D(-40.0, 40.0, 1601), 0.1, 1.5),
                   quartic_harmonic(), 1.0, 0.02, 10),
    "radial": (_radial_bump(RadialGrid(20.0, 800), 0.05), soler(),
               1.0, 0.0125, 8),
}


@pytest.mark.parametrize("case", sorted(_FLOOR_CASES))
def test_floor_moves_sampled_quantities_by_round_off_at_most(case):
    # against the loop without the floor: charge and max|field| agree to
    # 1e-12 relative to their own size, the boundary-zone mass to 1e-12
    # relative to Q(0), the scale of its abort cap
    s0, model, t_end, dt, stride = _FLOOR_CASES[case]
    tr = integrate(s0, model, t_end, dt, sample_stride=stride)
    ref = reference_integrate(s0, model, t_end, dt, sample_stride=stride,
                              floor=0.0)
    assert any(a.fields.tobytes() != b.fields.tobytes()
               for a, b in zip(tr.states, ref.states))
    rtol = 1e-12
    q = np.array([charge(st) for st in tr.states])
    q_ref = np.array([charge(st) for st in ref.states])
    np.testing.assert_allclose(q, q_ref, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(tr.max_abs, ref.max_abs, rtol=rtol, atol=0.0)
    assert np.all(np.abs(tr.boundary_mass - ref.boundary_mass)
                  <= rtol * q_ref[0])


def test_stepped_sub_floor_values_and_negative_zeros_become_plus_zero():
    # with W = 0 and m = 0 the middle of a constant plateau has an exact
    # zero right-hand side, so a step keeps its value; u holds the floor
    # in its real part and the next float below it in its imaginary part
    g = Grid1D(-10.0, 10.0, 401)
    below = np.nextafter(dynamics._FLOOR, 0.0)
    fields = np.zeros((2, g.n_points), complex)
    fields[0, 150:250] = dynamics._FLOOR + 1j * below
    fields[1, 100:300] = -0.0
    fields[1, 120:130] = 1e-200 - 1e-300j
    fields[1, 140] = 5e-324
    s0 = SpinorState1D(g, "lab_uv", fields)
    tr = integrate(s0, zero_model(arity="lab_uv"), t_end=0.025, dt=0.025,
                   m=0.0)
    assert tr.states[0].fields.tobytes() == fields.tobytes()
    u, v = tr.states[-1].fields
    assert np.all(u[160:240].real == dynamics._FLOOR)
    assert u[160:240].imag.tobytes() == np.zeros(80).tobytes()
    assert v.tobytes() == np.zeros(g.n_points, complex).tobytes()
    parts = tr.states[-1].fields.view(float)
    assert np.all((np.abs(parts) >= dynamics._FLOOR)
                  | ((parts == 0.0) & ~np.signbit(parts)))


def test_a_nan_injected_mid_run_still_aborts(monkeypatch):
    # NaN is never below the floor: it must survive the steps up to the
    # next sample, whose finiteness check aborts the run
    g = Grid1D(-10.0, 10.0, 401)
    s0 = _lab_bump(g, 0.0, 1.0, 0.5)
    kernel = dynamics._rhs_lab_arrays
    calls = []

    def injecting(fields, grid, model, m):
        out = kernel(fields, grid, model, m)
        calls.append(fields.shape)
        if len(calls) == 10:  # the second stage of step 3
            out[0, fields.shape[-1] // 2] = np.nan
        return out

    monkeypatch.setattr(dynamics, "_rhs_lab_arrays", injecting)
    with pytest.raises(dynamics.RunAborted,
                       match=r"non-finite field values at t = 0\.2$"):
        integrate(s0, thirring(coupling=1.0), t_end=1.0, dt=0.025,
                  sample_stride=8)


def test_floor_keeps_the_window_out_of_the_precursor(monkeypatch):
    # the bump is exactly zero past |x| ~ 27 and sub-floor past |x| ~ 19;
    # transport moves it by 2 in this run, so with the floor the window
    # never widens, while without it the stencil's precursor (up to 8
    # nodes per side per step) widens it
    g = Grid1D(-40.0, 40.0, 1601)
    s0 = _lab_bump(g, 0.0, 1.0, 0.5)
    deriv1 = dynamics.deriv1

    def widths(floor):
        nodes = []

        def counting_deriv1(f, grid, parity="none"):
            nodes.append(np.shape(f)[-1])
            return deriv1(f, grid, parity)

        monkeypatch.setattr(dynamics, "deriv1", counting_deriv1)
        monkeypatch.setattr(dynamics, "_FLOOR", floor)
        integrate(s0, thirring(coupling=1.0), t_end=2.0, dt=0.025, m=0.0)
        return nodes

    truncated = widths(dynamics._FLOOR)
    untruncated = widths(0.0)
    assert len(truncated) == len(untruncated) == 80 * 4
    assert truncated == [truncated[0]] * len(truncated)
    assert truncated[0] < g.n_points
    assert untruncated[0] == truncated[0]
    assert untruncated[-1] > truncated[-1]


def _full_grid_zone_mass(fields, grid):
    """The sponge-zone mass read off the density of the whole field."""
    pin, sponge = dynamics._PIN, dynamics._SPONGE
    if np.iscomplexobj(fields):
        dens = np.sum(np.abs(fields) ** 2, axis=0)
    else:
        dens = np.sum(fields ** 2, axis=0)
    if isinstance(grid, RadialGrid):
        sl = dens[-(pin + sponge):-pin]
        rr = grid.r[-(pin + sponge):-pin]
        return 4.0 * np.pi * grid.h * float(np.sum(rr * rr * sl))
    left = dens[pin:pin + sponge]
    right = dens[-(pin + sponge):-pin]
    return grid.h * float(np.sum(left) + np.sum(right))


def test_zone_mass_squares_only_the_zone_bit_for_bit():
    rng = np.random.default_rng(11)
    line, radial = Grid1D(-20.0, 20.0, 401), RadialGrid(20.0, 400)
    for _ in range(50):
        z = rng.normal(size=(2, 401)) + 1j * rng.normal(size=(2, 401))
        r = rng.normal(size=(4, 401)) * rng.uniform(1e-8, 10.0)
        for fields in (z.real, z.imag, r):
            fields[rng.random(fields.shape) < 0.2] = -0.0
        for fields, grid in ((z, line), (r, radial)):
            assert dynamics._zone_mass(fields, grid).hex() == \
                _full_grid_zone_mass(fields, grid).hex()
