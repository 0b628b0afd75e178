"""Property tests over randomly drawn states and catalog potentials."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from diraclab import weights  # noqa: E402
from diraclab.dynamics import (  # noqa: E402
    RadialSpinorState,
    SpinorState1D,
    integrate,
)
from diraclab.exact import (  # noqa: E402
    inverse_t_transform,
    t_transform,
    to_spinor_frame,
)
from diraclab.grids import Grid1D, RadialGrid, deriv1, quad  # noqa: E402
from diraclab.nonlinearity import builtin  # noqa: E402
from diraclab.observables import charge  # noqa: E402
from diraclab.virials import ScalingTriple, rhs_I  # noqa: E402
from test_dynamics import (  # noqa: E402
    assert_bitwise_equal,
    reference_integrate,
)
from test_exact import t_transform_model  # noqa: E402
from test_grids import reference_deriv1  # noqa: E402
from test_nonlinearity import model_named  # noqa: E402

_GRID = Grid1D(-30.0, 30.0, 601)

_WEIGHTS = {"tanh": weights.tanh_1d(), "sech": weights.sech_1d(),
            "half_tanh_right": weights.half_tanh(+1),
            "half_tanh_left": weights.half_tanh(-1)}

_packets = st.tuples(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),   # complex amplitude
    st.floats(-10.0, 10.0),                       # center
    st.floats(0.5, 4.0),                          # width
    st.floats(-3.0, 3.0))                         # wave number


def _component(packets):
    x = _GRID.x
    out = np.zeros(x.size, dtype=complex)
    for re, im, center, width, k in packets:
        out += ((re + 1j * im) * np.exp(-((x - center) / width) ** 2)
                * np.exp(1j * k * x))
    return out


@st.composite
def lab_states(draw):
    comps = [_component(draw(st.lists(_packets, min_size=1, max_size=3)))
             for _ in range(2)]
    return SpinorState1D(_GRID, "lab_uv", np.vstack(comps))


@settings(max_examples=60, deadline=None)
@given(state=lab_states(), lam=st.floats(0.1, 50.0),
       weight=st.sampled_from(sorted(_WEIGHTS)))
def test_weighted_charge_rate_is_the_window_charge_rate(state, lam, weight):
    # with the triple (1, lam, 0) the weighted charge is the lab window
    # charge, whose rate is the window derivative against the chiral
    # imbalance |u|^2 - |v|^2
    w = _WEIGHTS[weight]
    s = _GRID.x / lam
    dphi = w.dphi(s)
    chi = np.abs(state.u) ** 2 - np.abs(state.v) ** 2
    expected = quad(dphi * chi, _GRID) / lam
    scale = quad(np.abs(dphi) * state.density(), _GRID) / lam
    got = rhs_I(state, w, ScalingTriple.constant(lam))
    assert abs(got - expected) <= 1e-13 * scale


_amplitudes = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                 allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(z1=_amplitudes, z2=_amplitudes, theta=st.floats(0.0, 2.0 * np.pi),
       name=st.sampled_from(["thirring", "gross_neveu", "bec_resonance",
                             "square_modulus"]))
def test_gauge_and_swap_invariance(z1, z2, theta, name):
    model = model_named(name)
    w = model.potential(z1, z2)
    rot = np.exp(1j * theta)
    tol = 1e-12 * (1.0 + abs(w))
    assert abs(model.potential(rot * z1, rot * z2) - w) <= tol
    assert abs(model.potential(z2, z1) - w) <= tol


@settings(max_examples=200, deadline=None)
@given(z1=_amplitudes, z2=_amplitudes)
def test_quartic_harmonic_flips_sign_under_eighth_turn(z1, z2):
    # W is a quartic form in the conjugates, so e^{i pi/4} gives e^{-i pi}
    model = builtin("quartic_harmonic")
    rot = np.exp(0.25j * np.pi)
    w = model.potential(z1, z2)
    scale = 1.0 + (abs(z1) ** 2 + abs(z2) ** 2) ** 2
    assert abs(model.potential(rot * z1, rot * z2) + w) <= 1e-12 * scale


_lab_values = st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                 allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(u=_lab_values, v=_lab_values)
def test_frame_map_round_trip(u, v):
    ub, vb = inverse_t_transform(*t_transform(u, v))
    bound = 4.0 * 2.0 ** -52 * (abs(u) + abs(v))
    assert abs(ub - u) <= bound and abs(vb - v) <= bound


_FRAME = {"thirring": "lab_uv", "gross_neveu": "lab_uv",
          "quartic_harmonic": "spinor_psi", "soler": "spinor_psi"}


@settings(max_examples=30, deadline=None)
@given(center=st.floats(-12.0, 12.0), width=st.floats(0.25, 1.0),
       amplitude=st.floats(-0.1, 0.1), cut=st.floats(0.5, 30.0),
       name=st.sampled_from(sorted(_FRAME)))
def test_windowed_integrate_is_the_full_grid_step(center, width, amplitude,
                                                  cut, name):
    # a compact bump: cut off at ``cut`` widths from its center, or where
    # exp underflows, so integrate steps a window of the grid that moves
    # with the data. A sharp cut keeps the edge values large, and the
    # live span then grows by the full 8 nodes a step. The amplitude
    # stays below the size at which quartic_harmonic's complex potential
    # blows up within t_end.
    s = (_GRID.x - center) / width
    env = np.where(np.abs(s) < cut, amplitude * np.exp(-s ** 2), 0.0)
    s0 = SpinorState1D(_GRID, _FRAME[name],
                       np.vstack([env * (1.0 + 0.5j), env * (0.3 - 1j)]))
    model = builtin(name)
    assert_bitwise_equal(
        integrate(s0, model, t_end=1.5, dt=0.05, sample_stride=10),
        reference_integrate(s0, model, 1.5, 0.05, sample_stride=10))


@settings(max_examples=40, deadline=None)
@given(stride=st.integers(1, 8), strides=st.integers(1, 6),
       extra=st.integers(0, 7))
def test_every_trajectory_is_uniformly_sampled(stride, strides, extra):
    # integrate samples on whole strides only, so every trajectory it
    # returns passes the spacing check of centered time differences, and
    # a stride that does not divide the steps is refused
    n_steps = stride * strides + extra % stride
    bump = np.exp(-_GRID.x ** 2) * (1.0 + 0.5j)
    s0 = SpinorState1D(_GRID, "spinor_psi", np.vstack([bump, -bump]))
    run = dict(t_end=n_steps * 0.05, dt=0.05, sample_stride=stride)
    model = builtin("zero", arity="spinor_psi")
    if n_steps % stride:
        with pytest.raises(ValueError, match="does not divide"):
            integrate(s0, model, **run)
        return
    tr = integrate(s0, model, **run)
    assert len(tr) == n_steps // stride + 1
    assert tr.times[-1] == pytest.approx(run["t_end"], abs=1e-12)
    if len(tr) >= 3:
        assert tr.sample_step("test") == pytest.approx(stride * 0.05,
                                                       abs=1e-12)


# Charge conservation for the gauge-invariant models: W = g psi with g
# real (soler), or a gradient of a phase-invariant potential (the lab
# models). quartic_harmonic does not conserve charge. The
# drawn data stays resolved (width >= 10 h, |k| h <= 0.1) and small
# enough that dt = h/2 resolves the nonlinear phase rotation, so the drift
# left is that of RK4 and of the edge stencils.
_GAUGE_LINE = {"thirring": "lab_uv", "gross_neveu": "lab_uv",
               "bec_resonance": "lab_uv", "soler": "spinor_psi",
               "zero": "lab_uv", "zero_psi": "spinor_psi"}
_SOLER_G = [(1.0,), (1.0, -0.5, 0.2), (0.0, 1.0)]
_RADIAL = RadialGrid(20.0, 400)
# About 10x the worst relative drift over 1000 examples per geometry:
# 3.7e-7 on the line and 1.9e-5 radially, where the zero model drifts as
# much as soler.
_LINE_DRIFT_BOUND = 4e-6
_RADIAL_DRIFT_BOUND = 2e-4

_resolved_packets = st.tuples(
    st.floats(-0.35, 0.35), st.floats(-0.35, 0.35),  # complex amplitude
    st.floats(-5.0, 5.0),                            # center
    st.floats(1.0, 3.0),                             # width
    st.floats(-1.0, 1.0))                            # wave number


def _gauge_model(name, frame, coupling, g_index):
    if name == "soler":
        return builtin("soler", g_coeffs=_SOLER_G[g_index],
                       coupling=coupling)
    if name.startswith("zero"):
        return builtin("zero", arity=frame)
    return builtin(name, coupling=coupling)


def _charge_drift(state, model, dt, m):
    tr = integrate(state, model, t_end=1.0, dt=dt, m=m, sample_stride=5)
    q = np.array([charge(s) for s in tr.states])
    return float(np.max(np.abs(q - q[0])) / q[0])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_GAUGE_LINE)),
       packets=st.lists(st.lists(_resolved_packets, min_size=1, max_size=2),
                        min_size=2, max_size=2),
       coupling=st.floats(-2.0, 2.0), g_index=st.integers(0, 2),
       m=st.sampled_from([0.0, 1.0]))
def test_gauge_invariant_models_conserve_charge_on_the_line(
        name, packets, coupling, g_index, m):
    frame = _GAUGE_LINE[name]
    state = SpinorState1D(_GRID, frame,
                          np.vstack([_component(p) for p in packets]))
    assume(charge(state) >= 1e-3)
    model = _gauge_model(name, frame, coupling, g_index)
    assert _charge_drift(state, model, 0.5 * _GRID.h, m) \
        <= _LINE_DRIFT_BOUND


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["soler", "zero"]),
       amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
       center=st.one_of(st.just(0.0), st.floats(1.0, 5.0)),
       width=st.floats(1.0, 2.0), coupling=st.floats(-2.0, 2.0),
       g_index=st.integers(0, 2), m=st.sampled_from([0.0, 1.0]))
def test_gauge_invariant_models_conserve_charge_radially(
        name, amplitudes, center, width, coupling, g_index, m):
    r = _RADIAL.r
    env = np.exp(-((r - center) / width) ** 2)
    odd = env * r / max(center, width)
    rows = [a * f for a, f in zip(amplitudes, (env, env, odd, odd))]
    state = RadialSpinorState(_RADIAL, np.vstack(rows))
    assume(charge(state) >= 1e-3)
    model = _gauge_model(name, "spinor_psi", coupling, g_index)
    assert _charge_drift(state, model, 0.5 * _RADIAL.h, m) \
        <= _RADIAL_DRIFT_BOUND


# The frame oracle: for each gauge-invariant lab model, the psi run with
# the model's image is the frame map of the lab run. thirring's image is
# also the catalog's thirring_psi.
@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["bec_resonance", "gross_neveu", "thirring",
                             "zero"]),
       packets=st.lists(st.lists(_resolved_packets, min_size=1, max_size=2),
                        min_size=2, max_size=2),
       coupling=st.floats(-2.0, 2.0), m=st.sampled_from([0.0, 1.0]))
def test_psi_run_with_the_image_model_is_the_mapped_lab_run(
        name, packets, coupling, m):
    lab = _gauge_model(name, "lab_uv", coupling, 0)
    s0 = SpinorState1D(_GRID, "lab_uv",
                       np.vstack([_component(p) for p in packets]))
    images = [t_transform_model(lab)]
    if name == "thirring":
        images.append(builtin("thirring_psi", coupling=coupling))
    run = dict(t_end=1.0, dt=0.5 * _GRID.h, m=m, sample_stride=20)
    want = to_spinor_frame(integrate(s0, lab, **run).states[-1]).fields
    scale = 1.0 + float(np.max(np.abs(want)))
    for hat in images:
        got = integrate(to_spinor_frame(s0), hat, **run).states[-1].fields
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, hat.name


# the stencil's grids and node values: signed zeros, subnormals and
# ordinary magnitudes, so that zero signs and gradual underflow show
_STENCIL_GRIDS = {"line": Grid1D(-3.0, 5.0, 40),
                  "radial": RadialGrid(7.0, 40)}
_node_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309]),
    st.floats(-1e6, 1e6))


@st.composite
def _stencil_blocks(draw):
    """Real and imaginary node values, each either a whole array or a
    column window ``f[..., a:b]`` of a wider block, a non-contiguous view
    such as a time stepper's window."""
    shape = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    n = draw(st.integers(8, 40))
    left, right = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    blocks = []
    for _ in range(2):
        wide = draw(hnp.arrays(np.float64, shape + (left + n + right,),
                               elements=_node_values))
        blocks.append(wide[..., left:left + n])
    return tuple(blocks)


def _written_out(f, grid, parity):
    """reference_deriv1 on a line block, or row by row on a radial block,
    each row with its own parity."""
    if parity == "none":
        return reference_deriv1(f, grid)
    return np.stack([reference_deriv1(row, grid, name)
                     for row, name in zip(f, parity)])


@settings(max_examples=200, deadline=None)
@given(block=_stencil_blocks(),
       geometry=st.sampled_from(sorted(_STENCIL_GRIDS)),
       names=st.lists(st.sampled_from(["even", "odd"]), min_size=3,
                      max_size=3))
def test_deriv1_is_the_written_out_stencil(block, geometry, names):
    grid = _STENCIL_GRIDS[geometry]
    re, im = block
    parity = "none"
    if geometry == "radial":
        # a radial block is 2-D, one parity name per row
        re, im = np.atleast_2d(re), np.atleast_2d(im)
        parity = tuple(names[:len(re)])
    got = deriv1(re, grid, parity)
    assert got.tobytes() == _written_out(re, grid, parity).tobytes()
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    got_z = deriv1(z, grid, parity)
    ref_z = _written_out(z, grid, parity)
    assert np.array_equal(got_z.real, ref_z.real)
    assert np.array_equal(got_z.imag, ref_z.imag)
    # a complex column window of a wider block gives the same bytes
    wide = np.zeros(z.shape[:-1] + (z.shape[-1] + 3,), complex)
    wide[..., 1:-2] = z
    assert deriv1(wide[..., 1:-2], grid, parity).tobytes() == got_z.tobytes()
    # each stacked row is bitwise its own 1-row block, with its own name
    for f, stacked in ((re, got), (z, got_z)):
        for i, (row, out) in enumerate(zip(np.atleast_2d(f),
                                           np.atleast_2d(stacked))):
            own = parity if parity == "none" else parity[i:i + 1]
            assert out.tobytes() == deriv1(row[None], grid, own).tobytes()
