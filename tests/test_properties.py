"""Property tests over randomly drawn states and catalog potentials."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diraclab import weights  # noqa: E402
from diraclab.dynamics import SpinorState1D, integrate  # noqa: E402
from diraclab.exact import inverse_t_transform, t_transform  # noqa: E402
from diraclab.grids import Grid1D, quad  # noqa: E402
from diraclab.nonlinearity import builtin  # noqa: E402
from diraclab.virials import ScalingTriple, rhs_I  # noqa: E402
from test_dynamics import (  # noqa: E402
    assert_bitwise_equal,
    reference_integrate,
)

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
                             "thirring_psi"]))
def test_gauge_and_swap_invariance(z1, z2, theta, name):
    model = builtin(name)
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
