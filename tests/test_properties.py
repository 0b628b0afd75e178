"""Property tests over randomly drawn smooth states."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from diraclab import weights  # noqa: E402
from diraclab.dynamics import SpinorState1D  # noqa: E402
from diraclab.grids import Grid1D, quad  # noqa: E402
from diraclab.virials import ScalingTriple, rhs_I  # noqa: E402

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
