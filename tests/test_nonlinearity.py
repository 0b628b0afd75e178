import numpy as np
import pytest

from diraclab import nonlinearity as NL
from diraclab.nonlinearity import (
    NonlinearityModel,
    builtin,
    check_all,
    check_bd_dependence,
    check_gauge_symmetry,
    check_growth,
    check_harmonic,
    check_phase_separable,
    check_polynomial,
    require_zero_at_rest,
    sample_states,
)

POTENTIAL_MODELS = ["thirring", "gross_neveu", "bec_resonance",
                    "thirring_psi", "quartic_harmonic"]


def _wirtinger_fd(model, z1, z2, which, eps=1e-4):
    # 4th-order FD of the on-shell potential in the Wirtinger sense:
    # dW/d conj(z) = (1/2)(d/dx + i d/dy) W
    def W(a, b):
        return np.asarray(model.eval_W(a, b))

    def diff(step):
        if which == 1:
            vals = [W(z1 + k * step, z2) for k in (-2, -1, 1, 2)]
        else:
            vals = [W(z1, z2 + k * step) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) \
            / (12.0 * eps)

    return 0.5 * (diff(eps) + 1j * diff(1j * eps))


def test_thirring_reference_values():
    m = builtin("thirring")
    one, two = np.array([1.0 + 0j]), np.array([2.0 + 0j])
    assert m.potential(one, two)[0] == pytest.approx(4.0)
    W1, W2 = m.grad(one, two)
    assert W1[0] == pytest.approx(4.0 + 0j)
    assert W2[0] == pytest.approx(2.0 + 0j)


def test_quartic_harmonic_reference_values():
    m = builtin("quartic_harmonic")
    W1, W2 = m.grad(np.array([1.0 + 0j]), np.array([1j]))
    assert W1[0] == pytest.approx(16.0 + 0j)
    assert W2[0] == pytest.approx(16.0j)


def test_all_models_vanish_at_origin():
    zero = np.zeros(1, dtype=complex)
    for name in POTENTIAL_MODELS + ["soler", "isotropic_pair",
                                    "cubic_conjugate_pair", "zero"]:
        m = builtin(name)
        W1, W2 = m.grad(zero, zero)
        assert abs(W1[0]) == 0.0 and abs(W2[0]) == 0.0


@pytest.mark.parametrize("name", POTENTIAL_MODELS)
def test_gradients_match_wirtinger_oracle(name):
    m = builtin(name)
    z1, z2 = sample_states(1000, 11)
    w1, w2 = m.grad(z1, z2)
    scale = 1.0 + np.abs(w1) + np.abs(w2)
    rel1 = np.max(np.abs(w1 - _wirtinger_fd(m, z1, z2, 1)) / scale)
    rel2 = np.max(np.abs(w2 - _wirtinger_fd(m, z1, z2, 2)) / scale)
    assert rel1 < 1e-8 and rel2 < 1e-8, (name, rel1, rel2)


@pytest.mark.parametrize("name", ["thirring", "gross_neveu", "bec_resonance",
                                  "thirring_psi"])
def test_gauge_and_swap_symmetry_pass(name):
    gauge_ok, symmetry_ok = check_gauge_symmetry(builtin(name))
    assert gauge_ok and symmetry_ok


def test_gauge_fails_for_phase_sensitive_potentials():
    # synthetic W = u + conj(u): theta = pi flips the sign
    m = NonlinearityModel(
        "re_u", "lab_uv", 1,
        lambda a, b, c, d: (np.ones_like(a), np.zeros_like(a)),
        eval_W=lambda z1, z2: 2.0 * z1.real)
    gauge_ok, _ = check_gauge_symmetry(m)
    assert not gauge_ok
    # the quartic potential is complex valued and picks up e^{-4 i theta}
    gauge_ok, _ = check_gauge_symmetry(builtin("quartic_harmonic"))
    assert not gauge_ok


def test_harmonic_positive_negative_pair():
    rep_q = check_harmonic(builtin("quartic_harmonic"))
    assert rep_q.ok and rep_q.defect < 1e-9
    rep_t = check_harmonic(builtin("thirring_psi"))
    assert not rep_t.ok and rep_t.defect > 0.1


def test_harmonic_flagged_combination_closed_form():
    rep = check_harmonic(builtin("thirring_psi"))
    z1, z2 = sample_states(NL._N_SAMPLES, NL._SEED)
    closed = np.max(0.5 * np.abs(np.abs(z1) ** 2 - np.abs(z2) ** 2))
    got = rep.by_condition["dc_W2_minus_da_W1"]
    assert abs(got - closed) <= 1e-6 * closed


def test_harmonic_passes_zero_and_parity_families():
    assert check_harmonic(builtin("zero")).ok
    assert check_harmonic(builtin("isotropic_pair")).ok
    assert check_harmonic(builtin("cubic_conjugate_pair")).ok
    assert not check_harmonic(builtin("soler")).ok


def test_bd_dependence_verdicts():
    assert check_bd_dependence(builtin("quartic_harmonic"))
    assert check_bd_dependence(builtin("zero"))
    assert not check_bd_dependence(builtin("thirring_psi"))
    assert not check_bd_dependence(builtin("isotropic_pair"))
    assert not check_bd_dependence(builtin("cubic_conjugate_pair"))


def test_growth_slopes():
    assert check_growth(builtin("thirring")).slope == pytest.approx(3.0, abs=1e-6)
    assert check_growth(builtin("quartic_harmonic")).slope == pytest.approx(
        3.0, abs=1e-6)
    assert check_growth(builtin("bec_resonance")).slope == pytest.approx(
        5.0, abs=1e-6)
    assert check_growth(builtin("soler")).slope == pytest.approx(3.0, abs=1e-6)
    # quintic soler: g(s) = s^2
    assert check_growth(NL.soler(g_coeffs=(0.0, 1.0))).slope == pytest.approx(
        5.0, abs=1e-6)
    # demanding a higher power than the model carries must fail
    assert not check_growth(builtin("thirring"), p_expected=4)
    # zero model passes vacuously
    assert check_growth(builtin("zero")).ok


def test_polynomial_checker():
    for name in POTENTIAL_MODELS + ["soler", "zero"]:
        assert check_polynomial(builtin(name)), name
    trig = NonlinearityModel(
        "sin_pair", "spinor_psi", 1,
        lambda a, b, c, d: (np.sin(b), np.sin(d)))
    assert not check_polynomial(trig)


def test_phase_separability():
    assert check_phase_separable(builtin("thirring"))
    assert check_phase_separable(builtin("bec_resonance"))
    res = check_phase_separable(builtin("gross_neveu"))
    assert not res.ok and res.defect > 1e-3
    # check_all classifies every model with a potential, and reports
    # None where there is none
    for name in ("thirring", "bec_resonance", "zero"):
        assert check_all(builtin(name))["phase_separable_ok"] is True, name
    for name in ("gross_neveu", "quartic_harmonic", "thirring_psi"):
        rep = check_all(builtin(name))
        assert rep["phase_separable_ok"] is False, name
        assert rep["defects"]["phase_separable"] > 1.0, name
    rep = check_all(builtin("soler"))
    assert rep["phase_separable_ok"] is None
    assert "phase_separable" not in rep["defects"]


def test_soler_equals_diagonal_form():
    m = builtin("soler", g_coeffs=(2.0,))
    z1, z2 = sample_states(50, 3)
    w1, w2 = m.grad(z1, z2)
    X = np.abs(z1) ** 2 - np.abs(z2) ** 2
    assert np.max(np.abs(w1 - 2.0 * X * z1)) < 1e-12
    assert np.max(np.abs(w2 - 2.0 * X * z2)) < 1e-12
    with pytest.raises(ValueError):
        m.potential(z1, z2)  # no joint potential in the diagonal family


def test_soler_g_validation():
    with pytest.raises(ValueError):
        NL.soler(g_coeffs=(0.0, 0.0))


def test_isotropic_pair_validation():
    with pytest.raises(ValueError):
        NL.isotropic_pair(a=(1.0, 1.0))
    with pytest.raises(ValueError):
        NL.isotropic_pair(m=2)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin("cubic_focusing")


def test_arity_validation():
    # the frames are lab_uv and spinor_psi; radial states are spinor_psi
    for arity in ("matrix", "radial_phi"):
        with pytest.raises(ValueError):
            NonlinearityModel("bad", arity, 3, lambda a, b, c, d: (a, c))


def test_w_fields_decomposition():
    m = builtin("gross_neveu")
    z1, z2 = sample_states(20, 5)
    W11, W12, W21, W22 = m.w_fields(z1, z2)
    w1, w2 = m.grad(z1, z2)
    assert np.array_equal(W11 + 1j * W12, w1)
    assert np.array_equal(W21 + 1j * W22, w2)


def test_check_all_aggregation():
    rep = check_all(builtin("thirring"))
    assert rep["gauge_ok"] and rep["symmetry_ok"] and rep["polynomial_ok"]
    assert rep["growth_ok"] and rep["name"] == "thirring"
    assert set(rep) >= {"name", "arity", "p", "gauge_ok", "harmonic_ok",
                        "bd_dependence_ok", "growth_ok", "defects"}

    rep_soler = check_all(builtin("soler"))
    assert rep_soler["gauge_ok"] is None  # no potential to test
    assert rep_soler["growth_ok"] and not rep_soler["harmonic_ok"]


@pytest.mark.parametrize("name, params", [
    *((name, {}) for name in sorted(NL._BUILTINS)),
    ("soler", {"g_coeffs": (0.0, 1.0)}),
    ("soler", {"g_coeffs": (2.0, -1.0, 0.5)}),
    ("soler", {"g_coeffs": (0.0, 0.0, 3.0)}),
])
def test_catalog_gradients_vanish_at_the_zero_state(name, params):
    require_zero_at_rest(builtin(name, **params), "test")


def test_a_gradient_that_moves_the_zero_state_is_refused():
    affine = NonlinearityModel("affine", "spinor_psi", 1,
                               lambda a, b, c, d: (b + 0.5, d))
    with pytest.raises(ValueError, match="'affine' has a nonzero gradient"):
        require_zero_at_rest(affine, "test")


@pytest.mark.parametrize("name", ["zero", "isotropic_pair"])
def test_uncoupled_factories_refuse_a_coupling(name):
    with pytest.raises(ValueError, match=f"model '{name}' takes no coupling"):
        builtin(name, coupling=1.0)
