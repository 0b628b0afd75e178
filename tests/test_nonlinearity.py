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


def square_modulus(coupling=1.0):
    """The checkers' negative control: the plain conjugate gradient
    W_j = (coupling/4)(psi1^2 + psi2^2) conj(psi_j) of the potential
    W = (coupling/8)|psi1^2 + psi2^2|^2.

    Gauge and swap invariant, but neither harmonic, nor (b, d)-only, nor
    phase separable. Its W2 is that of ``thirring_psi`` and its W1 the
    negative: the psi-frame equations carry the pair with the signs
    (-W1, +W2), so it is not the Thirring interaction.
    """
    co = float(coupling)

    def grad(a, b, c, d):
        s = a * a + c * c
        return 0.25 * co * s * b, 0.25 * co * s * d

    def W(z1, z2):
        return 0.125 * co * np.abs(z1 * z1 + z2 * z2) ** 2

    return NonlinearityModel("square_modulus", "spinor_psi", 3, grad, W, co)


def thirring_claiming_p4():
    """The growth check's negative control: Thirring's cubic gradient
    under a model that declares the power p = 4."""
    cubic = builtin("thirring")
    return NonlinearityModel("thirring_claiming_p4", "lab_uv", 4,
                             cubic.eval_grad, cubic.eval_W, cubic.coupling)


def model_named(name):
    """The catalog model ``name``, or the negative control."""
    return square_modulus() if name == "square_modulus" else builtin(name)


POTENTIAL_MODELS = ["thirring", "gross_neveu", "bec_resonance",
                    "square_modulus", "quartic_harmonic"]


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
    for name in POTENTIAL_MODELS + ["thirring_psi", "soler", "isotropic_pair",
                                    "cubic_conjugate_pair", "zero"]:
        m = model_named(name)
        W1, W2 = m.grad(zero, zero)
        assert abs(W1[0]) == 0.0 and abs(W2[0]) == 0.0


@pytest.mark.parametrize("name", POTENTIAL_MODELS)
def test_gradients_match_wirtinger_oracle(name):
    m = model_named(name)
    z1, z2 = sample_states(1000, 11)
    w1, w2 = m.grad(z1, z2)
    scale = 1.0 + np.abs(w1) + np.abs(w2)
    rel1 = np.max(np.abs(w1 - _wirtinger_fd(m, z1, z2, 1)) / scale)
    rel2 = np.max(np.abs(w2 - _wirtinger_fd(m, z1, z2, 2)) / scale)
    assert rel1 < 1e-8 and rel2 < 1e-8, (name, rel1, rel2)


@pytest.mark.parametrize("name", ["thirring", "gross_neveu", "bec_resonance",
                                  "square_modulus"])
def test_gauge_and_swap_symmetry_pass(name):
    gauge_ok, symmetry_ok = check_gauge_symmetry(model_named(name))
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
    rep_t = check_harmonic(square_modulus())
    assert not rep_t.ok and rep_t.defect > 0.1
    assert not check_harmonic(builtin("thirring_psi")).ok


def test_harmonic_flagged_combination_closed_form():
    rep = check_harmonic(square_modulus())
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
    assert not check_bd_dependence(square_modulus())
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
    # declaring a higher power than the gradient carries must fail
    assert not check_growth(thirring_claiming_p4())
    # zero model passes vacuously
    assert check_growth(builtin("zero")).ok


def test_polynomial_checker():
    for name in POTENTIAL_MODELS + ["thirring_psi", "soler", "zero"]:
        assert check_polynomial(model_named(name)), name
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
    for name in ("gross_neveu", "quartic_harmonic", "square_modulus"):
        rep = check_all(model_named(name))
        assert rep["phase_separable_ok"] is False, name
        assert rep["defects"]["phase_separable"] > 1.0, name
    for name in ("soler", "thirring_psi"):
        rep = check_all(builtin(name))
        assert rep["phase_separable_ok"] is None, name
        assert "phase_separable" not in rep["defects"], name


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
    block = m.w_fields(np.array([z1.real, z1.imag, z2.real, z2.imag]))
    assert block.shape == (4, 20)
    W11, W12, W21, W22 = block
    w1, w2 = m.grad(z1, z2)
    assert np.array_equal(W11 + 1j * W12, w1)
    assert np.array_equal(W21 + 1j * W22, w2)


@pytest.mark.parametrize("g_coeffs, coupling", [
    ((1.0,), 1.0), ((1.0, -0.5, 0.2), 50.0), ((0.0, 1.0), -1.0),
    ((2.0, -1.0, 0.5), 1.0), ((-1.0,), 1.0)])
def test_soler_real_split_equals_grad_value_for_value(g_coeffs, coupling):
    """soler's real split gives grad's real and imaginary parts value for
    value (==): on the checkers' sample, and on draws with +0.0 and -0.0
    entries and magnitudes down through the subnormal range.

    The signs of zeros are not compared. grad's complex products add
    imaginary parts that are zeros of either sign, which real arithmetic
    does not carry, so a zero row can come out with the other sign. Only
    the zero state must agree bit for bit; the radial kernel takes W from
    grad wherever else a zero's sign could reach the field (see
    test_dynamics::test_radial_kernel_is_the_complex_route_bit_for_bit).
    """
    model = NL.soler(g_coeffs=g_coeffs, coupling=coupling)
    z1, z2 = sample_states(200, 0)
    draws = [np.array([z1.real, z1.imag, z2.real, z2.imag])]
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.normal(size=(4, 2000)) * 10.0 ** rng.uniform(-320.0, 1.0,
                                                             (4, 2000))
        p[rng.random((4, 2000)) < 0.15] = 0.0
        p[rng.random((4, 2000)) < 0.15] *= -0.0
        draws.append(p)
    for p in draws:
        w1, w2 = model.grad(p[0] + 1j * p[1], p[2] + 1j * p[3])
        got = model.w_fields(p)
        for row, want in zip(got, (w1.real, w1.imag, w2.real, w2.imag)):
            assert np.all(row == want)
    rest = np.zeros((4, 1))
    w1, w2 = model.grad(rest[0] + 1j * rest[1], rest[2] + 1j * rest[3])
    assert (model.w_fields(rest).tobytes()
            == np.array([w1.real, w1.imag, w2.real, w2.imag]).tobytes())


def _soler_rows(g, co, p11, p12, p21, p22):
    """soler's real split written row by row: s in grad's order, then
    coupling * g(s) * p_jk for each row, and +0.0 on the imaginary rows."""
    s = 2.0 * p11
    s *= s
    s += (2.0 * p12) * (2.0 * p12)
    s -= (p21 * 2.0) ** 2
    s -= (p22 * 2.0) ** 2
    s /= 4.0
    gs = s * (0.0 + g[-1])
    for c in reversed(g[:-1]):
        gs += c
        gs *= s
    gs *= co
    return [gs * p11, gs * p12 + 0.0, gs * p21, gs * p22 + 0.0]


@pytest.mark.parametrize("name, params", [
    ("soler", {}), ("soler", {"g_coeffs": (1.0, -0.5, 0.2), "coupling": 50.0}),
    ("soler", {"g_coeffs": (0.0, 1.0), "coupling": -1.0}),
    ("quartic_harmonic", {}), ("thirring_psi", {"coupling": 2.0})])
def test_w_fields_block_is_each_rows_value_bit_for_bit(name, params):
    """The (4, n) block w_fields returns holds, bit for bit, each row's
    value written out on its own: soler's split row by row, grad's real
    and imaginary parts for a model without a split. Draws carry +0.0 and
    -0.0 entries and subnormal magnitudes; the zero state is one of
    them."""
    model = builtin(name, **params)
    rng = np.random.default_rng(11)
    draws = [np.zeros((4, 7))]
    for _ in range(4):
        p = rng.normal(size=(4, 500)) * 10.0 ** rng.uniform(-320.0, 1.0,
                                                            (4, 500))
        p[rng.random((4, 500)) < 0.15] = 0.0
        p[rng.random((4, 500)) < 0.15] *= -0.0
        draws.append(p)
    for p in draws:
        got = model.w_fields(p)
        assert got.shape == p.shape and got.flags.c_contiguous
        if model.real_split is not None:
            rows = _soler_rows(model.g_coeffs, model.coupling, *p)
        else:
            w1, w2 = model.grad(p[0] + 1j * p[1], p[2] + 1j * p[3])
            rows = [w1.real, w1.imag, w2.real, w2.imag]
        for row, want in zip(got, rows):
            assert row.tobytes() == want.tobytes()


def test_a_real_split_that_is_not_grad_at_the_zero_state_is_refused():
    base = NL.soler()

    def negated(p):
        # equal in value everywhere, but -0.0 where grad gives +0.0
        return -base.w_fields(p)

    with pytest.raises(ValueError, match="zero state"):
        NonlinearityModel("negated", "spinor_psi", 3, base.eval_grad,
                          real_split=negated)


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
