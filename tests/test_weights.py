import numpy as np
import pytest

from diraclab import weights as W


def _fd(fun, x, k, h):
    # 6th-order central stencil composed k times; oracle only
    c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0

    def once(g):
        return lambda t: sum(ci * g(t + j * h)
                             for ci, j in zip(c, range(-3, 4))) / h

    g = fun
    for _ in range(k):
        g = once(g)
    return g(x)


LINE_WEIGHTS = [W.tanh_1d(), W.half_tanh(), W.sech_1d()]


@pytest.mark.parametrize("spec", LINE_WEIGHTS, ids=lambda s: s.name)
def test_line_weight_derivatives_match_fd(spec):
    x = np.linspace(-4.0, 4.0, 33)
    assert np.max(np.abs(_fd(spec.phi, x, 1, 1e-2) - spec.dphi(x))) < 1e-8
    assert np.max(np.abs(_fd(spec.phi, x, 2, 1e-2) - spec.d2phi(x))) < 1e-7
    assert np.max(np.abs(_fd(spec.phi, x, 3, 1e-2) - spec.d3phi(x))) < 1e-6


RADIAL_WEIGHTS = [W.r32_weight(), W.r2_over_1pr4_weight()]

# Closed forms of the quotients that only the tests' closed form of
# d/dt(K1 + tK1 - K2 - tK2) reads, by weight name; the library weights
# carry the ones the program reads.
TEST_QUOTIENTS = {
    "r32_over_1pr": {
        "phi_over_r2": lambda r: 1.0 / (np.sqrt(r) * (1.0 + r)),
        "dphi_over_r2": lambda r: (r + 3.0) / (2.0 * r ** 1.5
                                               * (1.0 + r) ** 2),
        "d2phi_over_r": lambda r: 3.0 / (4.0 * r ** 1.5 * (1.0 + r))
            - (r + 3.0) / (np.sqrt(r) * (1.0 + r) ** 3),
    },
    "r2_over_1pr4": {
        "phi_over_r2": lambda r: 1.0 / (1.0 + r) ** 4,
        "dphi_over_r2": lambda r: 2.0 * (1.0 - r) / (r * (1.0 + r) ** 5),
        "d2phi_over_r": lambda r: (6.0 * r * r - 12.0 * r + 2.0)
            / (r * (1.0 + r) ** 6),
    },
}


def sing(spec, key, r):
    """``spec.at(key, r)``, or the tests' closed form of ``key``."""
    quotients = TEST_QUOTIENTS.get(spec.name, {})
    if key in quotients:
        return quotients[key](r)
    return spec.at(key, r)


@pytest.mark.parametrize("spec", RADIAL_WEIGHTS, ids=lambda s: s.name)
def test_radial_weight_derivatives_match_fd(spec):
    r = np.linspace(0.1, 30.0, 300)
    for k, deriv in ((1, spec.dphi), (2, spec.d2phi), (3, spec.d3phi)):
        num = _fd(spec.phi, r, k, 1e-3)
        rel = np.max(np.abs(num - deriv(r)) / (1.0 + np.abs(deriv(r))))
        assert rel < 1e-4, (spec.name, k, rel)


@pytest.mark.parametrize("spec", RADIAL_WEIGHTS, ids=lambda s: s.name)
def test_singular_combos_match_direct_quotients(spec):
    r = np.linspace(0.05, 30.0, 500)
    direct = {
        "phi_over_r": spec.phi(r) / r,
        "phi_over_r2": spec.phi(r) / r ** 2,
        "phi_over_r3": spec.phi(r) / r ** 3,
        "dphi_over_r": spec.dphi(r) / r,
        "dphi_over_r2": spec.dphi(r) / r ** 2,
        "d2phi_over_r": spec.d2phi(r) / r,
    }
    assert set(spec.singular) | set(TEST_QUOTIENTS[spec.name]) == set(direct)
    for key, ref in direct.items():
        rel = np.max(np.abs(sing(spec, key, r) - ref) / (1.0 + np.abs(ref)))
        assert rel < 1e-12, (spec.name, key, rel)


def test_singular_combos_finite_at_small_r():
    r = np.array([1e-8, 1e-4, 1e-2])
    for spec in RADIAL_WEIGHTS:
        for key in ("phi_over_r", "phi_over_r2", "phi_over_r3",
                    "dphi_over_r", "dphi_over_r2", "d2phi_over_r"):
            assert np.all(np.isfinite(sing(spec, key, r)))


def test_missing_singular_key_raises():
    sp = W.tanh_1d()
    assert not sp.singular
    with pytest.raises(KeyError, match="weight 'tanh' lacks singular "
                       "combination 'phi_over_r'"):
        sp.at("phi_over_r", np.array([1.0]))


@pytest.mark.parametrize("spec", RADIAL_WEIGHTS, ids=lambda s: s.name)
def test_at_reads_derivatives_and_singular_quotients(spec):
    r = np.linspace(0.05, 30.0, 50)
    for name in ("phi", "dphi", "d2phi", "d3phi"):
        assert np.array_equal(spec.at(name, r), getattr(spec, name)(r))
    for key in spec.singular:
        assert np.array_equal(spec.at(key, r), spec.singular[key](r))


def test_half_tanh_partition_of_unity():
    # the cutoff and its mirror image phi(-x) split unity
    x = np.linspace(-6.0, 6.0, 25)
    phi = W.half_tanh().phi
    assert np.allclose(phi(x) + phi(-x), 1.0, atol=1e-15)
    assert np.all(np.diff(phi(x)) > 0)


def test_r32_weight_profile():
    sp = W.r32_weight()
    r = np.linspace(0.01, 50.0, 200)
    # increasing, bounded by sqrt(r), ~ sqrt(r) for large r
    assert np.all(sp.dphi(r) > 0)
    assert np.all(sp.phi(r) <= np.sqrt(r))
    assert sp.phi(np.array([2500.0]))[0] == pytest.approx(50.0, rel=2e-2)


def test_r2_over_1pr4_profile():
    sp = W.r2_over_1pr4_weight()
    r = np.linspace(0.01, 50.0, 200)
    peak = sp.phi(np.array([1.0]))[0]
    assert peak == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert np.all(sp.phi(r) <= peak + 1e-15)
    # sign change of dphi at r = 1 exactly
    assert sp.dphi(np.array([0.5]))[0] > 0 > sp.dphi(np.array([2.0]))[0]
