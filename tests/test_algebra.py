import numpy as np
import pytest

from diraclab.algebra import (
    AlphaSplit,
    alpha_beta,
    check_clifford,
    pauli,
    split_alpha,
)


def test_pauli_algebra_exact():
    s1, s2, s3 = pauli(1), pauli(2), pauli(3)
    eye = np.eye(2)
    for s in (s1, s2, s3):
        assert np.array_equal(s @ s, eye)
        assert np.array_equal(s.conj().T, s)
    assert np.array_equal(s1 @ s2, 1j * s3)
    assert np.array_equal(s2 @ s3, 1j * s1)
    assert np.array_equal(s3 @ s1, 1j * s2)


def test_pauli_bad_index():
    with pytest.raises(ValueError):
        pauli(0)
    with pytest.raises(ValueError):
        pauli(4)


def test_alpha_beta_shapes():
    for n, size in ((1, 2), (2, 2), (3, 4)):
        alphas, beta = alpha_beta(n)
        assert len(alphas) == n
        assert beta.shape == (size, size)
        for a in alphas:
            assert a.shape == (size, size)
    with pytest.raises(ValueError):
        alpha_beta(4)


def test_anticommutation_exact():
    for n in (1, 2, 3):
        alphas, beta = alpha_beta(n)
        eye = np.eye(beta.shape[0])
        for j, aj in enumerate(alphas):
            for k, ak in enumerate(alphas):
                target = 2.0 * eye if j == k else np.zeros_like(eye)
                assert np.array_equal(aj @ ak + ak @ aj, target)
            assert np.array_equal(aj @ beta + beta @ aj, np.zeros_like(eye))
        assert np.array_equal(beta @ beta, eye)


def test_check_clifford_zero_defect():
    for n in (1, 2, 3):
        report = check_clifford(n)
        assert report.passed
        assert report.max_defect == 0.0
        assert len(report.relations) >= 10
        assert all(line.startswith("pass") for line in report.lines())


def test_split_alpha_purity():
    sp = split_alpha(pauli(1))
    assert not np.any(sp.alpha_i)
    assert np.array_equal(sp.alpha_r, pauli(1).real)

    sp2 = split_alpha(pauli(2))
    assert not np.any(sp2.alpha_r)
    # real antisymmetric carrier of the imaginary part
    assert np.array_equal(sp2.alpha_i, np.array([[0.0, -1.0], [1.0, 0.0]]))

    with pytest.raises(ValueError):
        split_alpha(pauli(1) + pauli(2))


def test_split_roundtrip_and_symmetry():
    for n in (1, 2, 3):
        alphas, _ = alpha_beta(n)
        for a in alphas:
            sp = split_alpha(a)
            assert np.array_equal(sp.alpha_r + 1j * sp.alpha_i, a)
            assert np.array_equal(sp.alpha_r.T, sp.alpha_r)
            assert np.array_equal(sp.alpha_i.T, -sp.alpha_i)


def test_n1_alpha_is_minus_sigma2():
    alphas, beta = alpha_beta(1)
    assert np.array_equal(alphas[0], -pauli(2))
    assert np.array_equal(beta, pauli(3))
    sp = split_alpha(alphas[0])
    # alpha_i = [[0,1],[-1,0]]: the convention the 1D identities hinge on
    assert np.array_equal(sp.alpha_i, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_report_flags_broken_relation():
    rep = check_clifford(2)
    rep.relations.append(("planted failure", 0.5))
    assert not rep.passed
    assert rep.max_defect == 0.5
    assert any(line.startswith("FAIL") for line in rep.lines())


def test_alphasplit_repr():
    assert "imaginary" in repr(split_alpha(pauli(2)))
    assert "real" in repr(split_alpha(pauli(1)))
    assert isinstance(split_alpha(pauli(3)), AlphaSplit)
