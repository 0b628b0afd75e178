import numpy as np
import pytest

from diraclab import cli, dynamics
from diraclab.algebra import SYSTEMS, check_clifford, kernel_matrices
from diraclab.grids import deriv1

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]])
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize("system, alpha, beta", [
    ("lab_1d", _S3, -_S1),
    ("spinor_1d", -_S2, _S3),
    ("radial_3d", -_S2, _S3),
])
def test_kernel_matrices_read_each_kernels_pair(system, alpha, beta):
    # exact integers, and no -0.0 entry: the bytes of the written matrices
    a, b = kernel_matrices(system)
    assert a.tobytes() == (alpha + 0.0).tobytes()
    assert b.tobytes() == (beta + 0.0).tobytes()


def test_check_clifford_zero_defect():
    for system in SYSTEMS:
        report = check_clifford(system)
        assert report.system == system
        assert report.passed
        assert report.max_defect == 0.0
        assert len(report.relations) == (10 if system == "lab_1d" else 8)
        assert all(line.startswith("pass") for line in report.lines())


def test_anticommutation_exact():
    eye = np.eye(2)
    for system in SYSTEMS:
        alpha, beta = kernel_matrices(system)
        assert np.array_equal(alpha @ alpha, eye)
        assert np.array_equal(beta @ beta, eye)
        assert np.array_equal(alpha @ beta + beta @ alpha, np.zeros((2, 2)))


def test_split_roundtrip_and_symmetry():
    for system in SYSTEMS:
        alpha, _ = kernel_matrices(system)
        a_r, a_i = alpha.real, alpha.imag
        assert np.array_equal(a_r + 1j * a_i, alpha)
        assert np.array_equal(a_r.T, a_r)
        assert np.array_equal(a_i.T, -a_i)


def test_n1_alpha_is_minus_sigma2():
    # a_i = [[0,1],[-1,0]]: the convention the 1D identities hinge on
    alpha, _ = kernel_matrices("spinor_1d")
    assert not np.any(alpha.real)
    assert np.array_equal(alpha.imag, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_unknown_system_is_refused():
    with pytest.raises(ValueError, match="unknown system 'radial_2d'"):
        kernel_matrices("radial_2d")


def test_report_flags_broken_relation():
    rep = check_clifford("spinor_1d")
    rep.relations.append(("planted failure", 0.5))
    assert not rep.passed
    assert rep.max_defect == 0.5
    assert any(line.startswith("FAIL") for line in rep.lines())


def _spinor_with_one_sign_flipped(fields, grid, model, m):
    # the spinor kernel with the sign of psi1' flipped in its second row
    p1, p2 = fields
    d1, d2 = deriv1(fields, grid)
    w1, w2 = model.grad(p1, p2)
    return np.array([-1j * ((d2 + m * p1) - w1), 1j * ((-d1 + m * p2) - w2)])


def _radial_with_row_flipped(row):
    # the radial kernel with every term of one real input row negated
    kernel = dynamics._rhs_radial_arrays

    def flipped(fields, grid, model, m):
        only = np.zeros_like(fields)
        only[row] = fields[row]
        return (kernel(fields, grid, model, m)
                - 2.0 * kernel(only, grid, model, m))
    return flipped


def test_a_kernel_with_one_sign_flipped_fails(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "_rhs_spinor_arrays",
                        _spinor_with_one_sign_flipped)
    spinor = check_clifford("spinor_1d")
    assert not spinor.passed
    assert spinor.max_defect == 2.0
    # the lab kernel is intact, but no longer maps to the spinor kernel
    lab = dict(check_clifford("lab_1d").relations)
    assert lab.pop("T alpha_lab = alpha_psi T") == 2.0
    assert set(lab.values()) == {0.0}
    assert cli.main(["check-algebra"]) == 1
    assert "spinor_1d: 8 relations, max defect 2" in capsys.readouterr().out


@pytest.mark.parametrize("row", range(4))
def test_a_radial_kernel_with_one_row_flipped_fails(monkeypatch, row):
    # each real row, the imaginary parts' included, shows in the pair
    monkeypatch.setattr(dynamics, "_rhs_radial_arrays",
                        _radial_with_row_flipped(row))
    assert not check_clifford("radial_3d").passed
    assert check_clifford("spinor_1d").passed

