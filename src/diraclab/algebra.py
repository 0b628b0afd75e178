"""Pauli and Dirac matrix families with exact integer entries.

All matrices are built from small integers so the anticommutation checks
below are exact equalities, not tolerance comparisons.
"""

import numpy as np

__all__ = [
    "pauli",
    "alpha_beta",
    "split_alpha",
    "check_clifford",
    "AlphaSplit",
    "ValidationReport",
]


def pauli(j):
    """Return the 2x2 Pauli matrix sigma^j, j in {1,2,3}."""
    if j == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if j == 2:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if j == 3:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"pauli index must be 1, 2 or 3, got {j}")


def alpha_beta(n):
    """Alpha and beta matrices for spatial dimension n.

    Returns
    -------
    alphas : list of ndarray
        The n matrices alpha^1..alpha^n.
    beta : ndarray

    n=1 uses (alpha^1, beta) = (-sigma^2, sigma^3); n=2 uses
    (sigma^1, sigma^2, sigma^3); n=3 uses the 4x4 block form
    alpha^j = [[0, sigma^j], [sigma^j, 0]], beta = diag(I2, -I2).
    """
    if n == 1:
        return [-pauli(2)], pauli(3)
    if n == 2:
        return [pauli(1), pauli(2)], pauli(3)
    if n == 3:
        alphas = []
        for j in (1, 2, 3):
            a = np.zeros((4, 4), dtype=complex)
            a[:2, 2:] = pauli(j)
            a[2:, :2] = pauli(j)
            alphas.append(a)
        beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        return alphas, beta
    raise ValueError(f"unsupported dimension {n}; only n in {{1,2,3}}")


class AlphaSplit:
    """Entrywise real/imaginary decomposition alpha = alpha_r + i*alpha_i.

    Each alpha matrix in the standard representations is purely real or
    purely imaginary, so exactly one of the two parts is nonzero.
    """

    def __init__(self, alpha_r, alpha_i):
        self.alpha_r = np.asarray(alpha_r, dtype=float)
        self.alpha_i = np.asarray(alpha_i, dtype=float)

    def __repr__(self):
        kind = "real" if np.any(self.alpha_r) else "imaginary"
        return f"AlphaSplit(n={self.alpha_r.shape[0]}, {kind})"


def split_alpha(alpha):
    """Split alpha into real and imaginary parts, enforcing purity.

    Raises
    ------
    ValueError
        If the matrix has both nonzero real and nonzero imaginary
        entries (mixed matrices are outside the representation family).
    """
    alpha = np.asarray(alpha, dtype=complex)
    a_r = alpha.real.copy()
    a_i = alpha.imag.copy()
    if np.any(a_r) and np.any(a_i):
        raise ValueError(
            "matrix mixes real and imaginary entries; expected purely "
            "real or purely imaginary alpha"
        )
    return AlphaSplit(a_r, a_i)


class ValidationReport:
    """Per-relation defect table; passes iff the worst defect is 0.0 exactly."""

    def __init__(self, n, relations):
        self.n = n
        self.relations = relations  # list of (name, defect)

    @property
    def max_defect(self):
        return max(d for _, d in self.relations) if self.relations else 0.0

    @property
    def passed(self):
        return self.max_defect == 0.0

    def lines(self):
        out = []
        for name, defect in self.relations:
            status = "pass" if defect == 0.0 else "FAIL"
            out.append(f"{status}  defect={defect:.3e}  {name}")
        return out

    def __repr__(self):
        return (f"ValidationReport(n={self.n}, relations={len(self.relations)}, "
                f"max_defect={self.max_defect}, passed={self.passed})")


def _maxabs(m):
    return float(np.max(np.abs(m)))


def check_clifford(n):
    """Validate every anticommutation, involution and symmetry relation.

    Covers the complex family (alpha^j alpha^k + alpha^k alpha^j = 2 delta_jk I,
    alpha^j beta + beta alpha^j = 0, squares equal to I, Hermiticity) and the
    real/imaginary split family (mixed anticommutators, difference of squares,
    alpha_r symmetric / alpha_i antisymmetric). Entries are exact integers, so
    a correct build reports defect exactly 0.
    """
    alphas, beta = alpha_beta(n)
    N = beta.shape[0]
    eye = np.eye(N)
    rel = []

    for j, aj in enumerate(alphas, start=1):
        for k, ak in enumerate(alphas, start=1):
            target = 2.0 * eye if j == k else 0.0
            rel.append((f"alpha^{j} alpha^{k} + alpha^{k} alpha^{j} = 2 delta I",
                        _maxabs(aj @ ak + ak @ aj - target)))
        rel.append((f"alpha^{j} beta + beta alpha^{j} = 0",
                    _maxabs(aj @ beta + beta @ aj)))
        rel.append((f"(alpha^{j})^2 = I", _maxabs(aj @ aj - eye)))
        rel.append((f"(alpha^{j})^dagger = alpha^{j}",
                    _maxabs(aj.conj().T - aj)))
    rel.append(("beta^2 = I", _maxabs(beta @ beta - eye)))

    splits = [split_alpha(a) for a in alphas]
    for j, sj in enumerate(splits, start=1):
        for k, sk in enumerate(splits, start=1):
            # mixed relation: {a_r^j, a_r^k} - {a_i^j, a_i^k} = 2 delta_jk I
            lhs = (sj.alpha_r @ sk.alpha_r + sk.alpha_r @ sj.alpha_r
                   - sj.alpha_i @ sk.alpha_i - sk.alpha_i @ sj.alpha_i)
            target = 2.0 * eye if j == k else 0.0
            rel.append((f"{{a_r^{j},a_r^{k}}} - {{a_i^{j},a_i^{k}}} = 2 delta I",
                        _maxabs(lhs - target)))
            rel.append((f"a_r^{j} a_i^{k} + a_i^{k} a_r^{j} = 0",
                        _maxabs(sj.alpha_r @ sk.alpha_i + sk.alpha_i @ sj.alpha_r)))
        rel.append((f"(a_r^{j})^2 - (a_i^{j})^2 = I",
                    _maxabs(sj.alpha_r @ sj.alpha_r - sj.alpha_i @ sj.alpha_i - eye)))
        rel.append((f"(a_r^{j})^T = a_r^{j}", _maxabs(sj.alpha_r.T - sj.alpha_r)))
        rel.append((f"(a_i^{j})^T = -a_i^{j}", _maxabs(sj.alpha_i.T + sj.alpha_i)))

    return ValidationReport(n, rel)
