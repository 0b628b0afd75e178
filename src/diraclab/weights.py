"""Weight functions with closed-form derivatives.

Every derivative used inside a virial right-hand side is analytic; finite
differencing of weights happens only in tests. Radial weights additionally
carry the singular combinations (phi/r, phi/r^3, dphi/r) that the radial
virials read on (0, inf), where the plain quotients would lose accuracy
or overflow near r = 0 if formed naively from phi itself.
"""

import numpy as np

__all__ = [
    "WeightSpec",
    "tanh_1d",
    "half_tanh",
    "sech_1d",
    "r32_weight",
    "r2_over_1pr4_weight",
]


class WeightSpec:
    """Bundle of a scalar weight and its first three derivatives.

    Parameters
    ----------
    name : str
    phi, dphi, d2phi, d3phi : callables, ndarray -> ndarray
    singular : dict, optional
        Closed-form maps for radial quotients. Recognized keys:
        phi_over_r, phi_over_r3, dphi_over_r.
    """

    def __init__(self, name, phi, dphi, d2phi, d3phi, singular=None):
        self.name = name
        self.phi = phi
        self.dphi = dphi
        self.d2phi = d2phi
        self.d3phi = d3phi
        self.singular = dict(singular) if singular else {}

    def at(self, name, x):
        """Weight function ``name`` (phi, dphi, d2phi, d3phi) or
        singular quotient ``name`` (a key of ``singular``) at x; an
        unknown name raises KeyError."""
        if name in ("phi", "dphi", "d2phi", "d3phi"):
            return getattr(self, name)(x)
        if name not in self.singular:
            raise KeyError(
                f"weight '{self.name}' lacks singular combination '{name}'")
        return self.singular[name](x)

    def __repr__(self):
        return f"WeightSpec({self.name!r})"


def tanh_1d():
    """phi(x) = tanh(x)."""
    def phi(x):
        return np.tanh(x)

    def dphi(x):
        return 1.0 / np.cosh(x) ** 2

    def d2phi(x):
        c = 1.0 / np.cosh(x) ** 2
        return -2.0 * c * np.tanh(x)

    def d3phi(x):
        c = 1.0 / np.cosh(x) ** 2
        t = np.tanh(x)
        return 4.0 * c * t * t - 2.0 * c * c

    return WeightSpec("tanh", phi, dphi, d2phi, d3phi)


def half_tanh(side=+1):
    """phi0(x) = (1 + side*tanh(x))/2, the one-sided cutoff pair."""
    s = float(np.sign(side)) or 1.0

    def phi(x):
        return 0.5 * (1.0 + s * np.tanh(x))

    def dphi(x):
        return 0.5 * s / np.cosh(x) ** 2

    def d2phi(x):
        return -s * np.tanh(x) / np.cosh(x) ** 2

    def d3phi(x):
        c = 1.0 / np.cosh(x) ** 2
        t = np.tanh(x)
        return s * (2.0 * c * t * t - c * c)

    label = "right" if s > 0 else "left"
    return WeightSpec(f"half_tanh({label})", phi, dphi, d2phi, d3phi)


def sech_1d():
    """phi(x) = sech(x)."""
    def phi(x):
        return 1.0 / np.cosh(x)

    def dphi(x):
        return -np.tanh(x) / np.cosh(x)

    def d2phi(x):
        c = 1.0 / np.cosh(x)
        t = np.tanh(x)
        return c * t * t - c ** 3

    def d3phi(x):
        c = 1.0 / np.cosh(x)
        t = np.tanh(x)
        return -c * t ** 3 + 5.0 * c ** 3 * t

    return WeightSpec("sech", phi, dphi, d2phi, d3phi)


def r32_weight():
    """phi(r) = r^{3/2}/(1+r), the radial virial weight.

    All quotient combinations are provided in closed form; two behave
    like r^{-1/2} or r^{-3/2} near the origin and must never be assembled
    by dividing phi(r) on the grid.
    """
    def phi(r):
        return r ** 1.5 / (1.0 + r)

    def dphi(r):
        return np.sqrt(r) * (r + 3.0) / (2.0 * (1.0 + r) ** 2)

    def d2phi(r):
        return 3.0 / (4.0 * np.sqrt(r) * (1.0 + r)) \
            - np.sqrt(r) * (r + 3.0) / (1.0 + r) ** 3

    def d3phi(r):
        sr = np.sqrt(r)
        q = 1.0 + r
        return (-0.375 / (sr * r * q) - 2.25 / (sr * q ** 2)
                + 9.0 * sr / q ** 3 - 6.0 * sr * r / q ** 4)

    singular = {
        "phi_over_r": lambda r: np.sqrt(r) / (1.0 + r),
        "phi_over_r3": lambda r: 1.0 / (r ** 1.5 * (1.0 + r)),
        "dphi_over_r": lambda r: (r + 3.0) / (2.0 * np.sqrt(r) * (1.0 + r) ** 2),
    }
    return WeightSpec("r32_over_1pr", phi, dphi, d2phi, d3phi,
                      singular=singular)


def r2_over_1pr4_weight():
    """phi(r) = r^2/(1+r)^4, the radial sech-like compact weight."""
    def phi(r):
        return r * r / (1.0 + r) ** 4

    def dphi(r):
        return 2.0 * r * (1.0 - r) / (1.0 + r) ** 5

    def d2phi(r):
        return (6.0 * r * r - 12.0 * r + 2.0) / (1.0 + r) ** 6

    def d3phi(r):
        return -24.0 * (r * r - 3.0 * r + 1.0) / (1.0 + r) ** 7

    singular = {
        "phi_over_r": lambda r: r / (1.0 + r) ** 4,
        "phi_over_r3": lambda r: 1.0 / (r * (1.0 + r) ** 4),
        "dphi_over_r": lambda r: 2.0 * (1.0 - r) / (1.0 + r) ** 5,
    }
    return WeightSpec("r2_over_1pr4", phi, dphi, d2phi, d3phi,
                      singular=singular)
