"""Uniform 1D and staggered radial grids, derivatives, quadrature.

The radial grid places nodes at r_k = (k + 1/2) h so r = 0 is excluded;
the singular weight combinations of the radial virials stay finite at
every node. Derivatives are 4th-order central stencils; the 1D boundary
uses one-sided closures and the radial origin uses parity ghosts.
"""

import numpy as np

__all__ = [
    "Grid1D",
    "RadialGrid",
    "deriv1",
    "quad",
]


class Grid1D:
    """Uniform nodes x_k = x_min + k*h, k = 0..n_points-1."""

    def __init__(self, x_min, x_max, n_points):
        if n_points < 16:
            raise ValueError("n_points must be at least 16")
        if not x_max > x_min:
            raise ValueError("x_max must exceed x_min")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.h = (self.x_max - self.x_min) / (self.n_points - 1)
        self.x = np.linspace(self.x_min, self.x_max, self.n_points)

    def is_symmetric(self):
        return abs(self.x_min + self.x_max) < 1e-12 * max(1.0, abs(self.x_max))

    def __repr__(self):
        return (f"Grid1D([{self.x_min:g},{self.x_max:g}], "
                f"n={self.n_points}, h={self.h:g})")


class RadialGrid:
    """Staggered radial cells: r_k = (k + 1/2) h, k = 0..n_cells-1.

    r = 0 is never a node; the first node sits at h/2.
    """

    def __init__(self, r_max, n_cells):
        if n_cells < 16:
            raise ValueError("n_cells must be at least 16")
        if not r_max > 0:
            raise ValueError("r_max must be positive")
        self.r_max = float(r_max)
        self.n_cells = int(n_cells)
        self.h = self.r_max / self.n_cells
        self.r = (np.arange(self.n_cells) + 0.5) * self.h

    def __repr__(self):
        return f"RadialGrid((0,{self.r_max:g}], n={self.n_cells}, h={self.h:g})"


def deriv1(f, grid, parity="none"):
    """First derivative, 4th-order central in the interior.

    Parameters
    ----------
    f : ndarray
    grid : Grid1D or RadialGrid
    parity : {"none", "even", "odd"}
        Grid1D accepts only "none". RadialGrid requires "even" or "odd";
        ghost values across r = 0 are the parity reflection
        f(-r) = +f(r) (even) or f(-r) = -f(r) (odd).
    """
    v = np.asarray(f)
    n = v.shape[-1]
    if n < 8:
        raise ValueError("need at least 8 nodes")
    h = grid.h
    out = np.empty_like(v, dtype=v.dtype if v.dtype.kind == "c" else float)

    if isinstance(grid, RadialGrid):
        if parity not in ("even", "odd"):
            raise ValueError("radial deriv1 requires parity 'even' or 'odd'")
        s = 1.0 if parity == "even" else -1.0
        # ghosts: f[-1] at r=-h/2 maps to node 0, f[-2] at r=-3h/2 to node 1
        out[..., 0] = (s * v[..., 1] - 8.0 * s * v[..., 0]
                       + 8.0 * v[..., 1] - v[..., 2]) / (12.0 * h)
        out[..., 1] = (s * v[..., 0] - 8.0 * v[..., 0]
                       + 8.0 * v[..., 2] - v[..., 3]) / (12.0 * h)
    else:
        if parity != "none":
            raise ValueError("parity reflection applies only to radial grids")
        out[..., 0] = (-25.0 * v[..., 0] + 48.0 * v[..., 1] - 36.0 * v[..., 2]
                       + 16.0 * v[..., 3] - 3.0 * v[..., 4]) / (12.0 * h)
        out[..., 1] = (-3.0 * v[..., 0] - 10.0 * v[..., 1] + 18.0 * v[..., 2]
                       - 6.0 * v[..., 3] + v[..., 4]) / (12.0 * h)

    out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3]
                      + 8.0 * v[..., 3:-1] - v[..., 4:]) / (12.0 * h)
    out[..., -2] = (3.0 * v[..., -1] + 10.0 * v[..., -2] - 18.0 * v[..., -3]
                    + 6.0 * v[..., -4] - v[..., -5]) / (12.0 * h)
    out[..., -1] = (25.0 * v[..., -1] - 48.0 * v[..., -2] + 36.0 * v[..., -3]
                    - 16.0 * v[..., -4] + 3.0 * v[..., -5]) / (12.0 * h)
    return out


def quad(f, grid, measure="line"):
    """Integrate a nodal field.

    Grid1D: composite trapezoid, measure "line" only.
    RadialGrid: midpoint rule h*sum; "line" integrates f dr (the virial
    bookkeeping measure), "spherical" integrates 4 pi r^2 f dr.
    """
    v = np.asarray(f)
    if isinstance(grid, RadialGrid):
        if measure == "line":
            return grid.h * np.sum(v, axis=-1)
        if measure == "spherical":
            return 4.0 * np.pi * grid.h * np.sum(grid.r ** 2 * v, axis=-1)
        raise ValueError(f"unknown measure {measure!r}")
    if measure != "line":
        raise ValueError("Grid1D supports only the line measure")
    return grid.h * (np.sum(v, axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))

