"""Uniform 1D and staggered radial grids, derivatives, quadrature.

The radial grid places nodes at r_k = (k + 1/2) h so r = 0 is excluded;
the singular weight combinations of the radial virials stay finite at
every node. Derivatives are 4th-order central stencils; the 1D boundary
uses one-sided closures and the radial origin uses parity ghosts.

The stencil runs in real arithmetic. Complex input is differentiated on
its float view (real and imaginary parts as a trailing axis of 2) and
scaled by the reciprocal of 12h: the complex multiplies and the complex
division by a real scalar that the written-out expressions would run
cost several times more, and numpy's complex division by a real scalar
multiplies by that reciprocal, so the values are the same.
"""

import functools

import numpy as np

__all__ = [
    "Grid1D",
    "RadialGrid",
    "deriv1",
    "quad",
]


class Grid1D:
    """Uniform nodes x_k = x_min + k*h, k = 0..n_points-1, as ``x``
    and ``nodes``."""

    charge_measure = "line"  # the quad measure of the conserved charge

    def __init__(self, x_min, x_max, n_points):
        if n_points < 16:
            raise ValueError("need n_points >= 16")
        if not -np.inf < x_min < x_max < np.inf:
            raise ValueError("need finite x_min < x_max")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.h = (self.x_max - self.x_min) / (self.n_points - 1)
        self.x = self.nodes = np.linspace(self.x_min, self.x_max,
                                          self.n_points)

    def is_symmetric(self):
        return abs(self.x_min + self.x_max) < 1e-12 * max(1.0, abs(self.x_max))

    def __repr__(self):
        return (f"Grid1D([{self.x_min:g},{self.x_max:g}], "
                f"n={self.n_points}, h={self.h:g})")


class RadialGrid:
    """Staggered radial cells: r_k = (k + 1/2) h, k = 0..n_cells-1.

    r = 0 is never a node; the first node sits at h/2. The nodes are
    ``r`` and ``nodes``.
    """

    charge_measure = "spherical"  # the quad measure of the conserved charge

    def __init__(self, r_max, n_cells):
        if n_cells < 16:
            raise ValueError("need n_cells >= 16")
        if not 0 < r_max < np.inf:
            raise ValueError("r_max must be positive and finite")
        self.r_max = float(r_max)
        self.n_cells = int(n_cells)
        self.h = self.r_max / self.n_cells
        self.r = self.nodes = (np.arange(self.n_cells) + 0.5) * self.h

    def __repr__(self):
        return f"RadialGrid((0,{self.r_max:g}], n={self.n_cells}, h={self.h:g})"


# Boundary closures as tables: output nodes, the input nodes of each
# row's terms and their coefficients, in the evaluation order of the
# written-out stencil. A term written x - c*y there is x + (-c)*y here,
# which is exact. The line grid's one-sided rows (nodes 0, 1, -2, -1)
# form one table; the radial grid's origin rows take the parity ghosts
# f[-1] = s f[0] and f[-2] = s f[1], which gives
#   s (f[1], f[0]) - (8 s, 8) f[0] + 8 (f[1], f[2]) - (f[2], f[3]),
# and its outer rows are the line grid's right rows.
def _closure(rows, nodes, coefficients):
    return (np.array(rows), np.array(nodes),
            np.array(coefficients)[:, :, None])


_LINE_CLOSURE = _closure(
    [0, 1, -2, -1],
    [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
     [-1, -2, -3, -4, -5], [-1, -2, -3, -4, -5]],
    [[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0],
     [3.0, 10.0, -18.0, 6.0, -1.0], [25.0, -48.0, 36.0, -16.0, 3.0]])
_RADIAL_CLOSURES = {
    parity: (_closure([0, 1], [[1, 0, 1, 2], [0, 0, 2, 3]],
                      [[s, -8.0 * s, 8.0, -1.0], [s, -8.0, 8.0, -1.0]]),
             tuple(table[2:] for table in _LINE_CLOSURE))
    for parity, s in (("even", 1.0), ("odd", -1.0))}


@functools.lru_cache(maxsize=None)
def _per_row_closures(names, ndim):
    # the origin coefficients of each leading row's parity, stacked
    (rows, nodes, _), outer = _RADIAL_CLOSURES["even"]
    coefficients = np.stack([_RADIAL_CLOSURES[p][0][2] for p in names])
    shape = (len(names),) + (1,) * (ndim - 2) + coefficients.shape[1:]
    return (rows, nodes, coefficients.reshape(shape)), outer


def deriv1(f, grid, parity="none"):
    """First derivative, 4th-order central in the interior.

    Parameters
    ----------
    f : ndarray
        Nodes along the last axis; leading axes are independent rows, and
        a stacked call gives every row bitwise the result of its own call.
    grid : Grid1D or RadialGrid
    parity : {"none", "even", "odd"} or sequence of {"even", "odd"}
        Grid1D accepts only "none". RadialGrid requires "even" or "odd";
        ghost values across r = 0 are the parity reflection
        f(-r) = +f(r) (even) or f(-r) = -f(r) (odd). A sequence names
        each row on the leading axis, bitwise as per-row calls would.

    Real input is summed term by term in the order of the written-out
    stencil and divided by 12h. Complex input is differentiated on its
    float view, real and imaginary parts side by side, and multiplied by
    1/(12h): written out in complex arithmetic, the stencil scales both
    parts by 8, and numpy divides a complex value by a real scalar by
    multiplying with its reciprocal. So every value equals that of the
    complex expressions, without the cost of complex multiplies and
    divisions; only the sign of an exact zero may differ.
    """
    v = np.asarray(f)
    if v.shape[-1] < 8:
        raise ValueError("need at least 8 nodes")
    one = isinstance(parity, str)
    if isinstance(grid, RadialGrid):
        names = (parity,) if one else tuple(parity)
        if not set(names) <= _RADIAL_CLOSURES.keys():
            raise ValueError("radial deriv1 requires parity 'even' or 'odd'"
                             f", got {parity!r}")
        if not one and (v.ndim < 2 or len(names) != len(v)):
            raise ValueError(f"per-row parity gives {len(names)} names for "
                             f"the rows of an array of shape {v.shape}")
        closures = (_RADIAL_CLOSURES[parity] if one
                    else _per_row_closures(names, v.ndim))
    elif not one or parity != "none":
        raise ValueError("parity reflection applies only to radial grids")
    else:
        closures = (_LINE_CLOSURE,)

    # x, y: input and output with the nodes on axis -2 and a last axis of
    # the real and imaginary parts (complex) or of length 1 (real)
    if v.dtype.kind == "c":
        out = np.empty_like(v)
        x = v[..., None].view(v.real.dtype)
        y = out[..., None].view(out.real.dtype)
    else:
        out = np.empty_like(v, dtype=float)
        x, y = v[..., None], out[..., None]

    # interior: ((f[k-2] - 8 f[k-1]) + 8 f[k+1]) - f[k+2]
    mid = y[..., 2:-2, :]
    np.multiply(8.0, x[..., 1:-3, :], out=mid)
    np.subtract(x[..., :-4, :], mid, out=mid)
    mid += 8.0 * x[..., 3:-1, :]
    mid -= x[..., 4:, :]
    # each closure row sums its terms left to right: accumulate adds in
    # sequence, where add.reduce would sum pairwise
    for rows, nodes, coefficients in closures:
        terms = x[..., nodes, :] * coefficients
        y[..., rows, :] = np.add.accumulate(terms, axis=-2)[..., -1, :]
    if v.dtype.kind == "c":
        y *= 1.0 / (12.0 * grid.h)
    else:
        y /= 12.0 * grid.h
    return out


def quad(f, grid, measure="line"):
    """Integrate a nodal field.

    Grid1D: composite trapezoid, measure "line" only.
    RadialGrid: midpoint rule h*sum; "line" integrates f dr (the virial
    bookkeeping measure), "spherical" integrates 4 pi r^2 f dr.

    Sums are ``np.add.reduce``, which is what ``np.sum`` calls on an
    array, without its wrapper's per-call cost.
    """
    v = np.asarray(f)
    total = np.add.reduce
    if isinstance(grid, RadialGrid):
        if measure == "line":
            return grid.h * total(v, axis=-1)
        if measure == "spherical":
            return 4.0 * np.pi * grid.h * total(grid.r ** 2 * v, axis=-1)
        raise ValueError(f"unknown measure {measure!r}")
    if measure != "line":
        raise ValueError("Grid1D supports only the line measure")
    return grid.h * (total(v, axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))

