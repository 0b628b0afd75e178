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
multiplies by that reciprocal, so the values are the same. The interior
stencil runs once over a whole block of rows as one contiguous buffer
of floats, and the closure rows then overwrite each row's ends.
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
_LINE_ROWS = [0, 1, -2, -1]
_LINE_NODES = [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
               [-1, -2, -3, -4, -5], [-1, -2, -3, -4, -5]]
_LINE_COEFFICIENTS = [[-25.0, 48.0, -36.0, 16.0, -3.0],
                      [-3.0, -10.0, 18.0, -6.0, 1.0],
                      [3.0, 10.0, -18.0, 6.0, -1.0],
                      [25.0, -48.0, 36.0, -16.0, 3.0]]
_ORIGIN_ROWS, _ORIGIN_NODES = [0, 1], [[1, 0, 1, 2], [0, 0, 2, 3]]
_ORIGIN_COEFFICIENTS = {parity: [[s, -8.0 * s, 8.0, -1.0],
                                 [s, -8.0, 8.0, -1.0]]
                        for parity, s in (("even", 1.0), ("odd", -1.0))}


@functools.lru_cache(maxsize=None)
def _closure_plan(parity, width):
    """The closure tables of one row layout, as (output columns, input
    columns, coefficients) on the rows' float view, ``width`` floats per
    node. A column counts from the row's start (nodes 0, 1, ...) or,
    negative, from its end (nodes -1, -2, ...), so no table depends on
    the row length, and one plan serves every window of a run.
    ``parity`` is "none" or a tuple naming the parity of each row."""
    part = np.arange(width)

    def table(rows, nodes, coefficients):
        coefficients = np.array(coefficients)[..., None]
        return (np.add.outer(np.array(rows) * width, part),
                np.add.outer(np.array(nodes) * width, part), coefficients)

    if parity == "none":
        return (table(_LINE_ROWS, _LINE_NODES, _LINE_COEFFICIENTS),)
    # the origin coefficients of each row's parity, stacked
    coefficients = [_ORIGIN_COEFFICIENTS[p] for p in parity]
    return (table(_ORIGIN_ROWS, _ORIGIN_NODES, coefficients),
            table(_LINE_ROWS[2:], _LINE_NODES[2:], _LINE_COEFFICIENTS[2:]))


@np.errstate(all="ignore")
def deriv1(f, grid, parity="none"):
    """First derivative, 4th-order central in the interior.

    Parameters
    ----------
    f : ndarray
        Nodes along the last axis; leading axes are independent rows, and
        a stacked call gives every row bitwise the result of its own call.
    grid : Grid1D or RadialGrid
    parity : "none" or sequence of {"even", "odd"}
        Grid1D accepts only "none". RadialGrid requires a 2-D block of
        rows and one name per row: ghost values across r = 0 are the
        parity reflection f(-r) = +f(r) (even) or f(-r) = -f(r) (odd).
        Every row gets bitwise the result of its own 1-row block.

    Real input is summed term by term in the order of the written-out
    stencil and divided by 12h. Complex input is differentiated on its
    float view, real and imaginary parts side by side, and multiplied by
    1/(12h): written out in complex arithmetic, the stencil scales both
    parts by 8, and numpy divides a complex value by a real scalar by
    multiplying with its reciprocal. So every value equals that of the
    complex expressions, without the cost of complex multiplies and
    divisions; only the sign of an exact zero may differ.

    The interior runs once over the whole block as one flat buffer of
    floats, shifting by the floats of one node (1 real, 2 complex), so
    every ufunc sees contiguous memory; a non-contiguous input (such as
    a column window of a wider block) is first copied into one. The two
    nodes at each end of a row then hold values read across the row
    boundary, and the closure rows overwrite them, through tables
    cached per row layout (see ``_closure_plan``).

    deriv1 emits no floating-point warning: non-finite input shows in
    its result, as inf or NaN. A warning could not tell a row's own
    inf - inf from one at a stacked block's row junction, which the
    closure rows overwrite.
    """
    v = np.asarray(f)
    if v.shape[-1] < 8:
        raise ValueError("need at least 8 nodes")
    if isinstance(grid, RadialGrid):
        if isinstance(parity, str) or \
                not set(parity) <= _ORIGIN_COEFFICIENTS.keys():
            raise ValueError("radial deriv1 requires parity 'even' or 'odd' "
                             f"per row, got {parity!r}")
        parity = tuple(parity)
        if v.ndim != 2 or len(parity) != len(v):
            raise ValueError(f"per-row parity gives {len(parity)} names for "
                             f"the rows of an array of shape {v.shape}")
    elif parity != "none":
        raise ValueError("parity reflection applies only to radial grids")

    # x, y: input and output as contiguous doubles, a row's nodes side by
    # side with their real and imaginary parts (complex) or alone (real)
    if v.dtype.kind == "c":
        out = np.empty(v.shape, complex)
        x = np.ascontiguousarray(v, dtype=complex).view(float)
        y = out.view(float)
    else:
        x = np.ascontiguousarray(v, dtype=float)
        out = y = np.empty(v.shape)
    w = x.shape[-1] // v.shape[-1]

    # interior: ((f[k-2] - 8 f[k-1]) + 8 f[k+1]) - f[k+2]
    xf, yf = x.reshape(-1), y.reshape(-1)
    mid = yf[2 * w:-2 * w]
    np.multiply(8.0, xf[w:-3 * w], out=mid)
    np.subtract(xf[:-4 * w], mid, out=mid)
    mid += 8.0 * xf[3 * w:-w]
    mid -= xf[4 * w:]
    # each closure row sums its terms left to right: accumulate adds in
    # sequence, where add.reduce would sum pairwise
    for rows, nodes, coefficients in _closure_plan(parity, w):
        terms = x.take(nodes, axis=-1)
        terms *= coefficients
        y[..., rows] = np.add.accumulate(terms, axis=-2)[..., -1, :]
    if v.dtype.kind == "c":
        yf *= 1.0 / (12.0 * grid.h)
    else:
        yf /= 12.0 * grid.h
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

