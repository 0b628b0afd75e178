import re
import warnings

import numpy as np
import pytest

from diraclab.grids import Grid1D, RadialGrid, deriv1, quad


def test_grid1d_basics():
    g = Grid1D(-10.0, 10.0, 101)
    assert g.h == pytest.approx(0.2)
    assert g.is_symmetric()
    assert g.x[0] == -10.0 and g.x[-1] == 10.0
    assert not Grid1D(0.0, 5.0, 64).is_symmetric()
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 64)


def test_radial_grid_staggering():
    g = RadialGrid(10.0, 100)
    assert g.h == pytest.approx(0.1)
    assert g.r[0] == pytest.approx(0.05)
    assert np.all(g.r > 0)
    assert np.allclose(np.diff(g.r), g.h)
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 100)
    with pytest.raises(ValueError, match="^need n_cells >= 16$"):
        RadialGrid(10.0, 15)


def test_deriv1_convergence_1d():
    errs = []
    for n in (256, 512, 1024):
        g = Grid1D(-10.0, 10.0, n)
        f = np.exp(-g.x ** 2 / 4.0) * np.sin(2.0 * g.x)
        df_exact = np.exp(-g.x ** 2 / 4.0) * (
            2.0 * np.cos(2.0 * g.x) - 0.5 * g.x * np.sin(2.0 * g.x))
        errs.append(np.max(np.abs(deriv1(f, g) - df_exact)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 3.5 and order2 > 3.5
    assert errs[-1] < 1e-6


def test_deriv1_radial_parity_ghosts():
    # parity reflection keeps 4th order down to the first half-cell node
    for parity, f_of, df_of in (
        ("even", lambda r: np.exp(-r ** 2),
         lambda r: -2.0 * r * np.exp(-r ** 2)),
        ("odd", lambda r: r * np.exp(-r ** 2),
         lambda r: (1.0 - 2.0 * r ** 2) * np.exp(-r ** 2)),
    ):
        errs = []
        for n in (128, 256, 512):
            g = RadialGrid(8.0, n)
            errs.append(np.max(np.abs(deriv1(f_of(g.r)[None], g, (parity,))
                                      - df_of(g.r))))
        assert np.log2(errs[0] / errs[1]) > 3.5
        assert np.log2(errs[1] / errs[2]) > 3.5


def test_deriv1_parity_argument_rules():
    g1 = Grid1D(-5.0, 5.0, 64)
    gr = RadialGrid(5.0, 64)
    f1 = np.ones(64)
    with pytest.raises(ValueError):
        deriv1(f1, g1, parity="even")
    with pytest.raises(ValueError):
        deriv1(f1, gr)  # radial grids must declare a parity
    with pytest.raises(ValueError, match=re.escape(
            "radial deriv1 requires parity 'even' or 'odd' per row, "
            "got 'even'")):
        deriv1(f1[None], gr, "even")  # one name per row, not one name
    with pytest.raises(ValueError, match="^need at least 8 nodes$"):
        deriv1(f1[:7], g1)  # the closure rows span 8 nodes


def test_deriv1_per_row_parity_refusals():
    gr = RadialGrid(5.0, 64)
    quartet = np.ones((4, 64))
    for f, names, message in (
            (quartet, ("even", "even", "odd"), "per-row parity gives 3 "
             "names for the rows of an array of shape (4, 64)"),
            (quartet[0], ("even",), "per-row parity gives 1 names for the "
             "rows of an array of shape (64,)"),
            (quartet, ("even", "none", "odd", "odd"), "radial deriv1 "
             "requires parity 'even' or 'odd' per row, got ('even', 'none', "
             "'odd', 'odd')"),
            (np.ones((1, 4, 64)), ("even",), "per-row parity gives 1 names "
             "for the rows of an array of shape (1, 4, 64)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            deriv1(f, gr, names)
    for names in (("even",) * 4, ("none",) * 4):
        with pytest.raises(ValueError, match="parity reflection applies "
                           "only to radial grids"):
            deriv1(quartet, Grid1D(-5.0, 5.0, 64), names)


def reference_deriv1(f, grid, parity="none"):
    """The stencil written out term by term, with complex arithmetic on
    complex input. deriv1 must give its bytes on real input and its
    values on complex input (only the sign of an exact zero may differ)."""
    v = np.asarray(f)
    h = grid.h
    out = np.empty_like(v, dtype=v.dtype if v.dtype.kind == "c" else float)
    if isinstance(grid, RadialGrid):
        s = 1.0 if parity == "even" else -1.0
        # ghosts: f[-1] at r=-h/2 maps to node 0, f[-2] at r=-3h/2 to node 1
        out[..., 0] = (s * v[..., 1] - 8.0 * s * v[..., 0]
                       + 8.0 * v[..., 1] - v[..., 2]) / (12.0 * h)
        out[..., 1] = (s * v[..., 0] - 8.0 * v[..., 0]
                       + 8.0 * v[..., 2] - v[..., 3]) / (12.0 * h)
    else:
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


def test_deriv1_complex_passthrough():
    g = Grid1D(-8.0, 8.0, 512)
    f = np.exp(-g.x ** 2) * (1.0 + 2j)
    df = deriv1(f, g)
    assert df.dtype.kind == "c"
    assert np.max(np.abs(df - (-2.0 * g.x) * f)) < 1e-5


def _quietly(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return deriv1(*args)


@pytest.mark.parametrize("dtype", [float, complex])
def test_deriv1_stacked_rows_with_infinities_at_the_junction(dtype):
    # the flat interior reads inf - inf across the junction of the rows;
    # the closure rows overwrite it, and no warning is emitted
    g = Grid1D(-1.0, 1.0, 16)
    f = np.linspace(0.0, 1.0, 32).reshape(2, 16).astype(dtype)
    f[0, -1] = f[1, 0] = np.inf
    stacked = _quietly(f, g)
    assert stacked.tobytes() == np.array(
        [_quietly(row, g) for row in f]).tobytes()
    assert np.isinf(stacked[0, -1]) and np.isinf(stacked[1, 0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_deriv1_one_row_with_non_finite_values(dtype):
    # inf - inf at node 5 and an overflowing 8 f at nodes 10 to 12 show
    # in the result, as NaN and inf, without a warning
    g = Grid1D(-1.0, 1.0, 16)
    f = np.zeros(16, dtype)
    f[3] = f[7] = np.inf
    f[11] = 1e308
    d = _quietly(f, g)
    assert np.isnan(d[5])
    assert np.isinf(d[10]) and np.isinf(d[12])
    assert np.isfinite(d[13:15]).all()


def test_quad_gaussian_line():
    g = Grid1D(-8.0, 8.0, 400)
    val = quad(np.exp(-g.x ** 2), g)
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-13)


def test_quad_sech2():
    g = Grid1D(-20.0, 20.0, 2000)
    val = quad(1.0 / np.cosh(g.x) ** 2, g)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_quad_radial_measures():
    g = RadialGrid(8.0, 2000)
    # spherical Gaussian: int 4 pi r^2 e^{-r^2} dr = pi^{3/2}
    assert quad(np.exp(-g.r ** 2), g, measure="spherical") == pytest.approx(
        np.pi ** 1.5, rel=1e-6)
    # line measure: int_0^inf e^{-r^2} dr = sqrt(pi)/2
    assert quad(np.exp(-g.r ** 2), g, measure="line") == pytest.approx(
        np.sqrt(np.pi) / 2.0, rel=1e-6)
    with pytest.raises(ValueError):
        quad(np.exp(-g.r), g, measure="volume")
    line = Grid1D(-5.0, 5.0, 64)
    with pytest.raises(ValueError,
                       match="^Grid1D supports only the line measure$"):
        quad(np.ones(64), line, measure="spherical")


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_quad_is_bitwise_the_np_sum_formulas(shape):
    # quad sums with np.add.reduce; these are the np.sum formulas it
    # replaced, on 1-D and stacked rows, with signed zeros, subnormals and
    # mixed magnitudes so that any other summation order shows
    rng = np.random.default_rng(len(shape))
    line, radial = Grid1D(-5.0, 5.0, 257), RadialGrid(5.0, 300)
    for g, n in ((line, line.n_points), (radial, radial.n_cells)):
        v = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(
            -150, 150, shape + (n,))
        v[..., ::7] = -0.0
        v[..., 1::11] = 5e-324
        if g is line:
            want = {"line": g.h * (np.sum(v, axis=-1)
                                   - 0.5 * (v[..., 0] + v[..., -1]))}
        else:
            want = {"line": g.h * np.sum(v, axis=-1),
                    "spherical": 4.0 * np.pi * g.h * np.sum(g.r ** 2 * v,
                                                            axis=-1)}
        for measure, value in want.items():
            got = quad(v, g, measure=measure)
            assert np.shape(got) == shape
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
