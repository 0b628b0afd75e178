"""Semi-discrete time evolution for the 1D and radial-3D systems.

States are thin containers around node-value arrays on a grid from
:mod:`diraclab.grids`. Each state names its frame in ``kind``, and a
model must be written in the same frame (see
:func:`diraclab.nonlinearity.require_frame`). A line state is a complex
pair in one of two frames:

``lab_uv``
    (u, v) solving  i u_t = -i u_x + m v - W1(u, v),
    i v_t = +i v_x + m u - W2(u, v).
``spinor_psi``
    (psi1, psi2), the image of (u, v) under a constant change of frame,
    sqrt(2) times a unitary map (see :func:`diraclab.exact.t_transform`),
    so the spinor-frame charge is twice the lab-frame charge.

The radial container is in the spinor frame. It holds the four real
fields (p11, p12, p21, p22), psi_j = p_j1 + i p_j2, on a cell-centered
grid in r > 0, with (p11, p12) even-extendable and (p21, p22)
odd-extendable through the origin. Each state names its ``system`` as
the virial table and scenario files spell it, and in ``row_parity`` the
parity argument :func:`~diraclab.grids.deriv1` takes for its rows.

A function that reads one geometry, or one frame of the line, refuses
any other state through :func:`require_line` or :func:`require_radial`,
so every such refusal raises the same exception with the same message.

:func:`integrate` sets every stepped float below ``_FLOOR`` = sqrt(DBL_MIN)
(about 1.49e-154) in magnitude to +0.0 after each step. The square of
such a value is not a normal double, so it adds nothing representable to
a density, a charge or a virial functional; stepping it only widens the
live window into the stencil's numerical precursor and feeds subnormal
arithmetic, which x86 runs through a slow microcode path. The floor
also turns -0.0 into +0.0: a zero's sign in a stage value never shows.
"""

import numpy as np

from .grids import Grid1D, RadialGrid, deriv1, quad
from .nonlinearity import require_frame, require_zero_at_rest

_KINDS_1D = ("lab_uv", "spinor_psi")


class SpinorState1D:
    """Complex two-component field on a line grid, in one of two frames."""

    row_parity = "none"

    def __init__(self, grid, kind, fields, t=0.0):
        if not isinstance(grid, Grid1D):
            raise TypeError("SpinorState1D needs a Grid1D")
        if kind not in _KINDS_1D:
            raise ValueError(f"unknown kind {kind!r}, expected one of {_KINDS_1D}")
        fields = np.asarray(fields)
        if fields.shape != (2, grid.n_points):
            raise ValueError(
                f"fields shape {fields.shape} does not match "
                f"(2, {grid.n_points}) for kind {kind!r}")
        self.grid = grid
        self.kind = kind
        self.system = "lab_1d" if kind == "lab_uv" else "spinor_1d"
        self.fields = fields.astype(complex)
        self.t = float(t)

    # component views; names follow the frame
    @property
    def u(self):
        if self.kind != "lab_uv":
            raise AttributeError("u is only defined for kind 'lab_uv'")
        return self.fields[0]

    @property
    def v(self):
        if self.kind != "lab_uv":
            raise AttributeError("v is only defined for kind 'lab_uv'")
        return self.fields[1]

    @property
    def psi1(self):
        if self.kind != "spinor_psi":
            raise AttributeError("psi1 is only defined for kind 'spinor_psi'")
        return self.fields[0]

    @property
    def psi2(self):
        if self.kind != "spinor_psi":
            raise AttributeError("psi2 is only defined for kind 'spinor_psi'")
        return self.fields[1]

    def density(self):
        """Pointwise |state|^2; the same formula in both frames, whose
        value doubles under the map to the spinor frame."""
        return np.sum(np.abs(self.fields) ** 2, axis=0)


class RadialSpinorState:
    """Four real fields on a cell-centered radial grid.

    Order is (p11, p12, p21, p22).  The first two are even-extendable
    through r = 0, the last two odd-extendable.  A field whose largest
    value sits at the innermost cell cannot be odd-extendable; that is
    rejected here rather than silently differentiated wrong.
    """

    kind = "spinor_psi"
    system = "radial_3d"
    row_parity = ("even", "even", "odd", "odd")  # deriv1's name for each row

    def __init__(self, grid, fields, t=0.0):
        if not isinstance(grid, RadialGrid):
            raise TypeError("RadialSpinorState needs a RadialGrid")
        fields = np.asarray(fields, dtype=float)
        if fields.shape != (4, grid.n_cells):
            raise ValueError(
                f"fields shape {fields.shape} != (4, {grid.n_cells})")
        # an odd row at round-off size next to the other rows, as the
        # flow can leave one, says nothing about parity
        floor = 1e-8 * np.max(np.abs(fields))
        for row in (2, 3):
            f = fields[row]
            peak = np.max(np.abs(f))
            if peak > floor and abs(f[0]) > 0.9 * peak:
                raise ValueError(
                    f"component {row} peaks at the innermost cell; "
                    "odd parity through the origin is violated")
        self.grid = grid
        self.fields = fields
        self.t = float(t)

    def density(self):
        return np.sum(self.fields ** 2, axis=0)

    @property
    def psi1(self):
        return self.fields[0] + 1j * self.fields[1]

    @property
    def psi2(self):
        return self.fields[2] + 1j * self.fields[3]


_FRAME_NAMES = {"lab_uv": "lab", "spinor_psi": "spinor"}


def require_line(state, who, kind=None):
    """Refuse, naming the caller ``who``, anything but a line state, and
    with ``kind`` given, a line state in the other frame.

    A wrong geometry raises TypeError, a wrong frame ValueError.
    """
    if not isinstance(state, SpinorState1D):
        raise TypeError(f"{who} needs a SpinorState1D")
    if kind is not None and state.kind != kind:
        raise ValueError(f"{who} lives in the {_FRAME_NAMES[kind]} frame; "
                         "map frames first")


def require_radial(state, who):
    """Refuse, with TypeError naming the caller ``who``, anything but a
    radial state."""
    if not isinstance(state, RadialSpinorState):
        raise TypeError(f"{who} needs a RadialSpinorState")


class Trajectory:
    """Sampled output of :func:`integrate`.

    Attributes
    ----------
    times : float array of the sampled instants.
    states : list of state snapshots, one per instant.
    boundary_mass : per-sample mass in the sponge zone next to the
        pinned edge nodes.
    max_abs : per-sample max |field| over components and nodes.
    """

    def __init__(self, times, states, boundary_mass, max_abs):
        self.times = np.asarray(times, dtype=float)
        self.states = list(states)
        self.boundary_mass = np.asarray(boundary_mass, dtype=float)
        self.max_abs = np.asarray(max_abs, dtype=float)
        # per-identity series of the quartet families (J1..J4 and their
        # combination on the line, K1..tK2 and theirs radially) that
        # virials.verify_identity evaluates together and keeps; see its
        # docstring
        self._memo = {}

    def __len__(self):
        return len(self.states)

    def sample_step(self, who):
        """The uniform sample spacing that centered time differences need.

        Raises ValueError, naming the caller ``who``, when there are fewer
        than 3 samples or the spacing is not uniform.
        """
        if len(self.states) < 3:
            raise ValueError(f"{who} needs at least 3 samples")
        steps = np.diff(self.times)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
            raise ValueError("trajectory samples must be uniformly spaced")
        return float(steps[0])


# The line kernels take one stencil pass over the (2, w) window and write
# their rows into its result in place, in the evaluation order of
#   -ux + 1j (m v - w1),  vx + 1j (m u - w2)          (lab)
#   -1j ((d2 + m p1) - w1),  1j ((d1 + m p2) - w2)    (spinor),
# which keeps each value bitwise that of the plain expressions.
def _rhs_lab_arrays(fields, grid, model, m):
    u, v = fields
    ux, vx = out = deriv1(fields, grid)
    w1, w2 = model.grad(u, v)
    np.negative(ux, out=ux)
    ux += 1j * (m * v - w1)
    vx += 1j * (m * u - w2)
    return out


_SPINOR_PHASES = np.array([[-1j], [1j]])


def _rhs_spinor_arrays(fields, grid, model, m):
    p1, p2 = fields
    d1, d2 = d = deriv1(fields, grid)
    w1, w2 = model.grad(p1, p2)
    d2 += m * p1
    d2 -= w1
    d1 += m * p2
    d1 -= w2
    return _SPINOR_PHASES * d[::-1]


# The real-split form of _rhs_spinor_arrays on the repacked fields
# (Re psi1, Im psi1, Re psi2, Im psi2). integrate does not use it: the
# tests check the complex kernel against it, and perfbench's tracer
# counts its calls by this name.
def _rhs_real4_arrays(fields, grid, model, m):
    p11, p12, p21, p22 = fields
    w11, w12, w21, w22 = model.w_fields(fields)
    d11, d12, d21, d22 = deriv1(fields, grid)
    return np.vstack([d22 + m * p12 - w12,
                      -d21 - m * p11 + w11,
                      -d12 - m * p22 + w22,
                      d11 + m * p21 - w21])


# The radial kernel's W comes from the model's real split, whose zeros
# may differ in sign from grad's: it must equal the complex route value
# for value. No nonzero value depends on a zero's sign (the kernel adds,
# multiplies and divides by r > 0), and the floor makes every stepped
# zero +0.0, so integrate must match the complex route bit for bit.
def _rhs_radial_arrays(fields, grid, model, m):
    w = model.w_fields(fields)
    # integrate passes the leading cells [0, b) of the grid
    r = grid.r[:fields.shape[-1]]
    d = deriv1(fields, grid, RadialSpinorState.row_parity)
    # The rows are written in place, in the evaluation order of
    #   ((d22 + 2 p22 / r) + m p12) - w12,  ((-(d21 + 2 p21 / r)) - m p11) + w11,
    #   ((-d12) - m p22) + w22,             (d11 + m p21) - w21;
    # the odd rows carry the 2/r transport term of the 3D operator, formed
    # for both odd rows at once in rows 2 and 3 before those are written.
    # The order is kept on purpose: it makes the output bitwise that of
    # the plain expressions, and reordering any sum would change the bits.
    out = np.empty_like(fields)
    mp = m * fields
    transport = out[2:]
    np.multiply(2.0, fields[2:], out=transport)
    transport /= r
    transport += d[2:]
    np.negative(transport[0], out=out[1])
    np.add(transport[1], mp[1], out=out[0])
    out[1] -= mp[0]
    np.negative(d[1], out=out[2])
    out[2] -= mp[3]
    np.add(d[0], mp[2], out=out[3])
    out[0] -= w[1]
    out[1] += w[0]
    out[2] += w[3]
    out[3] -= w[2]
    return out


_PIN = 4      # hard-zeroed nodes at an outflow edge
_SPONGE = 8   # monitored nodes just inside the pinned block
_BOUNDARY_TOL = 1e-8  # sponge-zone mass allowed, relative to Q(0)

# The discrete light cone of one RK4 step. Each of the 4 stages applies
# the interior stencil of grids.deriv1, of radius 2, so a step moves the
# live span of the field by at most _SPREAD nodes, and the last stage's
# input reaches 3 * 2 nodes past the live span of the step's start. A
# one-sided closure reads 5 nodes, so _MARGIN zero nodes between the
# live span and a window edge keep every closure at that edge reading
# zeros, as the full grid's interior stencil does there.
_SPREAD = 4 * 2
_MARGIN = 3 * 2 + 5

# Stepped floats below this magnitude become +0.0 (see the module
# docstring): the smallest value whose square is a normal double.
_FLOOR = np.sqrt(np.finfo(float).tiny)


def _select_rhs(initial, model):
    require_frame(model, initial.kind, "integrate")
    require_zero_at_rest(model, "integrate")
    if isinstance(initial, RadialSpinorState):
        return _rhs_radial_arrays
    if initial.kind == "lab_uv":
        return _rhs_lab_arrays
    return _rhs_spinor_arrays


def _wrap(template, fields, t):
    if isinstance(template, RadialSpinorState):
        return RadialSpinorState(template.grid, fields, t)
    return SpinorState1D(template.grid, template.kind, fields, t)


def _zone_mass(fields, grid):
    """Mass sitting in the sponge zone next to the pinned edge nodes."""
    zone = slice(-(_PIN + _SPONGE), -_PIN)
    right = np.sum(np.abs(fields[:, zone]) ** 2, axis=0)
    if isinstance(grid, RadialGrid):
        rr = grid.r[zone]
        return 4.0 * np.pi * grid.h * float(np.sum(rr * rr * right))
    left = np.sum(np.abs(fields[:, _PIN:_PIN + _SPONGE]) ** 2, axis=0)
    return grid.h * float(np.sum(left) + np.sum(right))


class RunAborted(RuntimeError):
    """:func:`integrate` stopped before ``t_end``; the message names why
    and the sample time at which it stopped."""


def step_count(grid, t_end, dt, sample_stride=1):
    """Steps of a run to ``t_end``. Raises ValueError unless dt is finite
    and in (0, h/2], the transport stability bound, t_end is a positive
    integer multiple of dt, and sample_stride >= 1 divides the steps, so
    that the samples are uniformly spaced and the last step is sampled."""
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if dt > 0.5 * grid.h + 1e-14:
        raise ValueError(
            f"dt = {dt:g} exceeds the transport stability bound "
            f"h/2 = {0.5 * grid.h:g}")
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if n_steps % sample_stride != 0:
        raise ValueError(f"sample_stride = {sample_stride} does not divide "
                         f"the {n_steps} steps")
    return n_steps


def integrate(initial, model, t_end, dt, m=1.0, sample_stride=1):
    """March the semi-discrete system with the classical 4-stage scheme.

    The schedule must pass :func:`step_count`; in particular ``dt`` may
    not exceed h/2, the transport stability bound. The outermost 4 nodes
    of each outflow edge are re-zeroed after every step (the radial
    origin is not an edge; parity handles it).  The run aborts with
    :class:`RunAborted` if any field stops being finite, if the mass in
    the monitoring zone next to the pinned nodes exceeds 1e-8 times the
    initial charge, or if a sample is not a valid state (a radial odd row
    that peaks at the origin), so results are only ever produced for
    effectively compactly supported evolutions.

    After each update, and before the edges are pinned, every stepped
    float (real and imaginary parts apart) with magnitude below
    ``_FLOOR`` = sqrt(DBL_MIN) ~ 1.49e-154 is set to +0.0, -0.0
    included: its square is not a normal double, so no density, charge
    or virial functional can see it. NaN and inf are never below the
    floor, so they stay and abort the run at the next sample. The
    initial data is not truncated, and the t = 0 sample is the input
    bit for bit.

    Each step is computed on a window ``y[:, a:b]``: the live span
    (nodes holding any value other than +0.0; NaN and inf are live) plus
    a margin, and the rest of the field is left as it is. The result is
    bitwise that of stepping and truncating the whole grid. The floor
    keeps the live span from growing into the stencil's precursor,
    which is sub-floor a few nodes past the place where the field
    itself falls below the floor. The model's gradient
    vanishes exactly at the zero state, so a node whose stencil reads
    only +0.0 gets a right-hand side of +-0.0 and stays +0.0. One step
    moves the live span by at most 8 nodes (4 stages of a radius-2
    stencil); the window keeps 11 zero nodes between the live span and
    each of its edges that is not a grid edge, so every one-sided
    closure at such an edge reads zeros, and it widens by 8 nodes on a
    side whenever the live span comes closer. A radial window always
    starts at the origin, whose parity ghosts are the grid's own left
    edge. Pinning and every sampled quantity act on the full field.

    The window is stepped as one C-contiguous block, never as a column
    slice of the field: a ufunc over a slice of a wider array runs
    several times slower than over contiguous memory. Each step copies
    the window into a workspace sized to the grid, forms the three stage
    inputs in a second one with ``out=``, adds the update and floors the
    block in place, then copies it back. The update
    ``k1 + 2 (k2 + k3) + k4`` is formed as ``((2 (k2 + k3)) + k1) + k4``,
    which IEEE commutativity keeps bitwise, signed zeros included.

    Returns a :class:`Trajectory` sampled at t0 and every ``sample_stride``
    steps: whole strides only, so the last sample is at ``t_end``.
    """
    grid = initial.grid
    dt = float(dt)
    stride = int(sample_stride)
    n_steps = step_count(grid, float(t_end), dt, stride)

    rhs = _select_rhs(initial, model)
    y = initial.fields.copy()
    t0 = initial.t
    radial = isinstance(grid, RadialGrid)

    q0 = float(quad(initial.density(), grid, grid.charge_measure))
    mass_cap = _BOUNDARY_TOL * q0 if q0 > 0.0 else np.inf

    # +0.0 is the one float whose bits are all zero; bits shares memory
    # with y and holds w words per node (1 for real, 2 for complex)
    n = y.shape[-1]
    bits = y.view(np.uint64)
    w = bits.shape[-1] // n
    live = np.flatnonzero(bits.reshape(len(y), n, w).any(axis=(0, 2)))
    if live.size:
        a = 0 if radial else max(int(live[0]) - _MARGIN, 0)
        b = min(int(live[-1]) + 1 + _MARGIN, n)
    else:
        a = b = 0

    times = [t0]
    states = [_wrap(initial, y.copy(), t0)]
    bmass = [_zone_mass(y, grid)]
    maxab = [float(np.max(np.abs(y)))]

    half = 0.5 * dt
    sixth = dt / 6.0
    # grid-sized flat workspaces, viewed per step as (rows, b - a)
    # blocks: ``yw`` holds the window and then its update, ``stage`` each
    # stage input, and ``mag`` and ``low`` the floor's |y| and mask on
    # the float view of ``yw``
    rows = len(y)
    flat = np.empty(y.size, y.dtype)
    stage_flat = np.empty(y.size, y.dtype)
    mag = np.empty(y.view(float).size)
    low = np.empty(mag.size, dtype=bool)
    # A blow-up overflows between samples; the finiteness check at the
    # next sample aborts the run, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if a < b:
                size = rows * (b - a)
                yw = flat[:size].reshape(rows, b - a)
                stage = stage_flat[:size].reshape(rows, b - a)
                np.copyto(yw, y[:, a:b])
                k1 = rhs(yw, grid, model, m)
                np.multiply(half, k1, out=stage)
                stage += yw
                k2 = rhs(stage, grid, model, m)
                np.multiply(half, k2, out=stage)
                stage += yw
                k3 = rhs(stage, grid, model, m)
                np.multiply(dt, k3, out=stage)
                stage += yw
                k4 = rhs(stage, grid, model, m)
                # sixth * (k1 + 2.0 * (k2 + k3) + k4), each sum in its
                # operands' order up to IEEE commutativity
                ac = k2 + k3
                ac *= 2.0
                ac += k1
                ac += k4
                ac *= sixth
                yw += ac
                parts = flat[:size].view(float)
                np.less(np.abs(parts, out=mag[:parts.size]), _FLOOR,
                        out=low[:parts.size])
                np.copyto(parts, 0.0, where=low[:parts.size])
                y[:, a:b] = yw
            if radial:
                y[:, -_PIN:] = 0.0
            else:
                y[:, :_PIN] = 0.0
                y[:, -_PIN:] = 0.0
            if a > 0 and bits[:, w * a:w * (a + _MARGIN)].any():
                a = max(a - _SPREAD, 0)
            if b < n and bits[:, w * (b - _MARGIN):w * b].any():
                b = min(b + _SPREAD, n)

            if step % stride == 0:
                t = t0 + step * dt
                if not np.all(np.isfinite(y)):
                    raise RunAborted(f"non-finite field values at t = {t:g}")
                zm = _zone_mass(y, grid)
                if zm > mass_cap:
                    raise RunAborted(
                        f"boundary zone mass {zm:.3e} exceeds "
                        f"{_BOUNDARY_TOL:g} * Q(0) = {mass_cap:.3e} "
                        f"at t = {t:g}; enlarge the domain or stop earlier")
                try:
                    states.append(_wrap(initial, y.copy(), t))
                except ValueError as exc:
                    raise RunAborted(f"invalid state at t = {t:g}: {exc}") \
                        from None
                times.append(t)
                bmass.append(zm)
                maxab.append(float(np.max(np.abs(y))))

    return Trajectory(times, states, bmass, maxab)
