"""Weighted virial functionals and their analytic time derivatives.

Everything here follows one pattern: a functional F of the fields built
from a smooth weight, and a closed-form expression for dF/dt along the
flow. The pairing of the two is checked by ``verify_identity``, which
compares centered finite differences of F against the analytic rate on
a sampled trajectory and reports pointwise defects.

Functionals on the line come in two frames. The frame-agnostic
``functional_I`` is the window charge: it carries a full scaling triple
(amplitude, width, center), and the triple (1, lam, 0) gives the plain
window of width lam. The lab-frame ``functional_J_1d`` weighs the chiral
balance.
The quartet functionals pair first derivatives of the four real field
components against transport brackets; their radial counterparts do the
same on the half line with the geometric 2/r terms and singular weight
quotients kept in closed form.

Each functional and rate refuses a state of another geometry or frame
through :func:`diraclab.dynamics.require_line` and
:func:`~diraclab.dynamics.require_radial`, and a window width that is
not positive through one helper, ``_width``.

Sign conventions for the analytic rates were fixed the only way that
means anything: by driving the defect of the finite-difference check to
the quadrature floor on resolved runs. Where a rate needs a nonlinear
flux term, passing the model adds it exactly; omitting the model states
that the coupling's flux vanishes pointwise (true for every
gauge-invariant diagonal coupling shipped here).

One table, ``_IDENTITIES``, says which identities exist. A row holds
the systems that carry the identity, its default weight (or None for a
fixed weight), whether it reads a scaling triple, and its functional
and analytic rate. The J and K quartet rows name their vector function
instead of holding it, and look it up as a module attribute at each
evaluation, so that a patched attribute sees every call.

``verify_identity`` walks a trajectory once for any number of
identities. Each sample gets a ``_Sample``: the derived fields its
functionals and rates read (the quartet block and its derivative, the W
rows and theirs, the coupling's gradient pair, each quartet vector),
computed on first use, shared, and dropped once the sample is done.
Weight tables on the grid nodes are evaluated once per pass. The pass
hands the sample to the public functions as their keyword-only
``_sample``; called without it, on a bare state, they derive their own
fields with the same arithmetic and so bitwise the same values. The
identities of a quartet family are evaluated together, and their series
are kept on the trajectory, so that they share one pass also when they
are verified one call at a time.
"""

from collections import namedtuple
from operator import itemgetter

import numpy as np

from .dynamics import RadialSpinorState, require_line, require_radial
from .grids import deriv1, quad
from .nonlinearity import require_frame
from .weights import r2_over_1pr4_weight, r32_weight, sech_1d, tanh_1d

__all__ = [
    "ScalingTriple",
    "VirialReport",
    "functional_I",
    "rhs_I",
    "functional_J_1d",
    "rhs_J_1d",
    "functionals_J1_to_J4",
    "rhs_J1_to_J4",
    "rhs_J_combined_1d",
    "functionals_K_3d",
    "rhs_K_3d",
    "functional_H",
    "rhs_H",
    "verify_identity",
    "identity_ids",
    "window_flux_1d",
    "origin_flux_radial",
]

class ScalingTriple:
    """Time maps (mu, lambda, rho) entering the weighted charge.

    Each slot is a callable of t; the ``*_dot`` companions are their
    analytic derivatives. mu scales the amplitude, lambda the window
    width, rho the window center. mu and lambda must stay positive on
    the run interval; ``check`` enforces that at each evaluation.
    """

    def __init__(self, mu, lam, rho, mu_dot, lam_dot, rho_dot):
        self.mu = mu
        self.lam = lam
        self.rho = rho
        self.mu_dot = mu_dot
        self.lam_dot = lam_dot
        self.rho_dot = rho_dot

    def check(self, t):
        mu = float(self.mu(t))
        lam = float(self.lam(t))
        if mu <= 0.0 or lam <= 0.0:
            raise ValueError(
                f"scaling needs mu, lambda > 0, got ({mu}, {lam}) at t={t}")
        return mu, lam

    @staticmethod
    def constant(lam=1.0, theta=0.0):
        """Unit amplitude, fixed width, center drifting at speed theta."""
        lam = _width(lam)
        theta = float(theta)
        return ScalingTriple(
            mu=lambda t: 1.0, lam=lambda t: lam, rho=lambda t: theta * t,
            mu_dot=lambda t: 0.0, lam_dot=lambda t: 0.0,
            rho_dot=lambda t: theta)

    @staticmethod
    def log_window():
        """Width lambda(t) = t/log^2 t, defined for t > 1 (used from t=10)."""
        def lam(t):
            if t <= 1.0:
                raise ValueError("log window needs t > 1")
            return t / np.log(t) ** 2

        def lam_dot(t):
            ell = np.log(t)
            return (1.0 - 2.0 / ell) / ell ** 2

        zero = lambda t: 0.0
        return ScalingTriple(mu=lambda t: 1.0, lam=lam, rho=zero,
                             mu_dot=zero, lam_dot=lam_dot, rho_dot=zero)

    @staticmethod
    def exterior(b, t0):
        """Half-amplitude window of width 1 chasing the region x >= (1+b)t.

        The center moves at speed -(1+b/2), strictly slower than the
        region edge -(1+b) it was launched from at t0, which is what
        makes the windowed mass monotone on 2 <= t <= t0.
        """
        b = float(b)
        t0 = float(t0)
        if b <= 0.0:
            raise ValueError("b must be positive")
        theta = -(1.0 + b)
        theta_tilde = -(1.0 + 0.5 * b)
        zero = lambda t: 0.0
        return ScalingTriple(
            mu=lambda t: 2.0, lam=lambda t: 1.0,
            rho=lambda t: theta * t0 - theta_tilde * (t0 - t),
            mu_dot=zero, lam_dot=zero, rho_dot=lambda t: theta_tilde)


class VirialReport:
    """Defect table for one identity along a sampled trajectory.

    Stores, per interior sample: time, functional value, centered
    finite difference, analytic right-hand side, and their absolute
    difference. Passes iff max defect <= max(atol, rtol * max|RHS|),
    with rtol = 1e-3 and atol = 1e-9 times the functional's own scale
    (at least 1), so that identically-zero runs pass without a relative
    reference.
    """

    def __init__(self, identity, times, values, fd, rhs):
        self.identity = str(identity)
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.fd = np.asarray(fd, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.defect = np.abs(self.fd - self.rhs)
        self.rtol = 1e-3
        scale = 1.0
        if self.values.size:
            scale = max(1.0, float(np.max(np.abs(self.values))))
        self.atol = 1e-9 * scale
        rhs_scale = float(np.max(np.abs(self.rhs))) if self.rhs.size else 0.0
        self.threshold = max(self.atol, self.rtol * rhs_scale)
        self.max_defect = float(np.max(self.defect)) if self.defect.size else 0.0
        self.passed = self.max_defect <= self.threshold

    def to_dict(self):
        return {
            "identity": self.identity,
            "passed": bool(self.passed),
            "max_defect": self.max_defect,
            "threshold": self.threshold,
            "rtol": self.rtol,
            "atol": self.atol,
            "n_samples": int(self.times.size),
            "t_first": float(self.times[0]) if self.times.size else None,
            "t_last": float(self.times[-1]) if self.times.size else None,
        }

    def __repr__(self):
        tag = "pass" if self.passed else "FAIL"
        return (f"VirialReport({self.identity!r}, {tag}, "
                f"max_defect={self.max_defect:.3e}, "
                f"threshold={self.threshold:.3e})")


def _width(lam):
    """A window width as a float; refused unless positive."""
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return lam


def _require_model(model, state, who):
    if model is not None:
        require_frame(model, state.kind, who)


# ---------------------------------------------------------------------------
# derived fields of one sample

def _once(method):
    """A _Sample method computed once per sample and arguments."""
    def shared(self, *args):
        key = (method.__name__, *args)
        if key not in self.memo:
            self.memo[key] = method(self, *args)
        return self.memo[key]
    return shared


class _Sample:
    """Derived fields of one sampled state, each computed on first use.

    ``tables`` maps (weight, name) to that weight function or singular
    quotient on the grid nodes; ``verify_identity`` shares one map
    between all samples of a pass. Every other value lives in ``memo``
    and is dropped with the sample.
    """

    def __init__(self, state, tables):
        self.state = state
        self.tables = tables
        self.memo = {}

    def table(self, weight, name):
        key = (weight, name)
        if key not in self.tables:
            self.tables[key] = weight.at(name, self.state.grid.nodes)
        return self.tables[key]

    @_once
    def quartet(self):
        """(p, d): the real (4, n) block (p11, p12, p21, p22) and its
        derivative, from one stacked ``deriv1`` pass that gives the rows
        the state's ``row_parity``."""
        st = self.state
        p = st.fields
        if not isinstance(st, RadialSpinorState):
            p = np.vstack([p[0].real, p[0].imag, p[1].real, p[1].imag])
        return p, deriv1(p, st.grid, st.row_parity)

    @_once
    def w_rows(self, model):
        """(w, e): the coupling's W rows at the quartet and their
        derivative; the rows inherit the components' parities, because
        diagonal couplings preserve them."""
        st = self.state
        w = model.w_fields(self.quartet()[0])
        return w, deriv1(w, st.grid, st.row_parity)

    @_once
    def grad(self, model):
        """The coupling's complex gradient pair at the state."""
        st = self.state
        if isinstance(st, RadialSpinorState):
            return model.grad(st.psi1, st.psi2)
        return model.grad(*st.fields)

    @_once
    def brackets(self, weight):
        """The transport brackets ``_bk`` of the four quartet rows under
        ``weight``, as one (4, n) block."""
        return _bk(self.table(weight, "phi"), self.table(weight, "dphi"),
                   *self.quartet())

    @_once
    def density(self):
        return self.state.density()

    @_once
    def vector(self, name, weight, m, model):
        """The value of the quartet vector function ``name``; the rates
        (``rhs_*``) also take the model. ``name`` is looked up as a
        module attribute, so that a patched one sees the call."""
        fn = globals()[name]
        if name.startswith("rhs"):
            return fn(self.state, weight, m, model, _sample=self)
        return fn(self.state, weight, m, _sample=self)


def _fields(state, sample):
    """The derived fields to read for ``state``: the ``_sample`` a
    verification pass handed in, or fresh ones for a bare call."""
    return _Sample(state, {}) if sample is None else sample


def _charge_flux(s, model):
    """Pointwise rate the coupling pumps charge density at sample ``s``.

    Zero for any coupling invariant under a common phase; kept exact
    here so non-invariant models can still be verified.
    """
    state = s.state
    w1, w2 = s.grad(model)
    if state.kind == "lab_uv":
        return (np.conj(state.u) * w1).imag + (np.conj(state.v) * w2).imag
    p1, p2 = state.psi1, state.psi2
    return (np.conj(p2) * w2).imag - (np.conj(p1) * w1).imag


# ---------------------------------------------------------------------------
# weighted charge with a scaling triple

def _transport_current(state):
    """u1.a_r.u1 + u2.a_r.u2 - 2 u1.a_i.u2, the frame's transport matrix
    a_r + i a_i read on the real and imaginary parts (u1, u2) of a line
    state's fields, in closed form.

    The lab frame's diag(1, -1) gives the chiral imbalance; the spinor
    frame's [[0, i], [-i, 0]] gives -2 (u1[0] u2[1] - u1[1] u2[0]), whose
    leading 0.0 turns a -0.0 into the +0.0 the matrix form gives.
    """
    u1, u2 = state.fields.real, state.fields.imag
    if state.kind == "lab_uv":
        return (u1[0] * u1[0] - u1[1] * u1[1]) \
            + (u2[0] * u2[0] - u2[1] * u2[1])
    return 0.0 - 2.0 * (u1[0] * u2[1] - u1[1] * u2[0])


def functional_I(state, weight, scaling, t=None, *, _sample=None):
    """Weighted charge (1/mu) * integral of phi((x+rho)/lam) |psi|^2."""
    require_line(state, "functional_I")
    t = state.t if t is None else float(t)
    mu, lam = scaling.check(t)
    s = (state.grid.x + scaling.rho(t)) / lam
    dens = _fields(state, _sample).density()
    return quad(weight.phi(s) * dens, state.grid) / mu


def rhs_I(state, weight, scaling, t=None, model=None, *, _sample=None):
    """Analytic d/dt of ``functional_I`` along the flow.

    Four groups: amplitude drift, center drift, width drift, and the
    transport current (``_transport_current``). No mass term appears;
    the mass current is orthogonal to the density. Couplings with
    nonzero pointwise charge flux contribute a fifth term when the model
    is passed.
    """
    require_line(state, "rhs_I")
    _require_model(model, state, "rhs_I")
    t = state.t if t is None else float(t)
    mu, lam = scaling.check(t)
    g = state.grid
    s = (g.x + scaling.rho(t)) / lam
    phi = weight.phi(s)
    dphi = weight.dphi(s)
    sample = _fields(state, _sample)
    dens = sample.density()
    bracket = _transport_current(state)
    out = (-scaling.mu_dot(t) / mu ** 2 * quad(phi * dens, g)
           + scaling.rho_dot(t) / (mu * lam) * quad(dphi * dens, g)
           - scaling.lam_dot(t) / (mu * lam) * quad(dphi * s * dens, g)
           + quad(dphi * bracket, g) / (mu * lam))
    if model is not None:
        out += 2.0 / mu * quad(phi * _charge_flux(sample, model), g)
    return out


# ---------------------------------------------------------------------------
# lab-frame window chiral balance

def functional_J_1d(state, weight, lam=1.0):
    """Window chiral balance: integral of phi(x/lam) (|u|^2 - |v|^2)."""
    require_line(state, "functional_J_1d", "lab_uv")
    lam = _width(lam)
    s = state.grid.x / lam
    chi = np.abs(state.u) ** 2 - np.abs(state.v) ** 2
    return quad(weight.phi(s) * chi, state.grid)


def rhs_J_1d(state, weight, lam=1.0, m=1.0, lam_dot=0.0, model=None, *,
             _sample=None):
    """d/dt of the window chiral balance.

    Three universal terms (window drift, advected total density, mass
    rotation 4m Im(u conj(v))) plus an exact coupling term when the
    model is passed. Couplings polynomial in |u|^2, |v|^2 alone drop
    out; anything mixing phases, e.g. a scalar-bilinear square,
    contributes.
    """
    require_line(state, "rhs_J_1d", "lab_uv")
    _require_model(model, state, "rhs_J_1d")
    lam = _width(lam)
    g = state.grid
    s = g.x / lam
    phi = weight.phi(s)
    dphi = weight.dphi(s)
    sample = _fields(state, _sample)
    dens = sample.density()
    chi = np.abs(state.u) ** 2 - np.abs(state.v) ** 2
    out = (-lam_dot / lam * quad(s * dphi * chi, g)
           + quad(dphi * dens, g) / lam
           + 4.0 * m * quad(phi * (state.u * np.conj(state.v)).imag, g))
    if model is not None:
        w1, w2 = sample.grad(model)
        flux = (np.conj(state.u) * w1).imag - (np.conj(state.v) * w2).imag
        out += 2.0 * quad(phi * flux, g)
    return out


# ---------------------------------------------------------------------------
# the transport bracket shared by the line and the radial quartet

def _bk(phi, dphi, f, df):
    """Transport bracket phi f' + phi'/2 f of the quartet pairings."""
    return phi * df + 0.5 * dphi * f


# ---------------------------------------------------------------------------
# first-derivative quartet on the line (spinor frame, real components)

def functionals_J1_to_J4(state, weight, m=1.0, *, _sample=None):
    """Four pairings [phi f' + phi'/2 f](g' + m h) over the components.

    Ordering: (11 vs 22), (12 vs 21), (22 vs 11), (21 vs 12), i.e. each
    component paired against its transport partner.
    """
    require_line(state, "functionals_J1_to_J4", "spinor_psi")
    g = state.grid
    s = _fields(state, _sample)
    (p11, p12, p21, p22), (d11, d12, d21, d22) = s.quartet()
    b11, b12, b21, b22 = s.brackets(weight)
    return np.array([
        quad(b11 * (d22 + m * p12), g),
        quad(b12 * (d21 + m * p11), g),
        quad(b22 * (d11 + m * p21), g),
        quad(b21 * (d12 + m * p22), g),
    ])


def rhs_J1_to_J4(state, weight, m=1.0, model=None, *, _sample=None):
    """Analytic derivatives of the four pairings, coupling terms exact.

    Each rate has a quadratic core (phi' against the squared component
    gradient, phi'''/4 against the squared component, signs alternating
    with the component's transport direction) and two coupling
    brackets. The mass drops out of the cores entirely.
    """
    require_line(state, "rhs_J1_to_J4", "spinor_psi")
    _require_model(model, state, "rhs_J1_to_J4")
    g = state.grid
    s = _fields(state, _sample)
    p, d = s.quartet()
    w, e = s.w_rows(model) if model is not None else (np.zeros_like(p),) * 2
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    phi = s.table(weight, "phi")
    dphi = s.table(weight, "dphi")
    d3phi = s.table(weight, "d3phi")
    b11, b12, b21, b22 = s.brackets(weight)

    def core(f, df):
        return quad(dphi * df * df - 0.25 * d3phi * f * f, g)

    dj1 = (-core(p11, d11)
           - quad(_bk(phi, dphi, w12, e12) * (d22 + m * p12), g)
           + quad(b11 * (m * w11 - e21), g))
    dj2 = (core(p12, d12)
           + quad(_bk(phi, dphi, w11, e11) * (d21 + m * p11), g)
           + quad(b12 * (e22 - m * w12), g))
    dj3 = (-core(p22, d22)
           - quad(_bk(phi, dphi, w21, e21) * (d11 + m * p21), g)
           + quad(b22 * (m * w22 - e12), g))
    dj4 = (core(p21, d21)
           + quad(_bk(phi, dphi, w22, e22) * (d12 + m * p22), g)
           + quad(b21 * (e11 - m * w21), g))
    return np.array([dj1, dj2, dj3, dj4])


def rhs_J_combined_1d(state, weight, m=1.0, model=None, *, _sample=None):
    """Closed form of d/dt(J1 - J2 + J3 - J4).

    The quadratic cores collapse to -phi' against the total squared
    gradient plus phi'''/4 against the total squared field; the
    coupling survives as m*A - B with A weighing W against field
    gradients and B the cross pairings (first row of W against second
    row of the field and vice versa). Exact for any data with decay,
    no parity assumption.
    """
    require_line(state, "rhs_J_combined_1d", "spinor_psi")
    _require_model(model, state, "rhs_J_combined_1d")
    g = state.grid
    s = _fields(state, _sample)
    p, d = s.quartet()
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    phi = s.table(weight, "phi")
    dphi = s.table(weight, "dphi")
    d3phi = s.table(weight, "d3phi")
    grad_sq = d11 ** 2 + d12 ** 2 + d21 ** 2 + d22 ** 2
    abs_sq = p11 ** 2 + p12 ** 2 + p21 ** 2 + p22 ** 2
    out = -quad(dphi * grad_sq, g) + 0.25 * quad(d3phi * abs_sq, g)
    if model is None:
        return out
    w, e = s.w_rows(model)
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    d2phi = s.table(weight, "d2phi")
    a_term = (2.0 * quad(phi * (w11 * d11 + w12 * d12
                                + w21 * d21 + w22 * d22), g)
              + quad(dphi * (w11 * p11 + w12 * p12
                             + w21 * p21 + w22 * p22), g))
    b_term = (2.0 * quad(phi * (e12 * d22 + e22 * d12
                                + e21 * d11 + e11 * d21), g)
              - 0.5 * quad(d2phi * (w12 * p22 + w11 * p21
                                    + w21 * p11 + w22 * p12), g))
    return out + m * a_term - b_term


# ---------------------------------------------------------------------------
# radial quartet on the half line

def _require_radial_weight(weight, who):
    for key in ("phi_over_r", "phi_over_r3", "dphi_over_r"):
        if key not in weight.singular:
            raise ValueError(
                f"{who} needs weight {weight.name!r} to carry the "
                f"closed-form quotient {key!r}")


def functionals_K_3d(state, weight, m=1.0, *, _sample=None):
    """Radial pairings (K1, tK1, K2, tK2) with line-measure integrals.

    The even-type components ride the full radial transport d_r + 2/r;
    their odd-type partners carry the plain derivative back.
    """
    require_radial(state, "functionals_K_3d")
    _require_radial_weight(weight, "functionals_K_3d")
    g = state.grid
    r = g.r
    s = _fields(state, _sample)
    (p11, p12, p21, p22), (d11, d12, d21, d22) = s.quartet()
    b11, b12, b21, b22 = s.brackets(weight)

    k1 = quad(b11 * (d22 + 2.0 * p22 / r + m * p12), g, measure="line")
    tk1 = quad(b22 * (d11 + m * p21), g, measure="line")
    k2 = quad(b12 * (d21 + 2.0 * p21 / r + m * p11), g, measure="line")
    tk2 = quad(b21 * (d12 + m * p22), g, measure="line")
    return np.array([k1, tk1, k2, tk2])


def _quadratic_R1(s, weight, f, df):
    # pairing of [phi f' + phi'/2 f] against (d^2 + 2/r d) f
    a = s.table(weight, "dphi") - 2.0 * s.table(weight, "phi_over_r")
    b = 0.5 * s.table(weight, "d2phi") - s.table(weight, "dphi_over_r")
    grid = s.state.grid
    return -quad(a * df * df, grid, measure="line") \
        - quad(b * f * df, grid, measure="line")


def _quadratic_R2(s, weight, f, df):
    # same pairing when the operator carries the extra -2/r^2
    return _quadratic_R1(s, weight, f, df) \
        - 2.0 * quad(s.table(weight, "phi_over_r3") * f * f, s.state.grid,
                     measure="line")


def rhs_K_3d(state, weight, m=1.0, model=None, *, _sample=None):
    """Analytic derivatives of the four radial pairings.

    Quadratic parts via the two closed-form pairings (the odd-type
    components feel the extra -2/r^2 of their second-order operator);
    coupling parts verbatim, with the W rows differentiated under the
    parity the coupling preserves.
    """
    require_radial(state, "rhs_K_3d")
    _require_radial_weight(weight, "rhs_K_3d")
    _require_model(model, state, "rhs_K_3d")
    g = state.grid
    r = g.r
    s = _fields(state, _sample)
    p, d = s.quartet()
    w, e = s.w_rows(model) if model is not None else (np.zeros_like(p),) * 2
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    phi = s.table(weight, "phi")
    dphi = s.table(weight, "dphi")

    def line(f):
        return quad(f, g, measure="line")

    b11, b12, b21, b22 = s.brackets(weight)
    dk1 = (_quadratic_R1(s, weight, p11, d11)
           - line(_bk(phi, dphi, w12, e12) * (d22 + 2.0 * p22 / r + m * p12))
           - line(b11 * (e21 + 2.0 * w21 / r - m * w11)))
    dtk1 = (_quadratic_R2(s, weight, p22, d22)
            - line(_bk(phi, dphi, w21, e21) * (d11 + m * p21))
            - line(b22 * (e12 - m * w22)))
    dk2 = (-_quadratic_R1(s, weight, p12, d12)
           + line(_bk(phi, dphi, w11, e11) * (d21 + 2.0 * p21 / r + m * p11))
           + line(b12 * (e22 + 2.0 * w22 / r - m * w12)))
    dtk2 = (-_quadratic_R2(s, weight, p21, d21)
            + line(_bk(phi, dphi, w22, e22) * (d12 + m * p22))
            + line(b21 * (e11 - m * w21)))
    return np.array([dk1, dtk1, dk2, dtk2])


# ---------------------------------------------------------------------------
# localized density functionals

# the fixed weights of the H identities, one per geometry
_H_RADIAL = r2_over_1pr4_weight()
_H_LINE = sech_1d()


def functional_H(state, *, _sample=None):
    """Localized density, its window taken from the state's geometry.

    A radial state is weighed by r^2/(1+r)^4, a spinor-frame state on
    the line by a sech window with a factor 1/2; ``rhs_H`` bakes in the
    same conventions. A lab-frame state is refused.
    """
    s = _fields(state, _sample)
    if isinstance(state, RadialSpinorState):
        return quad(s.table(_H_RADIAL, "phi") * s.density(), state.grid,
                    measure="line")
    require_line(state, "functional_H", "spinor_psi")
    return 0.5 * quad(s.table(_H_LINE, "phi") * s.density(), state.grid)


def rhs_H(state, model=None, *, _sample=None):
    """Analytic d/dt of ``functional_H``, in the state's geometry.

    The mass term cancels in both geometries; what is left is the
    weighted transport current and, with a model, the coupling flux.
    """
    s = _fields(state, _sample)
    if isinstance(state, RadialSpinorState):
        _require_model(model, state, "rhs_H")
        g = state.grid
        phi = s.table(_H_RADIAL, "phi")
        advect = (2.0 * s.table(_H_RADIAL, "phi_over_r")
                  - s.table(_H_RADIAL, "dphi"))
        p1, p2 = state.psi1, state.psi2
        out = 2.0 * quad(advect * (np.conj(p1) * p2).imag, g,
                         measure="line")
        if model is not None:
            w1, w2 = s.grad(model)
            out += 2.0 * quad(
                phi * (np.conj(p2) * w2 - np.conj(p1) * w1).imag, g,
                measure="line")
        return out
    require_line(state, "rhs_H", "spinor_psi")
    _require_model(model, state, "rhs_H")
    g = state.grid
    phi = s.table(_H_LINE, "phi")
    p1, p2 = state.psi1, state.psi2
    dp1, dp2 = deriv1(state.fields, g)
    out = quad(phi * (np.conj(p1) * dp2 - np.conj(p2) * dp1).imag, g)
    if model is not None:
        w1, w2 = s.grad(model)
        out += quad(phi * (w2 * np.conj(p2) - w1 * np.conj(p1)).imag, g)
    return out


# ---------------------------------------------------------------------------
# the identity table and the verifier

# What a row's functional and rate see besides the sample: the weight
# (the row's default when none was given), the scaling triple, mass and
# model.
_Args = namedtuple("_Args", "weight scaling m model")

# systems that carry the identity; default weight factory, or None for a
# fixed weight; whether the scaling triple is read; functional and rate,
# each called as fn(args, sample, t) on the _Sample of time t; and for an
# identity that reads one sample's quartet vectors, their names: a pass
# that needs one identity of such a family evaluates all of it
_Identity = namedtuple("_Identity",
                       "systems weight scaling functional rate family",
                       defaults=(None,))


def _quartet(name, pick):
    """Row entry: ``pick`` of the sample's quartet vector ``name``, which
    the rows of its family share."""
    return lambda a, s, t: pick(s.vector(name, a.weight, a.m, a.model))


def _member(systems, weight, family, idx):
    """Row of component ``idx`` of the quartet vectors ``family``."""
    return _Identity(systems, weight, False,
                     *(_quartet(name, itemgetter(idx)) for name in family),
                     family)


def _combined_j(j):
    return j[0] - j[1] + j[2] - j[3]


def _combined_k(k):
    return k[0] + k[1] - k[2] - k[3]


_J = ("functionals_J1_to_J4", "rhs_J1_to_J4")
_K = ("functionals_K_3d", "rhs_K_3d")
_PSI = ("spinor_1d",)
_RADIAL = ("radial_3d",)
_H = (lambda a, s, t: functional_H(s.state, _sample=s),
      lambda a, s, t: rhs_H(s.state, model=a.model, _sample=s))

_IDENTITIES = {
    "I_weighted_charge": _Identity(
        ("lab_1d", "spinor_1d"), tanh_1d, True,
        lambda a, s, t: functional_I(s.state, a.weight, a.scaling, t,
                                     _sample=s),
        lambda a, s, t: rhs_I(s.state, a.weight, a.scaling, t,
                              model=a.model, _sample=s)),
    "J_chiral_balance": _Identity(
        ("lab_1d",), tanh_1d, True,
        lambda a, s, t: functional_J_1d(s.state, a.weight,
                                        float(a.scaling.lam(t))),
        lambda a, s, t: rhs_J_1d(s.state, a.weight, float(a.scaling.lam(t)),
                                 a.m, float(a.scaling.lam_dot(t)),
                                 model=a.model, _sample=s)),
    "J1": _member(_PSI, tanh_1d, _J, 0),
    "J2": _member(_PSI, tanh_1d, _J, 1),
    "J3": _member(_PSI, tanh_1d, _J, 2),
    "J4": _member(_PSI, tanh_1d, _J, 3),
    "J_quartet_combined": _Identity(
        _PSI, tanh_1d, False, _quartet(_J[0], _combined_j),
        lambda a, s, t: rhs_J_combined_1d(s.state, a.weight, a.m, a.model,
                                          _sample=s), _J),
    "K1_3d": _member(_RADIAL, r32_weight, _K, 0),
    "tK1_3d": _member(_RADIAL, r32_weight, _K, 1),
    "K2_3d": _member(_RADIAL, r32_weight, _K, 2),
    "tK2_3d": _member(_RADIAL, r32_weight, _K, 3),
    "K_combined_3d": _Identity(
        _RADIAL, r32_weight, False, _quartet(_K[0], _combined_k),
        _quartet(_K[1], _combined_k), _K),
    "H_sech_1d": _Identity(_PSI, None, False, *_H),
    "H_radial_r2": _Identity(_RADIAL, None, False, *_H),
}


def _family(name):
    """The names evaluated together with identity ``name``."""
    family = _IDENTITIES[name].family
    if family is None:
        return (name,)
    return tuple(n for n, row in _IDENTITIES.items() if row.family == family)


def identity_ids(system=None):
    """Names of the table's identities, sorted; with a system, only
    those defined on it."""
    return tuple(sorted(name for name, row in _IDENTITIES.items()
                        if system is None or system in row.systems))


def verify_identity(trajectory, identities, weight=None, scaling=None,
                    m=1.0, model=None):
    """Check identities of the table along a sampled trajectory.

    Compares centered finite differences of each functional against its
    analytic rate at every interior sample and returns a
    :class:`VirialReport`, whose tolerances are fixed there; a sequence
    of names gives a tuple of reports in its order. The trajectory must
    be uniformly sampled with at least three samples, on a system every
    identity's row lists; the model and mass must be the ones the
    trajectory was generated with, or the defect measures exactly that
    mismatch. ``weight`` replaces each identity's default weight, and
    ``scaling`` (default ``ScalingTriple.constant()``) sets the window
    of the line window charge ``I_weighted_charge`` and the width of
    ``J_chiral_balance``. Either one is refused for an identity that
    would not read it: the H identities have fixed weights, and only
    those two identities read a scaling.

    The samples are walked once for all the identities a call needs.
    Each sample's derived fields (see ``_Sample``) are computed once,
    shared between the identities and dropped after the sample; weight
    tables on the grid nodes are evaluated once per call. An identity of
    a quartet family (its row's ``family``) brings the whole family into
    the pass, and the family's series are kept on the trajectory per
    (weight, mass, model), so that its five identities cost one pass
    whether they are asked for together or one by one. Mutating a
    sampled state in place after it was verified is unsupported: later
    quartet checks would reuse the kept series. Every value is bitwise
    that of the public functions called on the bare states.
    """
    names = (identities,) if isinstance(identities, str) else identities
    for name in names:
        row = _IDENTITIES.get(name)
        if row is None:
            known = ", ".join(identity_ids())
            raise KeyError(f"unknown identity {name!r}; known: {known}")
        if weight is not None and row.weight is None:
            raise ValueError(f"{name} has a fixed weight; got {weight!r}")
        if scaling is not None and not row.scaling:
            raise ValueError(f"{name} reads no scaling triple")
    trajectory.sample_step("verify_identity")
    times = trajectory.times
    states = trajectory.states
    system = states[0].system
    for name in names:
        if system not in _IDENTITIES[name].systems:
            raise ValueError(f"{name} is not defined on system {system!r}")
    m = float(m)
    kept = trajectory._memo.setdefault((weight, m, model), {})
    todo = []
    for name in names:
        for member in _family(name):
            if member not in kept and member not in todo:
                todo.append(member)
    rows = [_IDENTITIES[name] for name in todo]
    scaling = ScalingTriple.constant() if scaling is None else scaling
    # one default weight per factory, so that the rows share its tables
    defaults = {} if weight is not None else {
        row.weight: row.weight() for row in rows if row.weight}
    args = [_Args(defaults.get(row.weight, weight), scaling, m, model)
            for row in rows]

    n = len(states)
    f_vals = np.empty((len(rows), n))
    rhs = np.empty((len(rows), n - 2))
    tables = {}
    for k, (t, state) in enumerate(zip(times, states)):
        sample = _Sample(state, tables)
        for i, (row, a) in enumerate(zip(rows, args)):
            f_vals[i, k] = row.functional(a, sample, t)
            if 0 < k < n - 1:
                rhs[i, k - 1] = row.rate(a, sample, t)
    series = dict(zip(todo, zip(f_vals, rhs)))
    kept.update((name, fr) for name, fr in series.items()
                if _IDENTITIES[name].family)
    reports = []
    for name in names:
        f, r = series.get(name) or kept[name]
        fd = (f[2:] - f[:-2]) / (times[2:] - times[:-2])
        reports.append(VirialReport(name, times[1:-1], f[1:-1], fd, r))
    return reports[0] if isinstance(identities, str) else tuple(reports)


# ---------------------------------------------------------------------------
# dispersion integrands for cumulative monitors

def window_flux_1d(state, lam):
    """(1/lam) * integral of sech^2(x/lam) |state|^2 on the line."""
    require_line(state, "window_flux_1d")
    lam = _width(lam)
    s = state.grid.x / lam
    window = 1.0 / np.cosh(s) ** 2
    return quad(window * state.density(), state.grid) / lam


def origin_flux_radial(state):
    """Weighted gradient-plus-density integral concentrated at the origin.

    integral of sqrt(r)|grad phi|^2/(1+r) + |phi|^2/(r^{3/2}(1+r)) dr.
    The density term carries an r^{-3/2} weight, integrable on the
    staggered grid; boundedness of the time integral of this quantity
    is the radial dispersion statement.
    """
    require_radial(state, "origin_flux_radial")
    g = state.grid
    r = g.r
    d11, d12, d21, d22 = _Sample(state, {}).quartet()[1]
    grad_sq = d11 ** 2 + d12 ** 2 + d21 ** 2 + d22 ** 2
    return quad(np.sqrt(r) * grad_sq / (1.0 + r), g, measure="line") \
        + quad(state.density() / (r ** 1.5 * (1.0 + r)), g, measure="line")
