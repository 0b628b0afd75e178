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
evaluation, so that a patched attribute sees every call; each vector is
memoized per sample on the trajectory.
"""

from collections import namedtuple
from operator import itemgetter

import numpy as np

from .algebra import split_alpha
from .dynamics import RadialSpinorState, SpinorState1D
from .grids import Grid1D, deriv1, quad
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
    "rhs_K_combined_closed",
    "functional_H",
    "rhs_H",
    "verify_identity",
    "identity_ids",
    "coercivity_estimate",
    "window_flux_1d",
    "origin_flux_radial",
]

_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])
_ALPHA_PSI = np.array([[0.0, 1.0j], [-1.0j, 0.0]])


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
        lam = float(lam)
        theta = float(theta)
        if lam <= 0.0:
            raise ValueError("lam must be positive")
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
    def exterior(b, t0, lam=1.0):
        """Half-amplitude window chasing the region x >= (1+b)t.

        The center moves at speed -(1+b/2), strictly slower than the
        region edge -(1+b) it was launched from at t0, which is what
        makes the windowed mass monotone on 2 <= t <= t0.
        """
        b = float(b)
        t0 = float(t0)
        lam = float(lam)
        if b <= 0.0:
            raise ValueError("b must be positive")
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        theta = -(1.0 + b)
        theta_tilde = -(1.0 + 0.5 * b)
        zero = lambda t: 0.0
        return ScalingTriple(
            mu=lambda t: 2.0, lam=lambda t: lam,
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


def _default_alpha(kind):
    """Transport matrix split for a 1D representation.

    The lab frame advects the two components in opposite directions
    (real diagonal); the spinor frame couples them antisymmetrically
    (purely imaginary off-diagonal).
    """
    if kind == "lab_uv":
        return split_alpha(_SIGMA3)
    if kind == "spinor_psi":
        return split_alpha(_ALPHA_PSI)
    raise ValueError(f"no transport matrix for kind {kind!r}")


def _require_1d(state, who):
    if not isinstance(state, SpinorState1D):
        raise TypeError(f"{who} needs a SpinorState1D")


def _require_lab(state, who):
    _require_1d(state, who)
    if state.kind != "lab_uv":
        raise ValueError(f"{who} is a lab-frame functional; map frames first")


def _require_spinor(state, who):
    _require_1d(state, who)
    if state.kind == "lab_uv":
        raise ValueError(f"{who} lives in the spinor frame; map frames first")


def _require_radial(state, who):
    if not isinstance(state, RadialSpinorState):
        raise TypeError(f"{who} needs a RadialSpinorState")


def _require_model(model, state, who):
    if model is not None:
        require_frame(model, state.kind, who)


def _real_pair(state):
    """Real and imaginary component stacks (2, n) of a 1D state."""
    f = state.fields
    return np.ascontiguousarray(f.real), np.ascontiguousarray(f.imag)


def _charge_flux(state, model):
    """Pointwise rate the coupling pumps charge density.

    Zero for any coupling invariant under a common phase; kept exact
    here so non-invariant models can still be verified.
    """
    if state.kind == "lab_uv":
        w1, w2 = model.grad(state.u, state.v)
        return (np.conj(state.u) * w1).imag + (np.conj(state.v) * w2).imag
    p1, p2 = state.psi1, state.psi2
    w1, w2 = model.grad(p1, p2)
    return (np.conj(p2) * w2).imag - (np.conj(p1) * w1).imag


# ---------------------------------------------------------------------------
# weighted charge with a scaling triple

def functional_I(state, weight, scaling, t=None):
    """Weighted charge (1/mu) * integral of phi((x+rho)/lam) |psi|^2."""
    _require_1d(state, "functional_I")
    t = state.t if t is None else float(t)
    mu, lam = scaling.check(t)
    s = (state.grid.x + scaling.rho(t)) / lam
    return quad(weight.phi(s) * state.density(), state.grid) / mu


def rhs_I(state, weight, scaling, t=None, model=None):
    """Analytic d/dt of ``functional_I`` along the flow.

    Four groups: amplitude drift, center drift, width drift, and the
    transport quadratic u1.a_r.u1 + u2.a_r.u2 - 2 u1.a_i.u2 built from
    the real/imaginary parts of the spinor. No mass term appears; the
    mass current is orthogonal to the density. Couplings with nonzero
    pointwise charge flux contribute a fifth term when the model is
    passed.
    """
    _require_1d(state, "rhs_I")
    _require_model(model, state, "rhs_I")
    t = state.t if t is None else float(t)
    mu, lam = scaling.check(t)
    g = state.grid
    s = (g.x + scaling.rho(t)) / lam
    phi = weight.phi(s)
    dphi = weight.dphi(s)
    dens = state.density()
    split = _default_alpha(state.kind)
    u1, u2 = _real_pair(state)
    a_r, a_i = split.alpha_r, split.alpha_i
    bracket = (np.einsum("ab,ax,bx->x", a_r, u1, u1)
               + np.einsum("ab,ax,bx->x", a_r, u2, u2)
               - 2.0 * np.einsum("ab,ax,bx->x", a_i, u1, u2))
    out = (-scaling.mu_dot(t) / mu ** 2 * quad(phi * dens, g)
           + scaling.rho_dot(t) / (mu * lam) * quad(dphi * dens, g)
           - scaling.lam_dot(t) / (mu * lam) * quad(dphi * s * dens, g)
           + quad(dphi * bracket, g) / (mu * lam))
    if model is not None:
        out += 2.0 / mu * quad(phi * _charge_flux(state, model), g)
    return out


# ---------------------------------------------------------------------------
# lab-frame window chiral balance

def functional_J_1d(state, weight, lam=1.0):
    """Window chiral balance: integral of phi(x/lam) (|u|^2 - |v|^2)."""
    _require_lab(state, "functional_J_1d")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    s = state.grid.x / lam
    chi = np.abs(state.u) ** 2 - np.abs(state.v) ** 2
    return quad(weight.phi(s) * chi, state.grid)


def rhs_J_1d(state, weight, lam=1.0, m=1.0, lam_dot=0.0, model=None):
    """d/dt of the window chiral balance.

    Three universal terms (window drift, advected total density, mass
    rotation 4m Im(u conj(v))) plus an exact coupling term when the
    model is passed. Couplings polynomial in |u|^2, |v|^2 alone drop
    out; anything mixing phases, e.g. a scalar-bilinear square,
    contributes.
    """
    _require_lab(state, "rhs_J_1d")
    _require_model(model, state, "rhs_J_1d")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    g = state.grid
    s = g.x / lam
    phi = weight.phi(s)
    dphi = weight.dphi(s)
    dens = state.density()
    chi = np.abs(state.u) ** 2 - np.abs(state.v) ** 2
    out = (-lam_dot / lam * quad(s * dphi * chi, g)
           + quad(dphi * dens, g) / lam
           + 4.0 * m * quad(phi * (state.u * np.conj(state.v)).imag, g))
    if model is not None:
        w1, w2 = model.grad(state.u, state.v)
        flux = (np.conj(state.u) * w1).imag - (np.conj(state.v) * w2).imag
        out += 2.0 * quad(phi * flux, g)
    return out


# ---------------------------------------------------------------------------
# derived fields shared by the line and the radial quartet

def _bk(phi, dphi, f, df):
    """Transport bracket phi f' + phi'/2 f of the quartet pairings."""
    return phi * df + 0.5 * dphi * f


def _quartet_fields(state, model=None):
    """Derived fields of a quartet, each a (4, n) real block.

    Returns (p, d, w, e): the components (p11, p12, p21, p22), their
    derivatives, the coupling's W rows and the derivatives of those.
    On the line each derivative block comes from one stacked ``deriv1``
    pass. Radially the even pair (rows 0-1) and the odd pair (rows 2-3)
    take one pass each; the W rows inherit that parity, because diagonal
    couplings preserve component parity. Stacked rows equal per-row
    calls bitwise (the stencil is elementwise along the last axis).
    w and e are None without a model.
    """
    g = state.grid
    if isinstance(state, RadialSpinorState):
        p = state.fields

        def diff(f):
            return np.concatenate([deriv1(f[:2], g, parity="even"),
                                   deriv1(f[2:], g, parity="odd")])
    else:
        psi = state.fields
        p = np.vstack([psi[0].real, psi[0].imag, psi[1].real, psi[1].imag])

        def diff(f):
            return deriv1(f, g)
    d = diff(p)
    if model is None:
        return p, d, None, None
    w = np.asarray(model.w_fields(*p))
    return p, d, w, diff(w)


# ---------------------------------------------------------------------------
# first-derivative quartet on the line (spinor frame, real components)

def functionals_J1_to_J4(state, weight, m=1.0):
    """Four pairings [phi f' + phi'/2 f](g' + m h) over the components.

    Ordering: (11 vs 22), (12 vs 21), (22 vs 11), (21 vs 12), i.e. each
    component paired against its transport partner.
    """
    _require_spinor(state, "functionals_J1_to_J4")
    g = state.grid
    (p11, p12, p21, p22), (d11, d12, d21, d22), _, _ = _quartet_fields(state)
    phi = weight.phi(g.x)
    dphi = weight.dphi(g.x)
    return np.array([
        quad(_bk(phi, dphi, p11, d11) * (d22 + m * p12), g),
        quad(_bk(phi, dphi, p12, d12) * (d21 + m * p11), g),
        quad(_bk(phi, dphi, p22, d22) * (d11 + m * p21), g),
        quad(_bk(phi, dphi, p21, d21) * (d12 + m * p22), g),
    ])


def rhs_J1_to_J4(state, weight, m=1.0, model=None):
    """Analytic derivatives of the four pairings, coupling terms exact.

    Each rate has a quadratic core (phi' against the squared component
    gradient, phi'''/4 against the squared component, signs alternating
    with the component's transport direction) and two coupling
    brackets. The mass drops out of the cores entirely.
    """
    _require_spinor(state, "rhs_J1_to_J4")
    _require_model(model, state, "rhs_J1_to_J4")
    g = state.grid
    p, d, w, e = _quartet_fields(state, model)
    if model is None:
        w = e = np.zeros_like(p)
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    phi = weight.phi(g.x)
    dphi = weight.dphi(g.x)
    d3phi = weight.d3phi(g.x)

    def core(f, df):
        return quad(dphi * df * df - 0.25 * d3phi * f * f, g)

    dj1 = (-core(p11, d11)
           - quad(_bk(phi, dphi, w12, e12) * (d22 + m * p12), g)
           + quad(_bk(phi, dphi, p11, d11) * (m * w11 - e21), g))
    dj2 = (core(p12, d12)
           + quad(_bk(phi, dphi, w11, e11) * (d21 + m * p11), g)
           + quad(_bk(phi, dphi, p12, d12) * (e22 - m * w12), g))
    dj3 = (-core(p22, d22)
           - quad(_bk(phi, dphi, w21, e21) * (d11 + m * p21), g)
           + quad(_bk(phi, dphi, p22, d22) * (m * w22 - e12), g))
    dj4 = (core(p21, d21)
           + quad(_bk(phi, dphi, w22, e22) * (d12 + m * p22), g)
           + quad(_bk(phi, dphi, p21, d21) * (e11 - m * w21), g))
    return np.array([dj1, dj2, dj3, dj4])


def rhs_J_combined_1d(state, weight, m=1.0, model=None):
    """Closed form of d/dt(J1 - J2 + J3 - J4).

    The quadratic cores collapse to -phi' against the total squared
    gradient plus phi'''/4 against the total squared field; the
    coupling survives as m*A - B with A weighing W against field
    gradients and B the cross pairings (first row of W against second
    row of the field and vice versa). Exact for any data with decay,
    no parity assumption.
    """
    _require_spinor(state, "rhs_J_combined_1d")
    _require_model(model, state, "rhs_J_combined_1d")
    g = state.grid
    p, d, w, e = _quartet_fields(state, model)
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    phi = weight.phi(g.x)
    dphi = weight.dphi(g.x)
    d3phi = weight.d3phi(g.x)
    grad_sq = d11 ** 2 + d12 ** 2 + d21 ** 2 + d22 ** 2
    abs_sq = p11 ** 2 + p12 ** 2 + p21 ** 2 + p22 ** 2
    out = -quad(dphi * grad_sq, g) + 0.25 * quad(d3phi * abs_sq, g)
    if model is None:
        return out
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    d2phi = weight.d2phi(g.x)
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
        if weight.singular is None or key not in weight.singular:
            raise ValueError(
                f"{who} needs weight {weight.name!r} to carry the "
                f"closed-form quotient {key!r}")


def functionals_K_3d(state, weight, m=1.0):
    """Radial pairings (K1, tK1, K2, tK2) with line-measure integrals.

    The even-type components ride the full radial transport d_r + 2/r;
    their odd-type partners carry the plain derivative back.
    """
    _require_radial(state, "functionals_K_3d")
    _require_radial_weight(weight, "functionals_K_3d")
    g = state.grid
    r = g.r
    (p11, p12, p21, p22), (d11, d12, d21, d22), _, _ = _quartet_fields(state)
    phi = weight.phi(r)
    dphi = weight.dphi(r)

    k1 = quad(_bk(phi, dphi, p11, d11) * (d22 + 2.0 * p22 / r + m * p12), g,
              measure="line")
    tk1 = quad(_bk(phi, dphi, p22, d22) * (d11 + m * p21), g, measure="line")
    k2 = quad(_bk(phi, dphi, p12, d12) * (d21 + 2.0 * p21 / r + m * p11), g,
              measure="line")
    tk2 = quad(_bk(phi, dphi, p21, d21) * (d12 + m * p22), g, measure="line")
    return np.array([k1, tk1, k2, tk2])


def _quadratic_R1(weight, r, f, df, grid):
    # pairing of [phi f' + phi'/2 f] against (d^2 + 2/r d) f
    a = weight.dphi(r) - 2.0 * weight.sing("phi_over_r", r)
    b = 0.5 * weight.d2phi(r) - weight.sing("dphi_over_r", r)
    return -quad(a * df * df, grid, measure="line") \
        - quad(b * f * df, grid, measure="line")


def _quadratic_R2(weight, r, f, df, grid):
    # same pairing when the operator carries the extra -2/r^2
    return _quadratic_R1(weight, r, f, df, grid) \
        - 2.0 * quad(weight.sing("phi_over_r3", r) * f * f, grid,
                     measure="line")


def rhs_K_3d(state, weight, m=1.0, model=None):
    """Analytic derivatives of the four radial pairings.

    Quadratic parts via the two closed-form pairings (the odd-type
    components feel the extra -2/r^2 of their second-order operator);
    coupling parts verbatim, with the W rows differentiated under the
    parity the coupling preserves.
    """
    _require_radial(state, "rhs_K_3d")
    _require_radial_weight(weight, "rhs_K_3d")
    _require_model(model, state, "rhs_K_3d")
    g = state.grid
    r = g.r
    p, d, w, e = _quartet_fields(state, model)
    if model is None:
        w = e = np.zeros_like(p)
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    phi = weight.phi(r)
    dphi = weight.dphi(r)

    def line(f):
        return quad(f, g, measure="line")

    dk1 = (_quadratic_R1(weight, r, p11, d11, g)
           - line(_bk(phi, dphi, w12, e12) * (d22 + 2.0 * p22 / r + m * p12))
           - line(_bk(phi, dphi, p11, d11) * (e21 + 2.0 * w21 / r - m * w11)))
    dtk1 = (_quadratic_R2(weight, r, p22, d22, g)
            - line(_bk(phi, dphi, w21, e21) * (d11 + m * p21))
            - line(_bk(phi, dphi, p22, d22) * (e12 - m * w22)))
    dk2 = (-_quadratic_R1(weight, r, p12, d12, g)
           + line(_bk(phi, dphi, w11, e11) * (d21 + 2.0 * p21 / r + m * p11))
           + line(_bk(phi, dphi, p12, d12) * (e22 + 2.0 * w22 / r - m * w12)))
    dtk2 = (-_quadratic_R2(weight, r, p21, d21, g)
            + line(_bk(phi, dphi, w22, e22) * (d12 + m * p22))
            + line(_bk(phi, dphi, p21, d21) * (e11 - m * w21)))
    return np.array([dk1, dtk1, dk2, dtk2])


def rhs_K_combined_closed(state, weight, m=1.0, model=None):
    """Closed form of d/dt(K1 + tK1 - K2 - tK2).

    Requires the even-type components to vanish at the origin: the
    zeroth-order coefficients grow like r^{-3/2} there, and the
    integration by parts that produces them sheds a boundary term for
    anything finite at r=0. Use the alternating sum of ``rhs_K_3d``
    when that cannot be guaranteed; it is exact for all data.
    """
    _require_radial(state, "rhs_K_combined_closed")
    _require_radial_weight(weight, "rhs_K_combined_closed")
    _require_model(model, state, "rhs_K_combined_closed")
    g = state.grid
    r = g.r
    p, d, w, e = _quartet_fields(state, model)
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    phi = weight.phi(r)
    dphi = weight.dphi(r)
    d2phi = weight.d2phi(r)
    d3phi = weight.d3phi(r)
    phi_r = weight.sing("phi_over_r", r)
    phi_r2 = weight.sing("phi_over_r2", r)
    phi_r3 = weight.sing("phi_over_r3", r)
    dphi_r = weight.sing("dphi_over_r", r)
    dphi_r2 = weight.sing("dphi_over_r2", r)
    d2phi_r = weight.sing("d2phi_over_r", r)

    def line(f):
        return quad(f, g, measure="line")

    grad_sq = d11 ** 2 + d12 ** 2 + d21 ** 2 + d22 ** 2
    even_sq = p11 ** 2 + p12 ** 2
    odd_sq = p21 ** 2 + p22 ** 2
    zero_even = 0.5 * (dphi_r2 + 0.5 * d3phi - d2phi_r)
    zero_odd = zero_even - 2.0 * phi_r3
    out = (line((2.0 * phi_r - dphi) * grad_sq)
           + line(zero_even * even_sq) + line(zero_odd * odd_sq))
    if model is None:
        return out
    w11, w12, w21, w22 = w
    e11, e12, e21, e22 = e
    a_term = (2.0 * line(phi * (w11 * d11 + w12 * d12
                                + w21 * d21 + w22 * d22))
              + line(dphi * (w11 * p11 + w12 * p12
                             + w21 * p21 + w22 * p22)))
    b_term = (2.0 * line(phi * (e11 * d21 + e12 * d22
                                + e21 * d11 + e22 * d12))
              + 2.0 * line(phi_r * (w21 * d11 + w22 * d12
                                    - w11 * d21 - w12 * d22))
              + line((2.0 * phi_r2 - 0.5 * d2phi - dphi_r)
                     * (w11 * p21 + w12 * p22))
              - line((0.5 * d2phi - dphi_r) * (w21 * p11 + w22 * p12)))
    return out + m * a_term - b_term


# ---------------------------------------------------------------------------
# localized density functionals

def functional_H(state):
    """Localized density, its window taken from the state's geometry.

    A radial state is weighed by r^2/(1+r)^4, a spinor-frame state on
    the line by a sech window with a factor 1/2; ``rhs_H`` bakes in the
    same conventions. A lab-frame state is refused.
    """
    if isinstance(state, RadialSpinorState):
        w = r2_over_1pr4_weight()
        return quad(w.phi(state.grid.r) * state.density(), state.grid,
                    measure="line")
    _require_spinor(state, "functional_H")
    w = sech_1d()
    return 0.5 * quad(w.phi(state.grid.x) * state.density(), state.grid)


def rhs_H(state, model=None):
    """Analytic d/dt of ``functional_H``, in the state's geometry.

    The mass term cancels in both geometries; what is left is the
    weighted transport current and, with a model, the coupling flux.
    """
    if isinstance(state, RadialSpinorState):
        _require_model(model, state, "rhs_H")
        g = state.grid
        r = g.r
        w = r2_over_1pr4_weight()
        phi = w.phi(r)
        advect = 2.0 * w.sing("phi_over_r", r) - w.dphi(r)
        p1, p2 = state.psi1, state.psi2
        out = 2.0 * quad(advect * (np.conj(p1) * p2).imag, g,
                         measure="line")
        if model is not None:
            w1, w2 = model.grad(p1, p2)
            out += 2.0 * quad(
                phi * (np.conj(p2) * w2 - np.conj(p1) * w1).imag, g,
                measure="line")
        return out
    _require_spinor(state, "rhs_H")
    _require_model(model, state, "rhs_H")
    g = state.grid
    w = sech_1d()
    phi = w.phi(g.x)
    p1, p2 = state.psi1, state.psi2
    dp1 = deriv1(p1, g)
    dp2 = deriv1(p2, g)
    out = quad(phi * (np.conj(p1) * dp2 - np.conj(p2) * dp1).imag, g)
    if model is not None:
        w1, w2 = model.grad(p1, p2)
        out += quad(phi * (w2 * np.conj(p2) - w1 * np.conj(p1)).imag, g)
    return out


# ---------------------------------------------------------------------------
# the identity table and the verifier

# What a row's functional and rate see besides the sample: the weight
# (the row's default when none was given), the scaling triple, mass,
# model, and the trajectory's quartet memo for this weight, mass and model.
_Args = namedtuple("_Args", "weight scaling m model memo")

# systems that carry the identity; default weight factory, or None for a
# fixed weight; whether the scaling triple is read; functional and rate,
# each called as fn(args, state, t, k) on sample k at time t
_Identity = namedtuple("_Identity", "systems weight scaling functional rate")


def _quartet(name, pick, rates):
    """Row entry: ``pick`` of the quartet vector function ``name``.

    The vector is computed once per sample into the memo; ``name`` is
    looked up as a module attribute at each evaluation, so a patched
    attribute sees every call.
    """
    def evaluate(a, st, t, k):
        vals = a.memo.get((name, k))
        if vals is None:
            fn = globals()[name]
            vals = (fn(st, a.weight, a.m, a.model) if rates
                    else fn(st, a.weight, a.m))
            a.memo[(name, k)] = vals
        return pick(vals)
    return evaluate


def _slot(family, idx):
    """Functional and rate entries of one component of a quartet."""
    functionals, rates = family
    return (_quartet(functionals, itemgetter(idx), False),
            _quartet(rates, itemgetter(idx), True))


def _combined_j(j):
    return j[0] - j[1] + j[2] - j[3]


def _combined_k(k):
    return k[0] + k[1] - k[2] - k[3]


_J = ("functionals_J1_to_J4", "rhs_J1_to_J4")
_K = ("functionals_K_3d", "rhs_K_3d")
_PSI = ("spinor_1d",)
_RADIAL = ("radial_3d",)
_H = (lambda a, st, t, k: functional_H(st),
      lambda a, st, t, k: rhs_H(st, model=a.model))

_IDENTITIES = {
    "I_weighted_charge": _Identity(
        ("lab_1d", "spinor_1d"), tanh_1d, True,
        lambda a, st, t, k: functional_I(st, a.weight, a.scaling, t),
        lambda a, st, t, k: rhs_I(st, a.weight, a.scaling, t,
                                  model=a.model)),
    "J_chiral_balance": _Identity(
        ("lab_1d",), tanh_1d, True,
        lambda a, st, t, k: functional_J_1d(st, a.weight,
                                            float(a.scaling.lam(t))),
        lambda a, st, t, k: rhs_J_1d(st, a.weight, float(a.scaling.lam(t)),
                                     a.m, float(a.scaling.lam_dot(t)),
                                     model=a.model)),
    "J1": _Identity(_PSI, tanh_1d, False, *_slot(_J, 0)),
    "J2": _Identity(_PSI, tanh_1d, False, *_slot(_J, 1)),
    "J3": _Identity(_PSI, tanh_1d, False, *_slot(_J, 2)),
    "J4": _Identity(_PSI, tanh_1d, False, *_slot(_J, 3)),
    "J_quartet_combined": _Identity(
        _PSI, tanh_1d, False, _quartet(_J[0], _combined_j, False),
        lambda a, st, t, k: rhs_J_combined_1d(st, a.weight, a.m, a.model)),
    "K1_3d": _Identity(_RADIAL, r32_weight, False, *_slot(_K, 0)),
    "tK1_3d": _Identity(_RADIAL, r32_weight, False, *_slot(_K, 1)),
    "K2_3d": _Identity(_RADIAL, r32_weight, False, *_slot(_K, 2)),
    "tK2_3d": _Identity(_RADIAL, r32_weight, False, *_slot(_K, 3)),
    "K_combined_3d": _Identity(
        _RADIAL, r32_weight, False, _quartet(_K[0], _combined_k, False),
        _quartet(_K[1], _combined_k, True)),
    "H_sech_1d": _Identity(_PSI, None, False, *_H),
    "H_radial_r2": _Identity(_RADIAL, None, False, *_H),
}


def identity_ids(system=None):
    """Names of the table's identities, sorted; with a system, only
    those defined on it."""
    return tuple(sorted(name for name, row in _IDENTITIES.items()
                        if system is None or system in row.systems))


def _system(state):
    """System name of a sampled state, as the table spells it."""
    if isinstance(state, RadialSpinorState):
        return "radial_3d"
    return "lab_1d" if state.kind == "lab_uv" else "spinor_1d"


def verify_identity(trajectory, identity, weight=None, scaling=None,
                    m=1.0, model=None):
    """Check an identity of the table along a sampled trajectory.

    Compares centered finite differences of the functional against the
    analytic rate at every interior sample and returns a
    :class:`VirialReport`, whose tolerances are fixed there. The
    trajectory must be uniformly sampled with at least three samples,
    on a system the identity's row lists; the model and mass must be the
    ones the trajectory was generated with, or the defect measures
    exactly that mismatch. ``weight`` replaces the identity's default
    weight, and ``scaling`` (default ``ScalingTriple.constant()``) sets
    the window of the line window charge ``I_weighted_charge`` and the
    width of ``J_chiral_balance``. Either one is refused for an identity
    that would not read it: the H identities have fixed weights, and
    only those two identities read a scaling.

    Both quartet families are memoized on the trajectory, per sample
    and per (weight, mass, model): J1, J2, J3, J4 and J_quartet_combined
    evaluate each sample's J1..J4 functionals and rates once between
    them, and K1_3d, tK1_3d, K2_3d, tK2_3d and K_combined_3d do the
    same for the radial quartet. Mutating a sampled state in place
    after it was verified is unsupported: later quartet checks would
    reuse the stale values.
    """
    row = _IDENTITIES.get(identity)
    if row is None:
        known = ", ".join(identity_ids())
        raise KeyError(f"unknown identity {identity!r}; known: {known}")
    if weight is not None and row.weight is None:
        raise ValueError(f"{identity} has a fixed weight; got {weight!r}")
    if scaling is not None and not row.scaling:
        raise ValueError(f"{identity} reads no scaling triple")
    trajectory.sample_step("verify_identity")
    times = trajectory.times
    states = trajectory.states
    system = _system(states[0])
    if system not in row.systems:
        raise ValueError(f"{identity} is not defined on system {system!r}")
    m = float(m)
    a = _Args(
        weight=row.weight() if weight is None and row.weight else weight,
        scaling=ScalingTriple.constant() if scaling is None else scaling,
        m=m, model=model,
        memo=trajectory._memo.setdefault((weight, m, model), {}))
    f_vals = np.array([row.functional(a, states[k], times[k], k)
                       for k in range(len(states))])
    fd = (f_vals[2:] - f_vals[:-2]) / (times[2:] - times[:-2])
    rhs = np.array([row.rate(a, states[k], times[k], k)
                    for k in range(1, len(states) - 1)])
    return VirialReport(identity, times[1:-1], f_vals[1:-1], fd, rhs)


# ---------------------------------------------------------------------------
# coercivity of the window Hessian

def coercivity_estimate(L, grid=None):
    """Minimal odd-sector Rayleigh quotient of the window Hessian.

    The Hessian form is int z'^2 - int sech^2(x/L) z^2 / (2 L^2); the
    reference form is int z'^2 + int sech^4(x/L) z^2 / L. Discretizes
    both quadratic forms on the right half line with the odd boundary
    condition z(0)=0 (odd functions are determined there) as
    tridiagonal sparse matrices A (Hessian) and B (reference). Since
    A = B - D with D = diag(well + bump) >= 0, the minimal eigenvalue of
    the pencil (A, B) is 1 - mu_max, where mu_max is the largest
    eigenvalue of (D, B), found by a sparse Lanczos solve. (A shift-invert
    solve at 0 would return the eigenvalue nearest 0, which is not the
    minimum once the pencil turns negative.) A positive return certifies
    coercivity at this resolution; the quotient is bounded by 1 from
    above since the reference form dominates the Hessian.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import eigsh

    L = float(L)
    if L <= 0.0:
        raise ValueError("L must be positive")
    if grid is None:
        grid = Grid1D(-25.0 * L, 25.0 * L, 4001)
    if not grid.is_symmetric():
        raise ValueError("coercivity_estimate needs a symmetric grid")
    h = grid.h
    xr = grid.x[grid.x > 0.5 * h]
    n = xr.size
    if n < 8:
        raise ValueError("grid too coarse for the eigensolve")
    # first-difference kinetic form on [0, x_max] with z(0) = 0 pinned
    # and a free right end; the mirror image doubles everything, which
    # cancels in the quotient
    main = np.full(n, 2.0 / h)
    main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    well = h / np.cosh(xr / L) ** 2 / (2.0 * L * L)
    bump = h / np.cosh(xr / L) ** 4 / L
    b_mat = diags([off, main + bump, off], [-1, 0, 1], format="csc")
    # a fixed start vector: the default random one moves the result in
    # its last digits from call to call
    mu_max = eigsh(diags(well + bump, format="csc"), k=1, M=b_mat,
                   which="LA", v0=np.ones(n),
                   return_eigenvectors=False)[0]
    return float(1.0 - mu_max)


# ---------------------------------------------------------------------------
# dispersion integrands for cumulative monitors

def window_flux_1d(state, lam):
    """(1/lam) * integral of sech^2(x/lam) |state|^2 on the line."""
    _require_1d(state, "window_flux_1d")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
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
    _require_radial(state, "origin_flux_radial")
    g = state.grid
    r = g.r
    d11, d12, d21, d22 = _quartet_fields(state)[1]
    grad_sq = d11 ** 2 + d12 ** 2 + d21 ** 2 + d22 ** 2
    return quad(np.sqrt(r) * grad_sq / (1.0 + r), g, measure="line") \
        + quad(state.density() / (r ** 1.5 * (1.0 + r)), g, measure="line")
