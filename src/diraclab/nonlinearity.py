"""Nonlinearity catalog with exact Wirtinger gradients and admissibility checks.

Gradients are evaluated off-shell: eval_grad(a, b, c, d) treats the four
slots (psi1, conj psi1, psi2, conj psi2) -- or (u, conj u, v, conj v) in the
lab frame -- as independent complex variables. All right-hand sides of the
evolution and of the weighted identities consume these analytic gradients,
or a model's real split of them on shell (see NonlinearityModel); finite
differencing appears only inside the checkers and the test oracles.
"""

import numpy as np

__all__ = [
    "NonlinearityModel",
    "CheckResult",
    "builtin",
    "thirring",
    "gross_neveu",
    "bec_resonance",
    "thirring_psi",
    "quartic_harmonic",
    "soler",
    "isotropic_pair",
    "cubic_conjugate_pair",
    "zero_model",
    "require_frame",
    "require_zero_at_rest",
    "require_harmonic",
    "sample_states",
    "check_gauge_symmetry",
    "check_harmonic",
    "check_bd_dependence",
    "check_growth",
    "check_polynomial",
    "check_phase_separable",
    "check_all",
]


# frame (a model's ``arity``, a state's ``kind``) -> its name in messages
_FRAMES = {"lab_uv": "lab", "spinor_psi": "spinor"}


def require_frame(model, kind, who):
    """Raise ValueError unless ``model`` is written in the frame ``kind``.

    ``kind`` is a state's frame (its ``kind`` attribute); ``who`` names
    the caller in the message.
    """
    if model.arity != kind:
        raise ValueError(
            f"{who}: model {model.name!r} has arity {model.arity!r}, "
            f"the state is in the {kind!r} frame")


def require_zero_at_rest(model, who):
    """Raise ValueError unless ``model``'s gradient is exactly zero at the
    zero state, so that the zero field is a fixed point of the evolution.

    The growth contract |W1|+|W2| <= C|state|^p with p >= 1 implies it;
    :func:`diraclab.dynamics.integrate` relies on it to skip the zero far
    field. ``eval_grad`` is called directly, not through ``grad``.
    """
    z = np.zeros(2, dtype=complex)
    w1, w2 = model.eval_grad(z, z, z, z)
    if not (np.all(np.asarray(w1) == 0.0) and np.all(np.asarray(w2) == 0.0)):
        raise ValueError(
            f"{who}: model {model.name!r} has a nonzero gradient at the "
            "zero state")


def require_harmonic(model, who):
    """Raise ValueError unless ``model`` passes :func:`check_harmonic`;
    ``who`` names the caller in the message."""
    report = check_harmonic(model)
    if not report.ok:
        raise ValueError(
            f"{who}: model {model.name!r} fails the mixed-gradient "
            f"cancellation conditions (defect {report.defect:.3e}); the "
            "second-order reformulation only closes when they hold")


class NonlinearityModel:
    """A nonlinearity (W1, W2) with optional scalar potential.

    Parameters
    ----------
    name : str
    arity : {"lab_uv", "spinor_psi"}
        The frame the model is written in: the lab pair (u, v) or the
        spinor pair (psi1, psi2), which radial states share.
    p : int
        Gradient growth power: |W1|+|W2| <= C|state|^p near zero, p >= 1.
        So the gradient vanishes at the zero state, which the time
        stepper checks (see :func:`require_zero_at_rest`).
    eval_grad : callable
        (a, b, c, d) -> (W1, W2), slots independent, vectorized.
    eval_W : callable or None
        On-shell potential (z1, z2) -> W. None when the pair (W1, W2)
        is not a joint Wirtinger gradient (soler).
    coupling : float
        Must be finite.
    real_split : callable or None
        On-shell (4, ...) block of rows (p11, p12, p21, p22) -> fresh
        (4, ...) block of the rows of :meth:`w_fields` in real
        arithmetic, used there in place of ``grad``; the checkers keep
        differentiating ``eval_grad`` off shell. Each row must equal
        ``grad``'s real or imaginary part value for value (``==``). The
        sign of a zero may differ, except at the zero state (+0.0 in
        every slot), where the constructor checks that the rows are
        ``grad``'s bit for bit. The radial right-hand side relies on the
        first rule; integrate's floor hides zero signs.
    """

    def __init__(self, name, arity, p, eval_grad, eval_W=None, coupling=1.0,
                 real_split=None):
        if arity not in _FRAMES:
            raise ValueError(f"unknown arity {arity!r}")
        if not np.isfinite(coupling):
            raise ValueError(f"coupling must be finite, got {coupling!r}")
        self.name = name
        self.arity = arity
        self.p = int(p)
        self.eval_grad = eval_grad
        self.eval_W = eval_W
        self.coupling = float(coupling)
        self.real_split = real_split
        if real_split is not None:
            rest = np.zeros((4, 1))
            w1, w2 = self.grad(rest[0] + 0j, rest[0] + 0j)
            want = np.array([w1.real, w1.imag, w2.real, w2.imag]).tobytes()
            if np.array(real_split(rest)).tobytes() != want:
                raise ValueError(
                    f"model {name!r}: real_split differs from grad's parts "
                    "at the zero state")

    def grad(self, z1, z2):
        """On-shell gradient (W1, W2) at the state (z1, z2)."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        return self.eval_grad(z1, np.conj(z1), z2, np.conj(z2))

    def w_fields(self, p):
        """Real rows (W11, W12, W21, W22), W_j = W_j1 + i W_j2, as one
        fresh (4, ...) block, at the state z1 = p11 + i p12,
        z2 = p21 + i p22 given as the float block p = (p11, p12, p21, p22).

        Uses the model's ``real_split`` when it has one, else the real
        and imaginary parts of ``grad``.
        """
        if self.real_split is not None:
            return self.real_split(p)
        p11, p12, p21, p22 = p
        W1, W2 = self.grad(p11 + 1j * p12, p21 + 1j * p22)
        return np.array([W1.real, W1.imag, W2.real, W2.imag])

    def potential(self, z1, z2):
        """On-shell potential W at the state (z1, z2); the one refusal of
        a model that carries none."""
        if self.eval_W is None:
            raise ValueError(f"model {self.name!r} carries no potential W")
        return self.eval_W(np.asarray(z1, dtype=complex),
                           np.asarray(z2, dtype=complex))

    def __repr__(self):
        return (f"NonlinearityModel({self.name!r}, arity={self.arity!r}, "
                f"p={self.p}, coupling={self.coupling:g})")


def thirring(coupling=1.0):
    """W = coupling * |u|^2 |v|^2."""
    co = float(coupling)

    def grad(a, b, c, d):
        return co * a * c * d, co * a * b * c

    def W(z1, z2):
        return co * (np.abs(z1) ** 2 * np.abs(z2) ** 2).real

    return NonlinearityModel("thirring", "lab_uv", 3, grad, W, co)


def gross_neveu(coupling=1.0):
    """W = (coupling/2) (conj(u) v + u conj(v))^2."""
    co = float(coupling)

    def grad(a, b, c, d):
        s = b * c + a * d
        return co * s * c, co * s * a

    def W(z1, z2):
        s = 2.0 * (np.conj(z1) * z2).real
        return 0.5 * co * s * s

    return NonlinearityModel("gross_neveu", "lab_uv", 3, grad, W, co)


def bec_resonance(coupling=1.0):
    """W = coupling * (|u|^2 + |v|^2) |u|^2 |v|^2."""
    co = float(coupling)

    def grad(a, b, c, d):
        ab, cd = a * b, c * d
        return co * a * cd * (2.0 * ab + cd), co * c * ab * (ab + 2.0 * cd)

    def W(z1, z2):
        p1, p2 = np.abs(z1) ** 2, np.abs(z2) ** 2
        return co * (p1 + p2) * p1 * p2

    return NonlinearityModel("bec_resonance", "lab_uv", 5, grad, W, co)


def thirring_psi(coupling=1.0):
    """`thirring` rewritten in the spinor frame:
    W1 = -(coupling/4)(psi1^2 + psi2^2) conj(psi1),
    W2 = +(coupling/4)(psi1^2 + psi2^2) conj(psi2).

    A spinor-frame run with it is the image under the frame map (see
    :func:`diraclab.exact.to_spinor_frame`) of the lab run with
    ``thirring(coupling)``. The spinor-frame equations carry the pair
    with the signs (-W1, +W2), so it is no joint conjugate gradient and
    no potential is attached; the harmonic checker must reject it.
    """
    co = float(coupling)

    def grad(a, b, c, d):
        s = a * a + c * c
        return -0.25 * co * s * b, 0.25 * co * s * d

    return NonlinearityModel("thirring_psi", "spinor_psi", 3, grad, None, co)


def quartic_harmonic(coupling=1.0):
    """W = coupling * (conj(psi1)^4 + conj(psi2)^4 - 6 conj(psi1)^2 conj(psi2)^2).

    Depends on (b, d) only and satisfies all four mixed-gradient
    cancellation conditions; the potential itself is complex valued.
    """
    co = float(coupling)

    def grad(a, b, c, d):
        # products only: the general complex power b ** 3 is several
        # times slower than b * b * b, for the same few ulps of round-off
        b2, d2 = b * b, d * d
        return (co * ((4.0 * b) * (b2 - 3.0 * d2)),
                co * ((4.0 * d) * (d2 - 3.0 * b2)))

    def W(z1, z2):
        b, d = np.conj(z1), np.conj(z2)
        return co * (b ** 4 + d ** 4 - 6.0 * b * b * d * d)

    return NonlinearityModel("quartic_harmonic", "spinor_psi", 3, grad, W, co)


def soler(g_coeffs=(1.0,), coupling=1.0):
    """(W1, W2) = g(|psi1|^2 - |psi2|^2) (psi1, psi2).

    g_coeffs : coefficients (g1, g2, ...) of g(s) = sum_k g_k s^k, g(0)=0.

    The pair is not a joint Wirtinger gradient, so no eval_W is attached.
    The real split is grad's expression on shell in real arithmetic:
    s = ((2 p11)^2 + (2 p12)^2 - (2 p21)^2 - (2 p22)^2) / 4, then the rows
    coupling * g(s) * p_jk, in grad's order of operations, each step one
    call on the (4, ...) block or on its rows.
    """
    g = tuple(float(c) for c in g_coeffs)
    if not any(g):
        raise ValueError("g must have a nonzero coefficient")
    k_min = next(k for k, c in enumerate(g, start=1) if c != 0.0)
    co = float(coupling)

    def g_of(s):
        out = np.zeros_like(s)
        for c in reversed(g):
            out = (out + c) * s
        return out

    def grad(a, b, c, d):
        # Re/Im parts continued off-shell: x1=(a+b)/2, y1=(a-b)/(2i), ...
        s = ((a + b) ** 2 - (a - b) ** 2 - (c + d) ** 2 + (c - d) ** 2) / 4.0
        gs = co * g_of(s)
        return gs * a, gs * c

    def real_split(p):
        # on shell a + b = 2 p11 and (a - b)^2 = -(2 p12)^2, so this is the
        # real part of grad's s, and of gs, term by term in grad's order
        q = np.multiply(2.0, p)
        np.square(q, out=q)
        s = q[0] + q[1]
        s -= q[2]
        s -= q[3]
        s /= 4.0
        gs = s * (0.0 + g[-1])  # g_of's first step (0 + g_n) s
        for c in reversed(g[:-1]):
            gs += c
            gs *= s
        gs *= co
        w = np.multiply(gs, p, out=q)
        # grad's imaginary parts end in a sum with a zero product, which
        # turns a -0.0 into +0.0 at the zero state
        w[1::2] += 0.0
        return w

    model = NonlinearityModel("soler", "spinor_psi", 2 * k_min + 1, grad,
                              None, co, real_split=real_split)
    model.g_coeffs = g
    return model


def isotropic_pair():
    """Null-direction power pair; harmonic but not (b,d)-only: the powers
    m = n = 3 are odd and a = b = (1, i) are null, a1^2 + a2^2 = 0."""
    m = n = 3
    a1 = b1 = 1.0 + 0j
    a2 = b2 = 1j

    def grad(aa, bb, cc, dd):
        hol = (a1 * aa + a2 * cc) ** m
        anti = (b1 * bb + b2 * dd) ** n
        return -(a1 / a2) * hol + (b1 / b2) * anti, hol + anti

    return NonlinearityModel(f"isotropic_pair(m={m},n={n})", "spinor_psi",
                             max(m, n), grad, None)


def cubic_conjugate_pair(coupling=1.0):
    """W1 = psi2(psi2^2-3psi1^2) - conj, W2 = psi1(psi1^2-3psi2^2) + conj.

    Harmonic and parity-compatible, but depends on (a, c) as well, so the
    (b,d)-only dependence check must reject it.
    """
    co = float(coupling)

    def grad(a, b, c, d):
        return (co * (c * (c * c - 3.0 * a * a) - d * (d * d - 3.0 * b * b)),
                co * (a * (a * a - 3.0 * c * c) + b * (b * b - 3.0 * d * d)))

    return NonlinearityModel("cubic_conjugate_pair", "spinor_psi", 3, grad,
                             None, co)


def zero_model(arity="lab_uv"):
    """The linear evolution: W1 = W2 = 0."""

    def grad(a, b, c, d):
        z = np.zeros_like(np.asarray(a, dtype=complex))
        return z, z.copy()

    def W(z1, z2):
        return np.zeros(np.shape(z1))

    return NonlinearityModel("zero", arity, 3, grad, W, 0.0)


_BUILTINS = {
    "thirring": thirring,
    "gross_neveu": gross_neveu,
    "bec_resonance": bec_resonance,
    "thirring_psi": thirring_psi,
    "quartic_harmonic": quartic_harmonic,
    "soler": soler,
    "isotropic_pair": isotropic_pair,
    "cubic_conjugate_pair": cubic_conjugate_pair,
    "zero": zero_model,
}


# factories whose model carries no coupling constant
_UNCOUPLED = ("zero", "isotropic_pair")


def builtin(name, **params):
    """Construct a catalog model by name; extra keywords reach the factory."""
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown nonlinearity {name!r}; known: {sorted(_BUILTINS)}")
    if "coupling" in params and name in _UNCOUPLED:
        raise ValueError(f"model {name!r} takes no coupling")
    return _BUILTINS[name](**params)


# Every checker draws from the same fixed sample, so a direct call, the
# check-nonlinearity report and the nlkg-check gate agree on each verdict.
_N_SAMPLES = 200
_SEED = 0
_AMPLITUDE = 1.5


def sample_states(n_samples, seed):
    """Deterministic complex sample pairs shared by checkers and tests."""
    rng = np.random.default_rng(seed)
    z = _AMPLITUDE * (rng.normal(size=(4, n_samples))
                      + 1j * rng.normal(size=(4, n_samples))) / np.sqrt(2.0)
    return z[0], z[1]


class CheckResult:
    """Boolean with an attached worst defect; truthiness is the verdict."""

    def __init__(self, ok, defect, **extra):
        self.ok = bool(ok)
        self.defect = float(defect)
        for k, v in extra.items():
            setattr(self, k, v)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CheckResult(ok={self.ok}, defect={self.defect:.3e})"


def check_gauge_symmetry(model):
    """Phase invariance W(e^{i theta}u, e^{i theta}v) = W(u,v) and swap symmetry.

    Returns the pair (gauge, swap) of results.
    """
    z1, z2 = sample_states(_N_SAMPLES, _SEED)
    theta = np.random.default_rng(_SEED + 1).uniform(0.0, 2.0 * np.pi,
                                                     size=_N_SAMPLES)
    w0 = np.asarray(model.potential(z1, z2))
    scale = 1.0 + np.abs(w0)
    rot = np.exp(1j * theta)
    d_gauge = np.max(np.abs(np.asarray(model.potential(rot * z1, rot * z2))
                            - w0) / scale)
    d_sym = np.max(np.abs(np.asarray(model.potential(z2, z1)) - w0) / scale)
    return (CheckResult(d_gauge <= 1e-12, d_gauge),
            CheckResult(d_sym <= 1e-12, d_sym))


def _slot_derivatives(model, a, b, c, d):
    # 4th-order central differences in each slot, exact on low-degree
    # polynomials up to roundoff
    eps = 1e-2
    slots = [a, b, c, d]
    out = []
    for k in range(4):
        shifted = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            args = list(slots)
            args[k] = args[k] + step * eps
            shifted.append(model.eval_grad(*args))
        (w1_m2, w2_m2), (w1_m1, w2_m1), (w1_p1, w2_p1), (w1_p2, w2_p2) = shifted
        d1 = (w1_m2 - 8.0 * w1_m1 + 8.0 * w1_p1 - w1_p2) / (12.0 * eps)
        d2 = (w2_m2 - 8.0 * w2_m1 + 8.0 * w2_p1 - w2_p2) / (12.0 * eps)
        out.append((d1, d2))
    return out  # out[k] = (dW1/dslot_k, dW2/dslot_k)


def check_harmonic(model):
    """Test the four mixed-gradient cancellation conditions.

    Differentiates (W1, W2) with the four slots independent and forms

        dW2/da + dW1/dc,  dW2/db - dW1/dd,
        dW2/dc - dW1/da,  dW2/dd + dW1/db.

    A model passes when every combination vanishes to 1e-6 * scale at
    every sample. The defect is the worst combination; `by_condition`
    records the raw per-combination maxima so a failing model's defect
    can be compared against a closed form.
    """
    z1, z2 = sample_states(_N_SAMPLES, _SEED)
    a, b, c, d = z1, np.conj(z1), z2, np.conj(z2)
    der = _slot_derivatives(model, a, b, c, d)
    combos = {
        "da_W2_plus_dc_W1": np.abs(der[0][1] + der[2][0]),
        "db_W2_minus_dd_W1": np.abs(der[1][1] - der[3][0]),
        "dc_W2_minus_da_W1": np.abs(der[2][1] - der[0][0]),
        "dd_W2_plus_db_W1": np.abs(der[3][1] + der[1][0]),
    }
    amp = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
    scale = 1.0 + amp ** max(model.p - 1, 1)
    ok = all(np.all(vals <= 1e-6 * scale) for vals in combos.values())
    by_condition = {key: float(np.max(vals)) for key, vals in combos.items()}
    return CheckResult(ok, max(by_condition.values()),
                       by_condition=by_condition)


def check_bd_dependence(model):
    """(W1, W2) must be unchanged when slots a and c move with b, d held."""
    z1, z2 = sample_states(_N_SAMPLES, _SEED)
    a, b, c, d = z1, np.conj(z1), z2, np.conj(z2)
    rng = np.random.default_rng(_SEED + 2)
    da = 0.5 * (rng.normal(size=_N_SAMPLES) + 1j * rng.normal(size=_N_SAMPLES))
    dc = 0.5 * (rng.normal(size=_N_SAMPLES) + 1j * rng.normal(size=_N_SAMPLES))
    w1, w2 = model.eval_grad(a, b, c, d)
    w1p, w2p = model.eval_grad(a + da, b, c + dc, d)
    scale = 1.0 + np.abs(w1) + np.abs(w2)
    defect = np.max((np.abs(w1p - w1) + np.abs(w2p - w2)) / scale)
    return CheckResult(defect <= 1e-12, defect)


def check_growth(model):
    """Log-log slope of |W1|+|W2| along 5 rays s * state, s in [2^-8, 1],
    against the power ``model.p`` the model declares.

    The defect and `slope` are the smallest slope; `slope` is None when
    the gradient vanishes identically.
    """
    s = 2.0 ** np.arange(-8, 1).astype(float)
    z1, z2 = sample_states(5, _SEED + 3)
    slopes = []
    constants = []
    for i in range(5):
        w1, w2 = model.grad(s * z1[i], s * z2[i])
        mag = np.abs(w1) + np.abs(w2)
        if np.max(mag) < 1e-300:
            continue  # identically zero along the ray
        slopes.append(np.polyfit(np.log(s), np.log(mag), 1)[0])
        constants.append(np.max(mag / s ** model.p))
    if not slopes:
        return CheckResult(True, 0.0, slope=None)
    slope = min(slopes)
    constant = max(constants)
    ok = slope >= model.p - 0.1 and np.isfinite(constant)
    return CheckResult(ok, slope, slope=slope)


def check_polynomial(model):
    """Forward differences of order 13 along a ray must annihilate (W1, W2),
    as they do for every polynomial of degree up to 12."""
    from math import comb

    z1, z2 = sample_states(1, _SEED + 4)
    k = 13
    s = np.arange(k + 1, dtype=float)
    w1, w2 = model.grad(np.outer(s, z1).ravel(), np.outer(s, z2).ravel())
    coeffs = np.array([(-1.0) ** (k - j) * comb(k, j) for j in range(k + 1)])
    scale = 1.0 + np.max(np.abs(w1)) + np.max(np.abs(w2))
    defect = max(abs(np.dot(coeffs, w1)), abs(np.dot(coeffs, w2))) / scale
    return CheckResult(defect <= 1e-8, defect)


def check_phase_separable(model):
    """W invariant under independent phase rotations of u and v.

    Holds exactly when W depends on (|u|^2, |v|^2) alone. For such W the
    massless lab flow transports |u|^2 right and |v|^2 left with no
    exchange between them.
    """
    z1, z2 = sample_states(_N_SAMPLES, _SEED)
    rng = np.random.default_rng(_SEED + 5)
    th1 = np.exp(1j * rng.uniform(0, 2 * np.pi, _N_SAMPLES))
    th2 = np.exp(1j * rng.uniform(0, 2 * np.pi, _N_SAMPLES))
    w0 = np.asarray(model.potential(z1, z2))
    scale = 1.0 + np.abs(w0)
    d1 = np.abs(np.asarray(model.potential(th1 * z1, z2)) - w0) / scale
    d2 = np.abs(np.asarray(model.potential(z1, th2 * z2)) - w0) / scale
    defect = max(np.max(d1), np.max(d2))
    return CheckResult(defect <= 1e-12, defect)


def check_all(model):
    """Run every checker and return the JSON-ready report.

    gauge_ok, symmetry_ok and phase_separable_ok are None, and their
    defects absent, when the model has no potential. The growth slope
    is None when the gradient vanishes identically.
    """
    defects = {}
    report = {"name": model.name, "arity": model.arity, "p": model.p,
              "defects": defects, "n_samples": _N_SAMPLES}
    checks = [("harmonic", check_harmonic(model)),
              ("bd_dependence", check_bd_dependence(model)),
              ("polynomial", check_polynomial(model))]
    if model.eval_W is None:
        report.update(gauge_ok=None, symmetry_ok=None,
                      phase_separable_ok=None)
    else:
        gauge, swap = check_gauge_symmetry(model)
        checks += [("gauge", gauge), ("symmetry", swap),
                   ("phase_separable", check_phase_separable(model))]
    for key, result in checks:
        report[f"{key}_ok"] = result.ok
        defects[key] = result.defect
    growth = check_growth(model)
    report["growth_ok"] = growth.ok
    defects["growth_slope"] = growth.slope
    return report
