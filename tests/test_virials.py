import copy
import sys
import weakref
from collections import Counter, namedtuple

import numpy as np
import pytest

from diraclab import exact, nonlinearity, virials, weights
from diraclab.algebra import kernel_matrices
from diraclab.dynamics import (
    RadialSpinorState,
    SpinorState1D,
    Trajectory,
    integrate,
)
from diraclab.grids import Grid1D, RadialGrid, deriv1, quad
from diraclab.virials import (
    ScalingTriple,
    functional_H,
    functional_I,
    functionals_J1_to_J4,
    functionals_K_3d,
    identity_ids,
    origin_flux_radial,
    rhs_H,
    rhs_I,
    rhs_J1_to_J4,
    rhs_J_combined_1d,
    rhs_K_3d,
    verify_identity,
    window_flux_1d,
)
from test_weights import sing


# ---------------------------------------------------------------------------
# shared states and trajectories

G_LAB = Grid1D(-30.0, 30.0, 1201)
G_PSI = G_LAB


def lab_state(grid=None):
    g = G_LAB if grid is None else grid
    u = np.exp(-(g.x + 4.0) ** 2 / 5.0) * (1.0 + 0.2j)
    v = 0.8 * np.exp(-(g.x - 3.0) ** 2 / 6.0) * (0.3 - 0.9j)
    return SpinorState1D(g, "lab_uv", np.vstack([u, v]))


def psi_state(amp, grid=None):
    g = G_PSI if grid is None else grid
    p1 = amp * np.exp(-(g.x + 3.0) ** 2 / 4.0) * (1.0 + 0.3j)
    p2 = amp * 0.6 * np.exp(-(g.x - 2.0) ** 2 / 5.0) * (0.5 - 0.8j)
    return SpinorState1D(g, "spinor_psi", np.vstack([p1, p2]))


def bump_even(r, c, w, a):
    return a * (np.exp(-((r - c) / w) ** 2) + np.exp(-((r + c) / w) ** 2))


def bump_odd(r, c, w, a):
    return a * (np.exp(-((r - c) / w) ** 2) - np.exp(-((r + c) / w) ** 2))


def annular_state(grid, scale=1.0):
    # parity-symmetrized bumps: origin Taylor data vanishes to ~1e-7,
    # which keeps the identity defect at the time-sampling floor
    r = grid.r
    return RadialSpinorState(grid, np.vstack([
        bump_even(r, 6.0, 1.5, 1.0 * scale),
        bump_even(r, 5.0, 1.8, 0.6 * scale),
        bump_odd(r, 6.5, 1.6, 0.8 * scale),
        bump_odd(r, 5.5, 1.5, 0.7 * scale)]))


def origin_state(grid, scale=1.0):
    r = grid.r
    return RadialSpinorState(grid, np.vstack([
        scale * np.exp(-r ** 2 / 3.0),
        scale * 0.5 * r ** 2 * np.exp(-r ** 2 / 4.0),
        scale * 0.8 * r * np.exp(-r ** 2 / 3.5),
        scale * 0.54 * r * np.exp(-r ** 2 / 2.5)]))


@pytest.fixture(scope="module")
def thirring_traj():
    return integrate(lab_state(), nonlinearity.thirring(), t_end=2.0,
                     dt=0.01, m=1.0, sample_stride=2)


@pytest.fixture(scope="module")
def gross_neveu_traj():
    return integrate(lab_state(), nonlinearity.gross_neveu(), t_end=2.0,
                     dt=0.01, m=1.0, sample_stride=2)


@pytest.fixture(scope="module")
def soler_psi_traj():
    return integrate(psi_state(0.6), nonlinearity.soler(), t_end=2.0,
                     dt=0.01, m=1.0, sample_stride=2)


@pytest.fixture(scope="module")
def radial_linear_traj():
    rg = RadialGrid(40.0, 1600)
    return integrate(annular_state(rg), nonlinearity.zero_model("spinor_psi"),
                     t_end=2.0, dt=0.01, m=0.0, sample_stride=2)


@pytest.fixture(scope="module")
def radial_soler_traj():
    rg = RadialGrid(40.0, 1600)
    return integrate(annular_state(rg, 0.6), nonlinearity.soler(),
                     t_end=2.0, dt=0.01, m=1.0, sample_stride=2)


def stream_traj(t_lo, t_hi, n_samp, grid):
    def u0(x):
        return np.exp(-x * x / 9.0) * (1.0 + 0.4j)

    def v0(x):
        return 0.7 * np.exp(-(x - 1.0) ** 2 / 7.0) * (0.6 - 1.0j)

    ts = np.linspace(t_lo, t_hi, n_samp)
    sts = [exact.massless_free(u0, v0, t, grid) for t in ts]
    zeros = [0.0] * n_samp
    return Trajectory(ts, sts, zeros, zeros)


# ---------------------------------------------------------------------------
# scaling presets

def test_constant_scaling_drift():
    sc = ScalingTriple.constant(lam=2.5, theta=0.7)
    assert sc.check(3.0) == (1.0, 2.5)
    assert sc.rho(2.0) == pytest.approx(1.4)
    assert sc.rho_dot(11.0) == pytest.approx(0.7)
    assert sc.lam_dot(5.0) == 0.0


def test_log_window_scaling():
    sc = ScalingTriple.log_window()
    t = np.exp(2.0)
    assert sc.lam(t) == pytest.approx(t / 4.0, rel=1e-14)
    # derivative cross-checked by finite differences
    eps = 1e-6
    fd = (sc.lam(t + eps) - sc.lam(t - eps)) / (2.0 * eps)
    assert sc.lam_dot(t) == pytest.approx(fd, rel=1e-8)
    with pytest.raises(ValueError):
        sc.lam(0.5)


def test_exterior_scaling_chases_slower_than_edge():
    sc = ScalingTriple.exterior(b=0.5, t0=4.0)
    assert sc.check(2.0) == (2.0, 1.0)
    assert sc.rho(4.0) == pytest.approx(-(1.0 + 0.5) * 4.0)
    assert sc.rho_dot(3.0) == pytest.approx(-1.25)
    # center speed strictly above the region-edge speed
    assert sc.rho_dot(3.0) > -(1.0 + 0.5)


def test_scaling_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ScalingTriple.constant(lam=0.0)
    with pytest.raises(ValueError):
        ScalingTriple.exterior(b=-1.0, t0=4.0)
    bad = ScalingTriple(mu=lambda t: -1.0, lam=lambda t: 1.0,
                        rho=lambda t: 0.0, mu_dot=lambda t: 0.0,
                        lam_dot=lambda t: 0.0, rho_dot=lambda t: 0.0)
    with pytest.raises(ValueError):
        bad.check(0.0)


# the frame's transport matrix, as the kernel that steps it reads
_ALPHA = {"lab_uv": kernel_matrices("lab_1d")[0],
          "spinor_psi": kernel_matrices("spinor_1d")[0]}


def _einsum_bracket(kind, fields):
    """rhs_I's transport current read off the transport matrix alpha,
    split into its real and imaginary parts."""
    a_r, a_i = _ALPHA[kind].real, _ALPHA[kind].imag
    u1 = np.ascontiguousarray(fields.real)
    u2 = np.ascontiguousarray(fields.imag)
    return (np.einsum("ab,ax,bx->x", a_r, u1, u1)
            + np.einsum("ab,ax,bx->x", a_r, u2, u2)
            - 2.0 * np.einsum("ab,ax,bx->x", a_i, u1, u2))


def test_transport_current_is_the_transport_matrix_form():
    # bit for bit in both frames, zero signs included, on fields with
    # +0.0 and -0.0 parts among ordinary values
    g = Grid1D(-40.0, 40.0, 1601)
    rng = np.random.default_rng(11)
    for kind in _ALPHA:
        for _ in range(50):
            parts = rng.normal(size=(2, 2, g.n_points))
            parts[rng.random(parts.shape) < 0.2] = 0.0
            parts[rng.random(parts.shape) < 0.2] *= -0.0
            fields = np.empty((2, g.n_points), dtype=complex)
            fields.real, fields.imag = parts
            state = SpinorState1D(g, kind, fields)
            assert (virials._transport_current(state).tobytes()
                    == _einsum_bracket(kind, state.fields).tobytes())


# ---------------------------------------------------------------------------
# identities on the analytic massless stream (no integrator error at all)

def test_stream_identities_at_fd_floor():
    g = Grid1D(-80.0, 80.0, 3201)
    tr = stream_traj(0.0, 2.0, 401, g)
    for ident, kw in [("J_chiral_balance", {"m": 0.0}),
                      ("I_weighted_charge", {})]:
        rep = verify_identity(tr, ident, **kw)
        assert rep.passed, ident
        assert rep.max_defect <= 1e-5, ident


def test_stream_weighted_charge_with_drifting_window():
    g = Grid1D(-80.0, 80.0, 3201)
    tr = stream_traj(0.0, 2.0, 401, g)
    sc = ScalingTriple.constant(lam=2.5, theta=0.7)
    rep = verify_identity(tr, "I_weighted_charge", scaling=sc)
    assert rep.passed
    assert rep.max_defect <= 1e-5


def test_stream_log_window_identity():
    g = Grid1D(-80.0, 80.0, 3201)
    tr = stream_traj(10.0, 12.0, 401, g)
    rep = verify_identity(tr, "I_weighted_charge",
                          scaling=ScalingTriple.log_window())
    assert rep.passed
    assert rep.max_defect <= 1e-8


def test_exterior_window_is_monotone_with_nonpositive_rate():
    g = Grid1D(-80.0, 80.0, 3201)
    tr = stream_traj(2.0, 4.0, 401, g)
    half = weights.half_tanh(side=+1)
    ext = ScalingTriple.exterior(b=0.25, t0=4.0)
    rep = verify_identity(tr, "I_weighted_charge", weight=half, scaling=ext)
    assert rep.passed
    rhs_vals = [rhs_I(st, half, ext) for st in tr.states]
    assert max(rhs_vals) <= 0.0
    ivals = [functional_I(st, half, ext) for st in tr.states]
    assert np.max(np.diff(ivals)) < 0.0
    assert ivals[0] == pytest.approx(0.737641, abs=1e-5)
    assert ivals[-1] == pytest.approx(0.616236, abs=1e-5)


# ---------------------------------------------------------------------------
# identities along integrated 1D runs

def test_lab_identities_thirring(thirring_traj):
    model = nonlinearity.thirring()
    assert verify_identity(thirring_traj, "J_chiral_balance", m=1.0,
                           model=model).passed
    rep = verify_identity(thirring_traj, "I_weighted_charge", m=1.0,
                          model=model)
    assert rep.passed
    assert rep.max_defect <= 2e-4


def test_lab_identities_bec():
    model = nonlinearity.bec_resonance()
    tr = integrate(lab_state(), model, t_end=2.0, dt=0.01, m=0.5,
                   sample_stride=2)
    for ident in ("J_chiral_balance", "I_weighted_charge"):
        rep = verify_identity(tr, ident, m=0.5, model=model)
        assert rep.passed, ident


def test_chiral_balance_needs_flux_term_for_gross_neveu(gross_neveu_traj):
    # the potential flux 2*int phi*[Im(u W1~) - Im(v W2~)] vanishes only
    # under the realness hypothesis; gross_neveu violates it on purpose
    model = nonlinearity.gross_neveu()
    rep = verify_identity(gross_neveu_traj, "J_chiral_balance", m=1.0,
                          model=model)
    assert rep.passed
    rep_bare = verify_identity(gross_neveu_traj, "J_chiral_balance", m=1.0,
                               model=None)
    assert not rep_bare.passed
    assert rep_bare.max_defect >= 5e-3


def test_psi_quartet_identities_soler(soler_psi_traj):
    model = nonlinearity.soler()
    for ident in ("I_weighted_charge", "J1", "J2", "J3", "J4",
                  "J_quartet_combined", "H_sech_1d"):
        rep = verify_identity(soler_psi_traj, ident, m=1.0, model=model)
        assert rep.passed, ident
        assert rep.max_defect <= 1e-4, ident


def test_psi_quartet_identities_quartic():
    model = nonlinearity.quartic_harmonic()
    tr = integrate(psi_state(0.18), model, t_end=2.0, dt=0.01, m=1.0,
                   sample_stride=1)
    for ident in ("I_weighted_charge", "J1", "J4", "J_quartet_combined",
                  "H_sech_1d"):
        rep = verify_identity(tr, ident, m=1.0, model=model)
        assert rep.passed, ident


def test_combined_quartet_rhs_equals_alternating_sum(soler_psi_traj):
    w = weights.tanh_1d()
    model = nonlinearity.soler()
    st = soler_psi_traj.states[len(soler_psi_traj.states) // 2]
    comb = rhs_J_combined_1d(st, w, m=1.0, model=model)
    four = rhs_J1_to_J4(st, w, m=1.0, model=model)
    alt = four[0] - four[1] + four[2] - four[3]
    assert abs(comb - alt) <= 1e-7
    jvals = functionals_J1_to_J4(st, w, m=1.0)
    assert jvals.shape == (4,)


# ---------------------------------------------------------------------------
# one verification pass shared by every identity

def short_psi_traj():
    # fresh each call, so no state is shared with another test
    return integrate(psi_state(0.6), nonlinearity.soler(), t_end=0.2,
                     dt=0.01, m=1.0, sample_stride=2)


def short_radial_traj():
    return integrate(annular_state(RadialGrid(40.0, 1600), 0.6),
                     nonlinearity.soler(), t_end=0.1, dt=0.01, m=1.0,
                     sample_stride=1)


def _j_combine(v):
    return v[0] - v[1] + v[2] - v[3]


def _k_combine(v):
    return v[0] + v[1] - v[2] - v[3]


def _k_combined_rate(st, weight, m, model):
    return _k_combine(rhs_K_3d(st, weight, m, model))


# one quartet family per case: its five identities, a short trajectory,
# the default and an alternate weight, the names of its public
# functionals and rates, the combined identity's alternating sum and the
# combined identity's rate
Quartet = namedtuple("Quartet", "ids traj weight alt_weight functionals "
                                "rates combine combined_rate")

QUARTETS = {
    "J": Quartet(("J1", "J2", "J3", "J4", "J_quartet_combined"),
                 short_psi_traj, weights.tanh_1d, weights.sech_1d,
                 "functionals_J1_to_J4", "rhs_J1_to_J4", _j_combine,
                 rhs_J_combined_1d),
    # the alternate weight also carries the closed-form quotients
    # (phi/r, phi/r^3, phi'/r, ...) that the K functions require
    "K": Quartet(("K1_3d", "tK1_3d", "K2_3d", "tK2_3d", "K_combined_3d"),
                 short_radial_traj, weights.r32_weight,
                 weights.r2_over_1pr4_weight, "functionals_K_3d",
                 "rhs_K_3d", _k_combine, _k_combined_rate),
}


def fresh_copy(tr):
    return Trajectory(tr.times, [copy.deepcopy(st) for st in tr.states],
                      tr.boundary_mass, tr.max_abs)


def quartet_reference(q, tr, weight, m, model):
    """(values, fd, rhs) per identity of quartet ``q`` from the public
    functions, called on every sample with the verifier's arithmetic."""
    functionals = getattr(virials, q.functionals)
    rates = getattr(virials, q.rates)
    t = tr.times
    inner = tr.states[1:-1]
    f = np.array([functionals(st, weight, m) for st in tr.states])
    f = np.column_stack([f, q.combine(f.T)])
    r = np.array([rates(st, weight, m, model) for st in inner])
    r = np.column_stack(
        [r, [q.combined_rate(st, weight, m, model) for st in inner]])
    fd = (f[2:] - f[:-2]) / (t[2:] - t[:-2])[:, None]
    return {ident: (f[1:-1, i], fd[:, i], r[:, i])
            for i, ident in enumerate(q.ids)}


def assert_same_report(rep, values, fd, rhs):
    assert np.array_equal(rep.values, values), rep.identity
    assert np.array_equal(rep.fd, fd), rep.identity
    assert np.array_equal(rep.rhs, rhs), rep.identity


@pytest.mark.parametrize("family", sorted(QUARTETS))
def test_memoized_quartet_is_bitwise_the_public_functions(family):
    q = QUARTETS[family]
    tr = q.traj()
    model = nonlinearity.soler()
    ref = quartet_reference(q, tr, q.weight(), 1.0, model)
    for rep in verify_identity(tr, q.ids, m=1.0, model=model):
        assert_same_report(rep, *ref[rep.identity])


@pytest.mark.parametrize("family", sorted(QUARTETS))
def test_quartet_memo_is_keyed_by_weight_mass_and_model(family):
    q = QUARTETS[family]
    tr = q.traj()
    soler = nonlinearity.soler()
    for ident in q.ids:
        verify_identity(tr, ident, m=1.0, model=soler)
    for kw in (dict(m=-1.0, model=soler), dict(m=1.0, model=None),
               dict(m=1.0, model=soler, weight=q.alt_weight())):
        for ident in q.ids:
            rep = verify_identity(tr, ident, **kw)
            want = verify_identity(fresh_copy(tr), ident, **kw)
            assert_same_report(rep, want.values, want.fd, want.rhs)


@pytest.mark.parametrize("family", sorted(QUARTETS))
def test_quartet_is_evaluated_once_per_sample(family, monkeypatch):
    q = QUARTETS[family]
    calls = {q.functionals: 0, q.rates: 0}

    def counting(name):
        fn = getattr(virials, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(virials, name, counting(name))
    model = nonlinearity.soler()
    # one batched call, then one call per identity as the runner makes
    for batches in ([q.ids], q.ids):
        tr = q.traj()
        calls.update(dict.fromkeys(calls, 0))
        for ids in batches:
            verify_identity(tr, ids, m=1.0, model=model)
        n = len(tr)
        assert calls == {q.functionals: n, q.rates: n - 2}


@pytest.mark.parametrize("together, grads", [(True, 2), (False, 3)])
def test_pass_derives_each_sample_field_once(monkeypatch, together, grads):
    # a profiler counts stencil passes and gradients by patching
    # virials.deriv1 and NonlinearityModel.grad; on the seven spinor
    # identities a sample takes the quartet's, the W rows' and H's
    # stencil passes, and one gradient pair besides the W rows' own when
    # they are verified together; one call per identity, as the runner
    # makes them, takes H's and I's gradient pairs apart
    ids = ("H_sech_1d", "I_weighted_charge", "J1", "J2", "J3", "J4",
           "J_quartet_combined")
    stencil = virials.deriv1
    grad = nonlinearity.NonlinearityModel.grad
    calls = Counter()
    runs = []

    def counting_deriv1(*args, **kwargs):
        calls["deriv1"] += 1
        return stencil(*args, **kwargs)

    def counting_grad(*args, **kwargs):
        calls["grad"] += 1
        return grad(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in (stencil.__code__,
                                                grad.__code__):
            runs.append(frame.f_back.f_code.co_name)

    model = nonlinearity.quartic_harmonic()
    tr = integrate(psi_state(0.18), model, t_end=0.2, dt=0.01, m=1.0,
                   sample_stride=1)
    monkeypatch.setattr(virials, "deriv1", counting_deriv1)
    monkeypatch.setattr(nonlinearity.NonlinearityModel, "grad",
                        counting_grad)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        reps = [verify_identity(tr, batch, m=1.0, model=model)
                for batch in ([ids] if together else ids)]
    finally:
        sys.setprofile(previous)
    if together:
        [reps] = reps
    assert [rep.identity for rep in reps] == list(ids)
    assert all(rep.passed for rep in reps)
    n = len(tr)
    assert 0 < calls["deriv1"] <= 3 * n
    assert 0 < calls["grad"] <= grads * n
    assert sorted(set(runs)) == ["counting_deriv1", "counting_grad"]
    assert len(runs) == calls["deriv1"] + calls["grad"]


def _drifting_scaling():
    # width and amplitude that move with t, so each sample reads its own
    # window and no weight table can be shared between samples
    return ScalingTriple(
        mu=lambda t: 1.0 + 0.1 * t, lam=lambda t: 2.0 + 0.5 * t,
        rho=lambda t: 0.3 * t, mu_dot=lambda t: 0.1,
        lam_dot=lambda t: 0.5, rho_dot=lambda t: 0.3)


# system -> (trajectory, model, mass, identities, verifier keywords)
_BATCHES = {
    "lab": (lambda: integrate(lab_state(), nonlinearity.gross_neveu(),
                              t_end=0.2, dt=0.01, m=1.0, sample_stride=2),
            nonlinearity.gross_neveu(), 1.0,
            ("I_weighted_charge", "J_chiral_balance"),
            dict(scaling=_drifting_scaling())),
    "spinor": (short_psi_traj, nonlinearity.soler(), 1.0,
               ("H_sech_1d", "I_weighted_charge", "J1", "J2", "J3", "J4",
                "J_quartet_combined"), {}),
    "radial": (short_radial_traj, nonlinearity.soler(), 1.0,
               ("K1_3d", "tK1_3d", "K2_3d", "tK2_3d", "K_combined_3d",
                "H_radial_r2"), {}),
}


@pytest.mark.parametrize("system", sorted(_BATCHES))
def test_batched_verification_equals_separate_calls(system):
    make, model, m, ids, kw = _BATCHES[system]
    tr = make()
    batch = verify_identity(tr, ids, m=m, model=model, **kw)
    assert isinstance(batch, tuple)
    assert [rep.identity for rep in batch] == list(ids)
    for rep in batch:
        alone = verify_identity(fresh_copy(tr), rep.identity, m=m,
                                model=model, **kw)
        for key in ("times", "values", "fd", "rhs", "defect"):
            assert (getattr(rep, key).tobytes()
                    == getattr(alone, key).tobytes()), (rep.identity, key)
        assert rep.to_dict() == alone.to_dict()
    # a single name is a batch of one
    assert (verify_identity(tr, ids[:1], m=m, model=model, **kw)[0].to_dict()
            == verify_identity(tr, ids[0], m=m, model=model, **kw).to_dict())


def _bare(ident, weight, sc, m, model):
    """(functional, rate) of a non-quartet identity as plain calls of
    its public functions on a state at time t."""
    if ident.startswith("H_"):
        return (lambda st, t: functional_H(st),
                lambda st, t: rhs_H(st, model=model))
    if ident == "I_weighted_charge":
        return (lambda st, t: functional_I(st, weight, sc, t),
                lambda st, t: rhs_I(st, weight, sc, t, model=model))
    return (lambda st, t: virials.functional_J_1d(st, weight,
                                                  float(sc.lam(t))),
            lambda st, t: virials.rhs_J_1d(st, weight, float(sc.lam(t)), m,
                                           float(sc.lam_dot(t)),
                                           model=model))


@pytest.mark.parametrize("system", sorted(_BATCHES))
def test_pass_is_bitwise_the_bare_public_functions(system):
    # the identities outside the quartets, against their public functions
    # called on bare states; the quartets have their own test above
    make, model, m, ids, kw = _BATCHES[system]
    tr = make()
    sc = kw.get("scaling", ScalingTriple.constant())
    t = tr.times
    for rep in verify_identity(tr, ids, m=m, model=model, **kw):
        if any(rep.identity in q.ids for q in QUARTETS.values()):
            continue
        functional, rate = _bare(rep.identity, weights.tanh_1d(), sc, m,
                                 model)
        f = np.array([functional(st, tk) for st, tk in zip(tr.states, t)])
        r = np.array([rate(st, tk)
                      for st, tk in zip(tr.states[1:-1], t[1:-1])])
        assert_same_report(rep, f[1:-1], (f[2:] - f[:-2]) / (t[2:] - t[:-2]),
                           r)


def test_batched_verification_refuses_by_name(thirring_traj):
    with pytest.raises(ValueError, match="^H_sech_1d has a fixed weight"):
        verify_identity(thirring_traj, ("I_weighted_charge", "H_sech_1d"),
                        weight=weights.tanh_1d())
    with pytest.raises(ValueError, match="^J1 reads no scaling triple"):
        verify_identity(thirring_traj, ("I_weighted_charge", "J1"),
                        scaling=ScalingTriple.constant())
    with pytest.raises(ValueError,
                       match="^J1 is not defined on system 'lab_1d'"):
        verify_identity(thirring_traj, ("I_weighted_charge", "J1"))


def test_verification_keeps_one_sample_alive(monkeypatch):
    # each sample's derived fields are dropped once the next sample
    # starts, so a pass holds one sample's fields at a time and none
    # after it
    made = []

    class Recorded(virials._Sample):
        def __init__(self, *args):
            assert sum(ref() is not None for ref in made) <= 1
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(virials, "_Sample", Recorded)
    tr = short_psi_traj()
    verify_identity(tr, ("J1", "J_quartet_combined", "H_sech_1d"), m=1.0,
                    model=nonlinearity.soler())
    assert len(made) == len(tr)
    assert all(ref() is None for ref in made)


def test_stacked_deriv1_rows_equal_per_row_calls():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((4, G_PSI.n_points))
    stacked = deriv1(block, G_PSI)
    for row, out in zip(block, stacked):
        assert np.array_equal(out, deriv1(row, G_PSI))
    rg = RadialGrid(10.0, 64)
    radial = rng.standard_normal((4, rg.n_cells))
    names = ("even", "odd", "odd", "even")
    stacked = deriv1(radial, rg, names)
    for row, out, name in zip(radial, stacked, names):
        assert np.array_equal(out, deriv1(row[None], rg, (name,))[0])


def test_radial_quartet_fields_take_component_parity():
    # origin-active data, so the reflection across r = 0 shows in the
    # first two nodes; the W rows of a diagonal coupling keep the
    # (even, even, odd, odd) parity of the components
    rg = RadialGrid(10.0, 64)
    sample = virials._Sample(origin_state(rg, 0.4), {})
    p, d = sample.quartet()
    w, e = sample.w_rows(nonlinearity.soler())
    for rows, parity in ((slice(0, 2), "even"), (slice(2, 4), "odd")):
        assert np.array_equal(d[rows], deriv1(p[rows], rg, (parity,) * 2))
        assert np.array_equal(e[rows], deriv1(w[rows], rg, (parity,) * 2))


# ---------------------------------------------------------------------------
# radial identities

RADIAL_IDS = ("K1_3d", "tK1_3d", "K2_3d", "tK2_3d", "K_combined_3d",
              "H_radial_r2")


def test_radial_identities_linear(radial_linear_traj):
    for ident in RADIAL_IDS:
        rep = verify_identity(radial_linear_traj, ident, m=0.0)
        assert rep.passed, ident
        assert rep.max_defect <= 3e-4, ident


def test_radial_identities_soler(radial_soler_traj):
    model = nonlinearity.soler()
    for ident in RADIAL_IDS:
        rep = verify_identity(radial_soler_traj, ident, m=1.0, model=model)
        assert rep.passed, ident


def test_k_functions_refuse_a_weight_without_radial_quotients():
    st = annular_state(RadialGrid(20.0, 200))
    for fn in (functionals_K_3d, rhs_K_3d):
        with pytest.raises(ValueError) as exc:
            fn(st, weights.tanh_1d())
        assert str(exc.value) == (
            f"{fn.__name__} needs weight 'tanh' to carry the closed-form "
            "quotient 'phi_over_r'")


def test_radial_k1_origin_active_meets_stated_tolerance():
    # origin-active even/odd data puts an r^{1/2}-type integrand under
    # the midpoint rule; the quadrature error near r_0 dominates, so
    # this check carries the coarser 3e-4 relative tolerance
    rg = RadialGrid(40.0, 3200)
    tr = integrate(origin_state(rg), nonlinearity.zero_model("spinor_psi"),
                   t_end=2.0, dt=0.00625, m=0.0, sample_stride=4)
    rep = verify_identity(tr, "K1_3d", m=0.0)
    scale = float(np.max(np.abs(rep.rhs)))
    assert rep.max_defect / scale <= 3e-4
    assert rep.passed


def test_radial_h_ratio_bound_small_amplitude():
    rg = RadialGrid(40.0, 1600)
    tr = integrate(origin_state(rg, 0.05), nonlinearity.soler(), t_end=2.0,
                   dt=0.01, m=1.0, sample_stride=2)
    ratios = [abs(rhs_H(st)) / functional_H(st) for st in tr.states]
    assert 0.0 < max(ratios) <= 10.0


def test_h_refuses_a_lab_frame_state():
    for fn in (functional_H, rhs_H):
        with pytest.raises(ValueError, match="spinor frame"):
            fn(lab_state())


def _rhs_K_combined_closed(state, weight, m=1.0, model=None):
    """Closed form of d/dt(K1 + tK1 - K2 - tK2).

    Requires the even-type components to vanish at the origin: the
    zeroth-order coefficients grow like r^{-3/2} there, and the
    integration by parts that produces them sheds a boundary term for
    anything finite at r=0. Use the alternating sum of ``rhs_K_3d``
    when that cannot be guaranteed; it is exact for all data.
    """
    g = state.grid
    r = g.r
    sample = virials._Sample(state, {})
    p, d = sample.quartet()
    w, e = sample.w_rows(model) if model is not None else (None, None)
    p11, p12, p21, p22 = p
    d11, d12, d21, d22 = d
    phi = weight.phi(r)
    dphi = weight.dphi(r)
    d2phi = weight.d2phi(r)
    d3phi = weight.d3phi(r)
    phi_r = weight.at("phi_over_r", r)
    phi_r2 = sing(weight, "phi_over_r2", r)
    phi_r3 = weight.at("phi_over_r3", r)
    dphi_r = weight.at("dphi_over_r", r)
    dphi_r2 = sing(weight, "dphi_over_r2", r)
    d2phi_r = sing(weight, "d2phi_over_r", r)

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


def test_radial_combined_closed_form_on_origin_flat_data():
    rg = RadialGrid(40.0, 1600)
    r = rg.r
    st = RadialSpinorState(rg, 0.4 * np.vstack([
        r ** 2 * np.exp(-r ** 2 / 3.0),
        0.5 * r ** 2 * np.exp(-r ** 2 / 4.0),
        0.8 * r * np.exp(-r ** 2 / 3.5),
        0.6 * r ** 3 * np.exp(-r ** 2 / 2.5)]))
    w = weights.r32_weight()
    for model in (None, nonlinearity.soler()):
        dk = rhs_K_3d(st, w, m=1.0, model=model)
        gen = dk[0] + dk[1] - dk[2] - dk[3]
        clo = _rhs_K_combined_closed(st, w, m=1.0, model=model)
        assert abs(gen - clo) <= 1e-4


def test_radial_combined_closed_form_needs_origin_flat_even_parts():
    # with phi11(0) != 0 the closed form sheds a divergent boundary
    # term and departs from the exact alternating sum by O(1)
    rg = RadialGrid(40.0, 1600)
    st = origin_state(rg, 0.4)
    w = weights.r32_weight()
    dk = rhs_K_3d(st, w, m=1.0)
    gen = dk[0] + dk[1] - dk[2] - dk[3]
    clo = _rhs_K_combined_closed(st, w, m=1.0)
    assert abs(gen - clo) >= 0.5


# ---------------------------------------------------------------------------
# exact soliton stream: integrator error excluded, quadrature isolated

def test_soliton_stream_identities_exact():
    g = Grid1D(-60.0, 60.0, 2401)
    ts = np.linspace(0.0, 1.0, 101)
    sols = [exact.thirring_soliton(exact.SolitonParams(omega=0.5, t=t), g)
            for t in ts]
    tr = Trajectory(ts, sols, [0.0] * 101, [0.0] * 101)
    model = nonlinearity.thirring()
    for ident in ("I_weighted_charge", "J_chiral_balance"):
        rep = verify_identity(tr, ident, m=1.0, model=model)
        assert rep.passed, ident
        assert rep.max_defect <= 1e-12, ident


def test_wrong_mass_is_detected():
    tr = integrate(lab_state(), nonlinearity.zero_model("lab_uv"),
                   t_end=2.0, dt=0.01, m=1.0, sample_stride=2)
    assert verify_identity(tr, "J_chiral_balance", m=1.0).passed
    rep = verify_identity(tr, "J_chiral_balance", m=-1.0)
    assert not rep.passed
    assert rep.max_defect >= 1.0


# ---------------------------------------------------------------------------
# defect refinement under simultaneous (dt, h) halving

def test_defect_shrinks_under_refinement():
    cases = [("I_weighted_charge", "lab", nonlinearity.thirring(), 1.0),
             ("J_quartet_combined", "psi", nonlinearity.soler(), 1.0)]
    for ident, kind, model, m in cases:
        defects = []
        for n, dt in [(1201, 0.02), (2401, 0.01)]:
            g = Grid1D(-30.0, 30.0, n)
            st = lab_state(g) if kind == "lab" else psi_state(0.6, g)
            tr = integrate(st, model, t_end=1.0, dt=dt, m=m,
                           sample_stride=2)
            defects.append(verify_identity(tr, ident, m=m,
                                           model=model).max_defect)
        assert defects[0] / defects[1] >= 3.0, ident


# ---------------------------------------------------------------------------
# coercivity of the window Hessian

def coercivity_estimate(L, grid=None):
    """Minimal odd-sector Rayleigh quotient of the window Hessian.

    The lemma the 1D massive decay rests on, for the sech window at
    scale L; a fixed fact, so it is checked here once rather than in a
    run. The Hessian form is int z'^2 - int sech^2(x/L) z^2 / (2 L^2);
    the reference form is int z'^2 + int sech^4(x/L) z^2 / L.
    Discretizes both quadratic forms on the right half line with the odd
    boundary condition z(0)=0 (odd functions are determined there) as
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


def test_coercivity_estimate_positive():
    for L, lo in [(1.0, 0.6), (5.0, 0.35), (20.0, 0.14)]:
        c = coercivity_estimate(L)
        assert lo <= c < 1.0, L
    # a fixed Lanczos start vector makes repeated solves bitwise equal
    assert coercivity_estimate(1.0) == coercivity_estimate(1.0)


def test_coercivity_estimate_matches_dense_pencil():
    from scipy.linalg import eigh

    # the dense generalized eigensolve of the same tridiagonal pencil
    for L in (1.0, 3.0):
        g = Grid1D(-25.0 * L, 25.0 * L, 401)
        h = g.h
        xr = g.x[g.x > 0.5 * h]
        n = xr.size
        kin = (np.diag(np.r_[np.full(n - 1, 2.0), 1.0])
               - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        well = h / np.cosh(xr / L) ** 2 / (2.0 * L * L)
        bump = h / np.cosh(xr / L) ** 4 / L
        dense = eigh(kin - np.diag(well), kin + np.diag(bump),
                     eigvals_only=True)[0]
        assert coercivity_estimate(L, g) == pytest.approx(dense, abs=1e-10)


def test_coercivity_fails_without_odd_symmetry():
    from scipy.linalg import eigh

    # the even sector keeps the x = 0 node, with a free end and half
    # quadrature weight there. sech(x/L) is the kernel direction and
    # flatter even profiles push the form negative, so oddness is
    # essential to coercivity
    for L in (1.0, 3.0):
        g = Grid1D(-25.0 * L, 25.0 * L, 401)
        h = g.h
        xe = g.x[g.x > -0.5 * h]
        n = xe.size
        kin = (np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0])
               - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        wq = np.r_[0.5 * h, np.full(n - 1, h)]
        well = wq / np.cosh(xe / L) ** 2 / (2.0 * L * L)
        bump = wq / np.cosh(xe / L) ** 4 / L
        form = kin - np.diag(well)
        ref = kin + np.diag(bump)

        def quotient(z):
            return (z @ form @ z) / (z @ ref @ z)

        kappa = (np.sqrt(3.0) - 1.0) / 2.0
        assert abs(quotient(1.0 / np.cosh(xe / L))) <= 1e-3
        assert quotient(np.cosh(xe / L) ** (-kappa)) < -0.1
        even = eigh(form, ref, eigvals_only=True)[0]
        assert even < -0.2


def test_coercivity_input_validation():
    with pytest.raises(ValueError):
        coercivity_estimate(0.0)
    with pytest.raises(ValueError):
        coercivity_estimate(-2.0)
    with pytest.raises(ValueError):
        coercivity_estimate(1.0, grid=Grid1D(0.0, 10.0, 101))


# ---------------------------------------------------------------------------
# flux monitors

def test_window_flux_matches_direct_quadrature():
    st = lab_state()
    lam = 3.0
    window = 1.0 / np.cosh(G_LAB.x / lam) ** 2
    direct = quad(window * st.density(), G_LAB) / lam
    assert window_flux_1d(st, lam) == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError):
        window_flux_1d(st, 0.0)


def test_origin_flux_radial_frozen_value():
    rg = RadialGrid(40.0, 1600)
    val = origin_flux_radial(origin_state(rg, 0.5))
    assert val == pytest.approx(6.977387, rel=1e-5)
    assert val > 0.0


# ---------------------------------------------------------------------------
# report plumbing and error paths

def test_identity_registry_names():
    assert identity_ids() == (
        "H_radial_r2", "H_sech_1d", "I_weighted_charge", "J1", "J2", "J3",
        "J4", "J_chiral_balance", "J_quartet_combined", "K1_3d",
        "K2_3d", "K_combined_3d", "tK1_3d", "tK2_3d")


def test_report_dict(thirring_traj):
    rep = verify_identity(thirring_traj, "I_weighted_charge", m=1.0,
                          model=nonlinearity.thirring())
    n = len(thirring_traj.times) - 2
    assert rep.times.shape == rep.defect.shape == (n,)
    assert np.array_equal(rep.defect, np.abs(rep.fd - rep.rhs))
    d = rep.to_dict()
    assert d["identity"] == "I_weighted_charge"
    assert d["passed"] is True
    assert d["n_samples"] == n
    assert d["rtol"] == 1e-3
    assert d["threshold"] == max(d["atol"], 1e-3 * np.max(np.abs(rep.rhs)))
    assert "pass" in repr(rep)


def test_zero_trajectory_passes_via_atol():
    z = np.zeros((2, G_LAB.n_points), dtype=complex)
    sts = [SpinorState1D(G_LAB, "lab_uv", z, t=t) for t in (0.0, 0.1, 0.2)]
    tr = Trajectory([0.0, 0.1, 0.2], sts, [0.0] * 3, [0.0] * 3)
    rep = verify_identity(tr, "I_weighted_charge")
    assert rep.passed
    assert rep.max_defect == 0.0


def test_verify_identity_error_paths(thirring_traj):
    with pytest.raises(KeyError, match="I_weighted_charge"):
        verify_identity(thirring_traj, "no_such_identity")
    two = Trajectory([0.0, 1.0], [lab_state(), lab_state()],
                     [0.0] * 2, [0.0] * 2)
    with pytest.raises(ValueError, match="3 samples"):
        verify_identity(two, "I_weighted_charge")
    sts = [lab_state() for _ in range(3)]
    uneven = Trajectory([0.0, 0.1, 0.3], sts, [0.0] * 3, [0.0] * 3)
    with pytest.raises(ValueError, match="uniformly"):
        verify_identity(uneven, "I_weighted_charge")


# one small state per system of the identity table
SYSTEM_STATES = {
    "lab_1d": lab_state,
    "spinor_1d": lambda: psi_state(0.5),
    "radial_3d": lambda: annular_state(RadialGrid(20.0, 200)),
}


def three_samples(system):
    st = SYSTEM_STATES[system]()
    return Trajectory([0.0, 0.1, 0.2], [copy.deepcopy(st) for _ in range(3)],
                      [0.0] * 3, [0.0] * 3)


@pytest.mark.parametrize("system", sorted(SYSTEM_STATES))
@pytest.mark.parametrize("identity", identity_ids())
def test_table_systems_agree_with_the_functionals(identity, system):
    tr = three_samples(system)
    if identity in identity_ids(system):
        assert verify_identity(tr, identity).times.size == 1
    else:
        with pytest.raises((TypeError, ValueError)):
            verify_identity(tr, identity)


@pytest.mark.parametrize("identity, system, kw", [
    ("H_sech_1d", "spinor_1d", dict(weight=weights.tanh_1d())),
    ("H_radial_r2", "radial_3d", dict(weight=weights.r32_weight())),
    ("H_sech_1d", "spinor_1d", dict(scaling=ScalingTriple.constant())),
    ("J1", "spinor_1d", dict(scaling=ScalingTriple.constant(7.0, 3.0))),
    ("J_quartet_combined", "spinor_1d",
     dict(scaling=ScalingTriple.constant(7.0, 3.0))),
    ("K_combined_3d", "radial_3d",
     dict(scaling=ScalingTriple.constant(7.0, 3.0))),
])
def test_weight_or_scaling_the_identity_ignores_is_refused(identity, system,
                                                           kw):
    with pytest.raises(ValueError, match=identity):
        verify_identity(three_samples(system), identity, **kw)


def test_model_arity_is_checked_against_state_frame(thirring_traj):
    # thirring is a lab-frame potential; psi-frame runs must refuse it
    tr = integrate(psi_state(0.3), nonlinearity.zero_model("spinor_psi"),
                   t_end=0.1, dt=0.01, m=0.0, sample_stride=1)
    with pytest.raises(ValueError, match="arity"):
        verify_identity(tr, "J1", m=0.0, model=nonlinearity.thirring())
