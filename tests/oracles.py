"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against plain mathematical
definitions (complex Fourier dictionaries, scalar calculus, null-space
parametrisation) and shares no code path with the package numerics, except
earlier forms of package routines, kept as they were:
`closed_interval_map`, the closed one-interval map of one reachability
bundle, and `closed_interval_map_loop`, its one-column-at-a-time form;
`cutoff_measure_per_n`, the cutoff measurement that builds everything
afresh for each N; `stabilize_per_bundle`, the interval concatenation that
builds a reachability bundle per interval and applies its minimal-norm
control; the step stack of one linear solve per step (`cn_steps_solved`),
which builds the stored stacks below; the two-matrix Crank-Nicolson step
model (`cn_steps_two_matrix` and the sweeps over its stacks), which stores
(I + h/2 F)^{-1} beside phi and applies both;
`optimal_cost_check_stored`, the optimal-cost check over stored stacks;
and the stored-step feedback synthesis: `shifted_steps`, the stack of the
shifted steps, `riccati_two_sweep`, the law's sweep over that stack with
the horizon gate's tail stack swept apart and then continued over the
law's stack, and `optimal_rollout_stored`, the rollout over that stack
with stored gains (an oracle's own: the law stores none).

The checks that no run of the package makes live here too, with the tests
that use them: the generic equality-constrained solver
(`solve_constrained_min`, Gramian route, against `nullspace_qp`) with its
KKT residual and linearity probe; the grid-quadrature forms of the control
basis (`analyze_laplacian`, `synthesize_laplacian`, `grid_inner`,
`apply_chi_pm`); the linearization applied by two advection calls
(`linearized_apply`); the stacked input map of one interval, formed
forward (`stacked_input_map`); the feedback forcing `gain_apply` and the
weak-continuity probe `sampled_continuity`; and the discrete
variation-of-constants identity `duhamel_bound_check`.  `forms_on`,
`bundle_on` and `bundle_of` build the interval forms and reachability
bundle from a sweep of their own, as the package builds them from the run's
cutoff search; `save_config` writes a config file and `uniform_mask` is the
degenerate mask chi == 1."""

import json
from dataclasses import dataclass

import numpy as np

from nsstab.dynamics import Propagator, bilinear_b, build_propagator
from nsstab.errors import RiccatiBlowupError
from nsstab.feedback import unpack_symmetric
from nsstab.nonlinear import zlambda_norm
from nsstab.null_control import build_reachability, min_norm_control
from nsstab.observability import build_forms, select_m1
from nsstab.quadmin import DEFAULT_PINV_RTOL, pinv_psd
from nsstab.spectral import ChiMask, build_actuator
from nsstab.stabilizer import null_closed_map

NORM = 1.0 / (np.sqrt(2.0) * np.pi)


def save_config(cfg, path):
    """Write cfg as the indented JSON file that ExperimentConfig.load reads."""
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def uniform_mask(space):
    """chi == 1 everywhere (degenerate mask used for closed-form checks)."""
    vals = np.ones((space.n, space.n))
    vals.setflags(write=False)
    return ChiMask(values=vals, center=(0.0, 0.0), radius=np.inf, rho=1.0, sup_norm=1.0)


def complex_coeffs(modes, c):
    """Complex Fourier dictionary {k: 2-vector} of a Stokes coefficient vector.

    Mode (kx, ky, phase) with direction e = k_perp/|k| contributes
      cos: NORM*e*(E_k + E_-k)/2,   sin: NORM*e*(E_k - E_-k)/(2i).
    """
    out = {}
    for coeff, (kx, ky, phase) in zip(c, modes):
        if coeff == 0.0:
            continue
        kn = np.hypot(kx, ky)
        e = np.array([-ky / kn, kx / kn], dtype=complex)
        if phase == 0:
            plus, minus = 0.5 * coeff * e, 0.5 * coeff * e
        else:
            plus, minus = coeff * e / 2j, -coeff * e / 2j
        for key, val in (((kx, ky), plus), ((-kx, -ky), minus)):
            out[key] = out.get(key, np.zeros(2, dtype=complex)) + NORM * val
    return out


def convection_coeffs(u_hat, v_hat):
    """Complex Fourier dictionary of (u . grad) v by the full convolution sum."""
    out = {}
    for p, up in u_hat.items():
        for q, vq in v_hat.items():
            k = (p[0] + q[0], p[1] + q[1])
            term = (up[0] * 1j * q[0] + up[1] * 1j * q[1]) * vq
            out[k] = out.get(k, np.zeros(2, dtype=complex)) + term
    return out


def project_to_stokes(w_hat, modes):
    """Stokes coefficients <w, e_j> from a complex Fourier dictionary.

    Uses the identity integral(E_p E_q) = 4 pi^2 delta_{p,-q}; the Leray
    projection is implicit in testing against divergence-free directions.
    """
    four_pi2 = 4.0 * np.pi**2
    c = np.zeros(len(modes))
    for j, (kx, ky, phase) in enumerate(modes):
        kn = np.hypot(kx, ky)
        e = np.array([-ky / kn, kx / kn], dtype=complex)
        wk = w_hat.get((kx, ky), np.zeros(2, dtype=complex))
        wmk = w_hat.get((-kx, -ky), np.zeros(2, dtype=complex))
        if phase == 0:
            val = NORM / 2.0 * four_pi2 * (e @ (wk + wmk))
        else:
            val = NORM / 2j * four_pi2 * (e @ (wmk - wk))
        assert abs(val.imag) < 1e-10 * (1.0 + abs(val)), "projection must be real"
        c[j] = val.real
    return c


def bilinear_oracle(modes, cu, cv):
    """Brute-force convolution-sum value of Leray((u.grad)v) truncated to the basis."""
    return project_to_stokes(convection_coeffs(complex_coeffs(modes, cu),
                                               complex_coeffs(modes, cv)), modes)


def heat_decay_R(alpha):
    """|q(tau)|^2 for unit terminal datum under free backward heat flow."""
    return np.exp(-2.0 * alpha)


def heat_decay_O(alpha):
    """integral over the unit interval of |q|^2 for the same flow."""
    return (1.0 - np.exp(-2.0 * alpha)) / (2.0 * alpha)


def scalar_are_root(a, b2, c):
    """Stationary solution of 2*a*q - b2*q^2 + c = 0 with q >= 0 (a = drift)."""
    return (a + np.sqrt(a * a + b2 * c)) / b2 if b2 > 0 else -c / (2.0 * a)


def nullspace_qp(J, A, y):
    """Minimise x^T J x subject to A x = y via null-space parametrisation."""
    x_p, *_ = np.linalg.lstsq(A, y, rcond=None)
    _, s, vt = np.linalg.svd(A)
    rank = int((s > 1e-12 * s[0]).sum()) if s.size else 0
    Z = vt[rank:].T
    if Z.shape[1]:
        xi = np.linalg.solve(Z.T @ J @ Z, -Z.T @ J @ x_p)
        return x_p + Z @ xi
    return x_p


def smoothing_ratio_l2(alpha, n_quad=20000):
    """Scalar value of sup_t t*alpha*e^{-2 alpha t} + int_0^1 t*alpha^2 e^{-2 alpha t} dt."""
    t = np.linspace(0.0, 1.0, n_quad)
    sup_term = np.max(t * alpha * np.exp(-2.0 * alpha * t))
    integrand = t * alpha**2 * np.exp(-2.0 * alpha * t)
    return sup_term + np.trapezoid(integrand, t)


def closed_interval_map(bundle, pinv_rtol=DEFAULT_PINV_RTOL):
    """Dense endpoint map w0 -> v(tau+1) under the minimal-norm null control
    of one reachability bundle: all N leading-direction controls (the
    actuator images of the bundle's stage duals) drive one block forward
    from rest."""
    A, N = bundle.propagator.total, bundle.N
    if N == 0:
        return A
    act = bundle.actuator
    inputs = act.mat @ (act.mat.T @ bundle.stages)       # (n_steps, K, N)
    E = bundle.propagator.forward(np.zeros((A.shape[0], N)), inputs)[-1]
    return null_closed_map(A, E, pinv_psd(bundle.gramian, pinv_rtol)[0])


def closed_interval_map_loop(bundle, pinv_rtol):
    """Closed one-interval map with one single-vector forward pass per
    leading direction (the reference for the block forward)."""
    A = bundle.propagator.total
    if bundle.N == 0:
        return A
    Gp, _ = pinv_psd(bundle.gramian, pinv_rtol)
    E = np.empty((A.shape[0], bundle.N))
    mat = bundle.actuator.mat
    for a in range(bundle.N):
        inputs = (bundle.stages[:, :, a] @ mat) @ mat.T
        E[:, a] = bundle.propagator.forward(np.zeros(A.shape[0]), inputs)[-1]
    return A - E @ (Gp @ A[: bundle.N])


def stacked_input_map(bundle):
    """(N, n_steps * M) map from the step-major stacked control coefficients
    to the projected endpoint from rest: one block forward pass of every
    unit (step, mode) control, sharing no stage dual with the bundle."""
    prop, mat = bundle.propagator, bundle.actuator.mat
    n_steps, (K, M) = prop.n_steps, mat.shape
    inputs = np.zeros((n_steps, K, n_steps * M))
    for m in range(n_steps):
        inputs[m, :, m * M:(m + 1) * M] = mat
    return prop.forward(np.zeros((K, n_steps * M)), inputs)[-1][: bundle.N]


def cutoff_measure_per_n(search, N):
    """(M1 report, per-interval closed-map norms) of cutoff N >= 1 on the
    search's propagators, with forms and reachability bundles built for N
    alone (the reference for the shared sweep)."""
    forms = forms_on(search.space, search.traj, 0.0, search.chi, N, search.M_list,
                     search.dt, propagator=search.propagators[0])
    rep = select_m1(forms, slack=search.slack, rtol=search.pinv_rtol)
    act = build_actuator(search.space, search.chi, rep["M1"])
    factors = []
    for n, prop in enumerate(search.propagators):
        bundle = bundle_of(prop, act, N, search.pinv_rtol)
        factors.append(float(np.linalg.norm(
            closed_interval_map(bundle, search.pinv_rtol), 2)))
    return rep, factors


def stabilize_per_bundle(search, choice, v0):
    """(states (n_int * n_steps + 1, K), per-interval control values) of the
    interval concatenation at choice, with a reachability bundle built on
    every interval of the search and the control taken from its stage duals
    (the reference for the search-read stabilize)."""
    space, N = search.space, choice.N
    act = build_actuator(space, search.chi, choice.M1) if N else None
    states, controls = [np.asarray(v0, float)[None, :]], []
    v = states[0][0]
    for n, prop in enumerate(search.propagators):
        if N:
            bundle = bundle_of(prop, act, N, search.pinv_rtol)
            values = min_norm_control(bundle, v).values
            inputs = values @ act.mat.T
        else:
            values, inputs = np.zeros((prop.n_steps, 1)), None
        seg = prop.forward(v, inputs)
        states.append(seg[1:])
        controls.append(values)
        v = seg[-1]
    return np.vstack(states), controls


def cn_steps_solved(F_at, n_steps, dt, K):
    """Step stack phi[m] = (I + h/2 F_m)^{-1} (I - h/2 F_m), one linear
    solve per step."""
    eye = np.eye(K)
    phi = np.empty((n_steps, K, K))
    for m in range(n_steps):
        half = 0.5 * dt * F_at(m)
        phi[m] = np.linalg.solve(eye + half, eye - half)
    return phi


def cn_steps_two_matrix(F_at, n_steps, dt, K):
    """(plus_inv, phi) stacks: plus_inv[m] = (I + h/2 F_m)^{-1} by explicit
    inversion and phi[m] = plus_inv[m] (I - h/2 F_m)."""
    eye = np.eye(K)
    plus_inv = np.empty((n_steps, K, K))
    phi = np.empty((n_steps, K, K))
    for m in range(n_steps):
        half = 0.5 * dt * F_at(m)
        plus_inv[m] = np.linalg.inv(eye + half)
        phi[m] = plus_inv[m] @ (eye - half)
    return plus_inv, phi


def free_steps_two_matrix(space, traj, tau, dt):
    """Two-matrix stacks of the free flow on [tau, tau + 1]."""
    n_steps = int(round(1.0 / dt))
    diag_alpha = np.diag(space.alphas)
    return cn_steps_two_matrix(
        lambda m: diag_alpha + traj.bmat_at(tau + (m + 0.5) * dt),
        n_steps, dt, space.K)


def forward_two_matrix(plus_inv, phi, dt, w0, inputs):
    """v_{m+1} = phi_m v_m + h plus_inv_m f_m: two products per step."""
    states = np.empty((phi.shape[0] + 1,) + w0.shape)
    states[0] = w0
    for m in range(phi.shape[0]):
        states[m + 1] = phi[m] @ states[m] + dt * (plus_inv[m] @ inputs[m])
    return states


def adjoint_two_matrix(plus_inv, phi, Q1):
    """Nodes q_m = phi_m' q_{m+1} and stages plus_inv_m' q_{m+1}."""
    nodes = np.empty((phi.shape[0] + 1,) + Q1.shape)
    stages = np.empty((phi.shape[0],) + Q1.shape)
    nodes[-1] = Q1
    for m in range(phi.shape[0] - 1, -1, -1):
        stages[m] = plus_inv[m].T @ nodes[m + 1]
        nodes[m] = phi[m].T @ nodes[m + 1]
    return nodes, stages


def riccati_two_matrix(space, traj, lam, actuator, T_h, dt):
    """(Qt, gains) of the shifted LQ synthesis on [0, T_h] from the stacks
    phi and gamma = h plus_inv B, with the three-product dynamic program
    over zbar = Mz z + Me eta, Mz = (I + phi)/2, Me = gamma/2."""
    n_T = int(round(T_h / dt))
    K, M = space.K, actuator.M
    shift = np.diag(space.alphas) - 0.5 * lam * np.eye(K)
    plus_inv, phi = cn_steps_two_matrix(
        lambda m: shift + traj.bmat_at((m + 0.5) * dt), n_T, dt, K)
    gamma = dt * (plus_inv @ actuator.mat)
    alphas, eye = space.alphas, np.eye(K)
    Qt = np.zeros((n_T + 1, K, K))
    gains = np.empty((n_T, M, K))
    P = Qt[n_T]
    for m in range(n_T - 1, -1, -1):
        Mz = 0.5 * (eye + phi[m])
        Me = 0.5 * gamma[m]
        CMz = alphas[:, None] * Mz
        CMe = alphas[:, None] * Me
        PPhi = P @ phi[m]
        PGam = P @ gamma[m]
        Hzz = dt * (Mz.T @ CMz) + phi[m].T @ PPhi
        Hze = dt * (Mz.T @ CMe) + phi[m].T @ PGam
        Hee = dt * (np.eye(M) + Me.T @ CMe) + gamma[m].T @ PGam
        gains[m] = np.linalg.solve(Hee, Hze.T)
        P = Hzz - Hze @ gains[m]
        P = 0.5 * (P + P.T)
        Qt[m] = P
    return Qt, gains


def shifted_steps(space, traj, lam, start, n_steps, dt):
    """Stored transitions phi of the steps start .. start+n_steps-1 of the
    shifted system matrix F - (lam/2) I."""
    shift = np.diag(space.alphas) - 0.5 * lam * np.eye(space.K)
    return cn_steps_solved(lambda m: shift + traj.bmat_at((start + m + 0.5) * dt),
                           n_steps, dt, space.K)


def sweep_stored(P, phi, B, dt, alphas, lam, cap, Qt=None, gains=None):
    """Backward dynamic program from the terminal operator P (K, K) over a
    stored step stack phi; returns the operator at the first step and fills
    Qt[m], gains[m] when given."""
    M = B.shape[1]
    half_B = 0.5 * dt * B
    qc = 0.25 * dt * alphas
    QC = np.diag(qc)
    for m in range(phi.shape[0] - 1, -1, -1):
        gam = phi[m] @ half_B + half_B
        W = P + QC
        S = W @ phi[m]
        C_phi = qc[:, None] * phi[m]
        Hzz = phi[m].T @ S + (QC + C_phi + C_phi.T)
        Hze = S.T @ gam + qc[:, None] * gam
        Hee = dt * np.eye(M) + gam.T @ (W @ gam)
        G = np.linalg.solve(Hee, Hze.T)
        P = Hzz - Hze @ G
        P = 0.5 * (P + P.T)
        if not np.isfinite(P).all() or np.linalg.norm(P, np.inf) > cap:
            raise RiccatiBlowupError(f"cost operator exceeded cap at step {m}")
        if Qt is not None:
            Qt[m] = P
            gains[m] = G
    return P


def riccati_two_sweep(space, traj, lam, actuator, T_h, dt, cap=1e8):
    """(Qt, gains, P_tail, double_Q0) of the stored-step synthesis on
    [0, T_h]: the [T_h, 2 T_h] tail stack is built and swept first, giving
    the doubled horizon's value P_tail at T_h, then the law's stack phi on
    [0, T_h] is swept once for the law and once more from P_tail, giving the
    doubled horizon's Qt(0)."""
    n_T = int(round(T_h / dt))
    K, M = space.K, actuator.M
    args = (actuator.mat, dt, space.alphas, lam, cap)
    P_tail = sweep_stored(np.zeros((K, K)),
                          shifted_steps(space, traj, lam, n_T, n_T, dt), *args)
    phi = shifted_steps(space, traj, lam, 0, n_T, dt)
    Qt = np.empty((n_T + 1, K, K))
    gains = np.empty((n_T, M, K))
    Qt[n_T] = 0.0
    sweep_stored(np.zeros((K, K)), phi, *args, Qt=Qt, gains=gains)
    return Qt, gains, P_tail, sweep_stored(P_tail, phi, *args)


def optimal_rollout_stored(law, phi, gains, s_index, z0):
    """Optimal shifted trajectory and stage costs from step s_index over the
    stored shifted stack phi with the stored gains (eta_m = -gains[m] z_m),
    one product per step."""
    n = law.n_steps - s_index
    half_B = 0.5 * law.dt * law.actuator.mat
    z = np.empty((n + 1, phi.shape[1]))
    costs = np.empty(n)
    z[0] = z0
    for j in range(n):
        m = s_index + j
        eta = -(gains[m] @ z[j])
        u = half_B @ eta
        z[j + 1] = phi[m] @ (z[j] + u) + u
        zbar = 0.5 * (z[j] + z[j + 1])
        costs[j] = law.dt * (float(law.alphas @ zbar**2) + float(eta @ eta))
    return z, costs


def optimal_cost_check_stored(space, traj, law, phi, gains, s, w0):
    """The optimal-cost check over stored stacks (the reference for the
    streamed check): the rollout runs over the shifted stack phi with the
    stored gains, then the whole closed-loop step stack on [s, T_h] is
    built, swept and priced."""
    dt, lam = law.dt, law.lam
    s_index = int(round(s / dt))
    w0 = np.asarray(w0, float)
    value = float(w0 @ (law.Q(s_index) @ w0))
    _, costs = optimal_rollout_stored(law, phi, gains, s_index, w0)
    rollout_gap = abs(costs.sum() - value) / (abs(value) + 1e-300)

    diag_alpha = np.diag(space.alphas)
    gram = law.actuator.gram

    def F_at(j):
        m = s_index + j
        Q_mid = 0.5 * (law.Q(m) + law.Q(m + 1))
        return diag_alpha + traj.bmat_at((m + 0.5) * dt) + gram @ Q_mid
    steps = Propagator(s, dt, cn_steps_solved(F_at, int(round((law.T_h - s) / dt)),
                                              dt, space.K))
    states = steps.forward(w0)
    mids = 0.5 * (states[1:] + states[:-1])
    t_mid = steps.times[:-1] + 0.5 * dt
    cost = 0.0
    for j, (tm, vm) in enumerate(zip(t_mid, mids)):
        m = s_index + j
        Q_mid = 0.5 * (law.Q(m) + law.Q(m + 1))
        eta_m = law.actuator.adjoint(Q_mid @ vm)
        cost += dt * np.exp(lam * (tm - s)) * (float(law.alphas @ vm**2)
                                               + float(eta_m @ eta_m))
    sim_gap = abs(cost - value) / (abs(value) + 1e-300)
    return {"s": s, "value": value, "rollout_rel_gap": float(rollout_gap),
            "simulated_cost": float(cost), "simulated_rel_gap": float(sim_gap)}


def forms_on(space, traj, tau, chi, N, M_list, dt, propagator=None):
    """Observability forms of the first N modes on [tau, tau + 1]: one
    adjoint block sweep of the first N unit directions of the propagator
    (built here unless given), handed to build_forms."""
    prop = propagator if propagator is not None else build_propagator(space, traj, tau, dt)
    return build_forms(space, chi, build_actuator(space, chi, max(M_list)), M_list, dt,
                       prop.adjoint_block(np.eye(space.K)[:, :N]))


def bundle_of(propagator, actuator, N, pinv_rtol=DEFAULT_PINV_RTOL):
    """Reachability bundle of the first N modes on the propagator's interval:
    one adjoint block sweep of the first N unit directions, handed to
    build_reachability."""
    _, stages = propagator.adjoint_block(np.eye(propagator.phi.shape[1])[:, :N])
    return build_reachability(actuator, stages, propagator, pinv_rtol)


def bundle_on(space, traj, tau, actuator, N, dt, pinv_rtol=DEFAULT_PINV_RTOL):
    """Reachability bundle of the first N modes on [tau, tau + 1] from a
    freshly built propagator."""
    return bundle_of(build_propagator(space, traj, tau, dt), actuator, N, pinv_rtol)


class InvalidProgramError(Exception):
    """Quadratic program violates its structural requirements (e.g. indefinite cost)."""


class InfeasibleConstraintError(Exception):
    """Equality constraint has no solution within the pseudoinverse tolerance."""


@dataclass
class QuadraticProgram:
    """min x^T cost x  s.t.  constraint x = target."""

    cost: np.ndarray        # (n, n), symmetric positive definite
    constraint: np.ndarray  # (m, n)
    target: np.ndarray      # (m,)

    def validate(self):
        J = self.cost
        if not np.allclose(J, J.T, atol=1e-12 * max(1.0, np.abs(J).max())):
            raise InvalidProgramError("cost form must be symmetric")
        w = np.linalg.eigvalsh(0.5 * (J + J.T))
        if w.min() <= 0.0:
            raise InvalidProgramError(
                f"cost form must be positive definite (min eigenvalue {w.min():.3e})")
        if self.constraint.shape[1] != J.shape[0]:
            raise InvalidProgramError("constraint and cost dimensions disagree")


def solve_constrained_min(qp: QuadraticProgram, rtol: float = DEFAULT_PINV_RTOL):
    """Unique global minimiser x = J^{-1} A^T (A J^{-1} A^T)^+ y and its KKT
    multiplier, by the Gramian route (nullspace_qp is the null-space route).

    Raises InfeasibleConstraintError when A is rank-deficient and y is not in
    its range within the pseudoinverse tolerance.
    """
    qp.validate()
    J, A, y = qp.cost, qp.constraint, np.asarray(qp.target, float)

    JinvAt = np.linalg.solve(J, A.T)
    W = A @ JinvAt
    Wpinv, rank = pinv_psd(W, rtol)
    mult = -2.0 * (Wpinv @ y)
    x = -0.5 * (JinvAt @ mult)
    if rank < A.shape[0]:
        resid = np.linalg.norm(A @ x - y)
        if resid > np.sqrt(rtol) * max(1.0, np.linalg.norm(y)):
            raise InfeasibleConstraintError(
                f"constraint residual {resid:.3e} with rank-deficient operator "
                f"(rank {rank} of {A.shape[0]})")
    return x, mult


def kkt_residual(qp: QuadraticProgram, x: np.ndarray, mult: np.ndarray) -> float:
    """Scaled stationarity residual |2 J x + A^T mult| of a candidate pair."""
    J, A = qp.cost, qp.constraint
    r = 2.0 * (J @ x) + A.T @ mult
    scale = (np.linalg.norm(J, 2) * np.linalg.norm(x)
             + np.linalg.norm(A.T, 2) * np.linalg.norm(mult) + 1e-300)
    return float(np.linalg.norm(r) / scale)


def minimizer_map_linearity_check(cost, constraint, targets, rng,
                                  rtol: float = DEFAULT_PINV_RTOL) -> dict:
    """Probe linearity of y -> argmin and the orthogonality J(L y, ker A) = 0."""
    max_lin = 0.0
    max_orth = 0.0
    _, s, vt = np.linalg.svd(constraint)
    r = int((s > rtol * s[0]).sum())
    Z = vt[r:].T
    Jnorm = np.linalg.norm(cost, 2)

    def solve(y):
        x, _ = solve_constrained_min(QuadraticProgram(cost, constraint, y), rtol)
        return x

    for a, b in zip(targets[0::2], targets[1::2]):
        al, be = rng.standard_normal(2)
        gap = solve(al * a + be * b) - al * solve(a) - be * solve(b)
        scale = max(np.linalg.norm(solve(a)), np.linalg.norm(solve(b)), 1e-300)
        max_lin = max(max_lin, np.linalg.norm(gap) / scale)
        if Z.shape[1]:
            z = Z @ rng.standard_normal(Z.shape[1])
            x = solve(a)
            val = abs(x @ (cost @ z))
            max_orth = max(max_orth, val / (Jnorm * np.linalg.norm(x)
                                            * np.linalg.norm(z) + 1e-300))
    return {"max_linearity_defect": float(max_lin),
            "max_kernel_orthogonality_defect": float(max_orth)}


def analyze_laplacian(space, w, M=None):
    """Laplacian-basis coefficients (first M) of a grid field."""
    coeffs = space.quad_w * (space.lap_fields @ np.ravel(w))
    return coeffs if M is None else coeffs[:M]


def synthesize_laplacian(space, eta):
    """Grid field of a control-basis coefficient vector."""
    eta = np.asarray(eta, float)
    return (eta @ space.lap_fields[: eta.shape[0]]).reshape(2, space.n, space.n)


def grid_inner(space, w1, w2):
    """Quadrature L2 inner product of two grid fields."""
    return float(space.quad_w * np.vdot(np.ravel(w1), np.ravel(w2)).real)


def apply_chi_pm(space, chi, M, c):
    """P_M(chi * v) coefficients of a velocity state, computed on the grid."""
    if not 1 <= M <= len(space.lap_modes):
        raise ValueError(f"control dimension M={M} outside the Laplacian table")
    w = space.synthesize(c) * chi.values[None, :, :]
    return analyze_laplacian(space, w, M)


def linearized_apply(space, cu, cv):
    """B(v, u) + B(u, v) by two advection calls (the linearization at u)."""
    return bilinear_b(space, cv, cu) + bilinear_b(space, cu, cv)


def gain_apply(law, t, v):
    """Feedback forcing -chi P_M chi Q(t) v in velocity coefficients."""
    act = law.actuator
    return -act.mat @ act.adjoint(law.Q(law.index_of(t)) @ np.asarray(v, float))


def sampled_continuity(law, w):
    """Max adjacent-sample jump of t -> (Q(t) w, w), the weak-continuity probe."""
    vals = np.einsum("i,mij,j->m", w, unpack_symmetric(law.Q_packed), w)
    return float(np.max(np.abs(np.diff(vals))))


def duhamel_bound_check(stepper, forcings):
    """Verify the discrete variation-of-constants identity and measure the
    forced-response constant.

    For each forcing batch entry (per-step midpoint samples), compares the
    endpoint of the direct forced solve against the superposition
    dt * sum_m stages[m]' f_m of pulse responses from the adjoint sweep,
    then reports the ratio of the contraction-norm energy of the response
    to the sliding-window weighted forcing energy.
    """
    n, K = stepper.n_steps, stepper.phi.shape[1]
    dt, lam = stepper.dt, stepper.lam
    window = int(round(1.0 / dt))
    # stages[m].T is the endpoint response to a unit pulse at step m
    _, stages = stepper.adjoint_block(np.eye(K))
    identity_gap = 0.0
    ratios = []
    for f in forcings:
        f = np.asarray(f, float)
        direct = stepper.run_linear(np.zeros(K), f)
        superposed = dt * np.einsum("mij,mi->j", stages, f)
        identity_gap = max(identity_gap,
                           float(np.max(np.abs(superposed - direct.states[-1]))))
        t_mid = (stepper.times[:-1] - stepper.times[0]) + 0.5 * dt
        wf = np.exp(2.0 * lam * t_mid) * np.sum(f**2, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(dt * wf)])
        m = np.arange(n)
        sliding = np.max(cum[np.minimum(m + window, len(cum) - 1)] - cum[m])
        lhs = zlambda_norm(stepper.space, direct, lam) ** 2
        ratios.append(lhs / max(sliding, 1e-300))
    return {"identity_max_gap": identity_gap,
            "forced_response_constants": ratios,
            "C1": float(max(ratios)) if ratios else 0.0}
