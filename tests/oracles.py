"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against plain mathematical
definitions (complex Fourier dictionaries, scalar calculus, null-space
parametrisation) and shares no code path with the package numerics, except
earlier forms of package routines, kept as they were:
`closed_interval_map`, the closed one-interval map of one reachability
bundle, and `closed_interval_map_loop`, its one-column-at-a-time form;
`cutoff_measure_per_n`, the cutoff measurement that builds everything
afresh for each N; `stabilize_per_bundle`, the interval concatenation that
builds a reachability bundle per interval and applies its input rows; the two-matrix Crank-Nicolson step model
(`cn_steps_two_matrix` and the sweeps over its stacks), which stores
(I + h/2 F)^{-1} beside phi and applies both; and
`optimal_cost_check_stored`, the optimal-cost check over stored stacks.
"""

import numpy as np

from nsstab.dynamics import Propagator, cn_steps
from nsstab.null_control import build_reachability, min_norm_control
from nsstab.observability import build_forms, select_m1
from nsstab.quadmin import DEFAULT_PINV_RTOL, pinv_psd
from nsstab.spectral import build_actuator
from nsstab.stabilizer import null_closed_map

NORM = 1.0 / (np.sqrt(2.0) * np.pi)


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
    of one reachability bundle: all N leading-direction controls (the rows
    of input_rows) drive one block forward from rest."""
    A, N = bundle.free_map, bundle.N
    if N == 0:
        return A
    prop, act = bundle.propagator, bundle.actuator
    values = bundle.input_rows.reshape(N, prop.n_steps, act.M) / np.sqrt(prop.dt)
    inputs = act.mat @ values.transpose(1, 2, 0)         # (n_steps, K, N)
    E = prop.forward(np.zeros((A.shape[0], N)), inputs)[-1]
    return null_closed_map(A, E, bundle.gramian, pinv_rtol)


def closed_interval_map_loop(bundle, pinv_rtol):
    """Closed one-interval map with one single-vector forward pass per
    leading direction (the reference for the block forward)."""
    A = bundle.free_map
    if bundle.N == 0:
        return A
    Gp, _ = pinv_psd(bundle.gramian, pinv_rtol)
    E = np.empty((A.shape[0], bundle.N))
    for a in range(bundle.N):
        control = bundle.control_from_stacked(bundle.input_rows[a])
        inputs = control.values @ bundle.actuator.mat.T
        E[:, a] = bundle.propagator.forward(np.zeros(A.shape[0]), inputs)[-1]
    return A - E @ (Gp @ A[: bundle.N])


def cutoff_measure_per_n(search, N):
    """(M1 report, per-interval closed-map norms) of cutoff N >= 1 on the
    search's propagators, with forms and reachability bundles built for N
    alone (the reference for the shared sweep)."""
    forms = build_forms(search.space, search.traj, 0.0, search.chi, N, search.M_list,
                        search.dt, propagator=search.propagators[0])
    rep = select_m1(forms, slack=search.slack, rtol=search.pinv_rtol)
    act = build_actuator(search.space, search.chi, rep["M1"])
    factors = []
    for n, prop in enumerate(search.propagators):
        bundle = build_reachability(search.space, search.traj, float(n), act, N,
                                    search.dt, propagator=prop,
                                    pinv_rtol=search.pinv_rtol)
        factors.append(float(np.linalg.norm(
            closed_interval_map(bundle, search.pinv_rtol), 2)))
    return rep, factors


def stabilize_per_bundle(search, choice, v0):
    """(states (n_int * n_steps + 1, K), per-interval control values) of the
    interval concatenation at choice, with a reachability bundle built on
    every interval of the search and the control taken from its input rows
    (the reference for the search-read stabilize)."""
    space, N = search.space, choice.N
    act = build_actuator(space, search.chi, choice.M1) if N else None
    states, controls = [np.asarray(v0, float)[None, :]], []
    v = states[0][0]
    for n, prop in enumerate(search.propagators):
        if N:
            bundle = build_reachability(space, search.traj, float(n), act, N,
                                        search.dt, propagator=prop,
                                        pinv_rtol=search.pinv_rtol)
            values = min_norm_control(bundle, v, search.pinv_rtol).values
            inputs = values @ act.mat.T
        else:
            values, inputs = np.zeros((prop.n_steps, 1)), None
        seg = prop.forward(v, inputs)
        states.append(seg[1:])
        controls.append(values)
        v = seg[-1]
    return np.vstack(states), controls


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


def optimal_cost_check_stored(space, traj, law, s, w0):
    """The optimal-cost check over stored stacks (the reference for the
    streamed check): the rollout fills its z, eta and cost arrays, then the
    whole closed-loop step stack on [s, T_h] is built, swept and priced."""
    dt, lam = law.dt, law.lam
    s_index = int(round(s / dt))
    w0 = np.asarray(w0, float)
    value = float(w0 @ (law.Qt[s_index] @ w0))

    n = law.n_steps - s_index
    half_B = 0.5 * dt * law.actuator.mat
    z = np.empty((n + 1, law.phi.shape[1]))
    eta = np.empty((n, law.M))
    costs = np.empty(n)
    z[0] = w0
    for j in range(n):
        m = s_index + j
        eta[j] = -(law.gains[m] @ z[j])
        u = half_B @ eta[j]
        z[j + 1] = law.phi[m] @ (z[j] + u) + u
        zbar = 0.5 * (z[j] + z[j + 1])
        costs[j] = dt * (float(law.alphas @ zbar**2) + float(eta[j] @ eta[j]))
    rollout_gap = abs(costs.sum() - value) / (abs(value) + 1e-300)

    diag_alpha = np.diag(space.alphas)
    gram = law.actuator.gram

    def F_at(j):
        m = s_index + j
        Q_mid = 0.5 * (law.Qt[m] + law.Qt[m + 1])
        return diag_alpha + traj.bmat_at((m + 0.5) * dt) + gram @ Q_mid
    steps = Propagator(s, dt, cn_steps(F_at, int(round((law.T_h - s) / dt)), dt,
                                       space.K))
    states = steps.forward(w0)
    mids = 0.5 * (states[1:] + states[:-1])
    t_mid = steps.times[:-1] + 0.5 * dt
    cost = 0.0
    for j, (tm, vm) in enumerate(zip(t_mid, mids)):
        m = s_index + j
        Q_mid = 0.5 * (law.Qt[m] + law.Qt[m + 1])
        eta_m = law.actuator.adjoint(Q_mid @ vm)
        cost += dt * np.exp(lam * (tm - s)) * (float(law.alphas @ vm**2)
                                               + float(eta_m @ eta_m))
    sim_gap = abs(cost - value) / (abs(value) + 1e-300)
    return {"s": s, "value": value, "rollout_rel_gap": float(rollout_gap),
            "simulated_cost": float(cost), "simulated_rel_gap": float(sim_gap)}
