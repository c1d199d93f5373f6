"""Exponentially weighted LQ feedback synthesis.

Works in the shifted variable z = e^{(lam/2)t} v, whose drift gains lam/2
and whose quadratic cost loses the exponential weight, so every stored
matrix stays O(1) regardless of the horizon.  The infinite-horizon cost
operator is approximated on [0, T_h] with terminal value zero and a
doubling convergence gate.

The backward sweep is the discrete dynamic program for the Crank-Nicolson
one-step model with midpoint-sampled stage cost.  Two consequences drive
the test design: dynamic-programming and optimal-cost identities hold to
round-off (the rollout and the recursion share every matrix), and for a
frozen system the recursion's fixed point solves the continuous algebraic
Riccati equation exactly (the bilinear-transform equivalence of the
discrete and continuous equations), so scalar closed forms are exact
oracles up to horizon truncation.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, ReferenceTrajectory, Trajectory, cn_steps
from .errors import RiccatiBlowupError
from .spectral import Actuator, SpectralSpace

DEFAULT_RICCATI_CAP = 1e8


@dataclass
class FeedbackLaw:
    """Time-sampled shifted cost operators and the matching step machinery.

    phi[m] is the one stored matrix of the shifted step z+ = phi (z + u) + u,
    u = h/2 B eta (see _sweep).  Qt[m] is PSD and the unshifted cost
    operator is e^{lam t_m} Qt[m]; the feedback applied to a velocity state
    is -chi P_M chi Qt(t) v (the exponential factors cancel in the shifted
    representation).  Beyond the synthesized horizon the last sample is
    frozen (the law is only meaningful up to the terminal layer; keep
    simulations inside it).
    """

    lam: float
    T_h: float
    dt: float
    times: np.ndarray       # (n_T + 1,)
    Qt: np.ndarray          # (n_T + 1, K, K)
    gains: np.ndarray       # (n_T, M, K): discretely optimal eta_m = -G_m z_m
    phi: np.ndarray         # (n_T, K, K): shifted step transition
    actuator: Actuator
    alphas: np.ndarray      # state weight diagonal
    horizon_gate: dict | None = None

    @property
    def n_steps(self) -> int:
        return self.phi.shape[0]

    @property
    def M(self) -> int:
        return self.actuator.M

    def index_of(self, t: float) -> int:
        m = int(round((t - self.times[0]) / self.dt))
        return min(max(m, 0), self.n_steps)

    def value_matrix(self, t: float) -> np.ndarray:
        return self.Qt[self.index_of(t)]

    def max_gain_norm(self, stride: int = 16) -> float:
        """Measured operator-norm bound of the continuous-form gain."""
        G = self.actuator.gram
        return float(max(np.linalg.norm(G @ self.Qt[m], 2)
                         for m in range(0, self.n_steps + 1, stride)))


def riccati_solve(space: SpectralSpace, traj: ReferenceTrajectory, lam: float,
                  actuator: Actuator, T_h: float, dt: float = 1.0 / 128,
                  cap: float = DEFAULT_RICCATI_CAP,
                  verify_horizon: bool = False) -> FeedbackLaw:
    """Backward sweep for the shifted cost operator on [0, T_h].

    State weight diag(alpha) (the V-form), control weight identity on the
    control basis.  Divergence past the cap reports the system as not
    stabilizable through this actuator.  With verify_horizon, also sweeps
    the doubled horizon 2*T_h, reusing the law's steps on [0, T_h], and
    records the relative change of Qt(0).
    """
    if lam < 0 or T_h <= 0:
        raise ValueError("lam must be nonnegative and T_h positive")
    if (2.0 if verify_horizon else 1.0) * T_h > traj.horizon + 1e-9:
        raise ValueError("synthesis horizon exceeds the reference horizon")
    n_T = int(round(T_h / dt))
    K, M = space.K, actuator.M
    args = (actuator.mat, dt, space.alphas, lam, cap)
    if verify_horizon:
        # value at T_h of the doubled horizon, from its [T_h, 2 T_h] steps only;
        # swept before the law's stacks exist so peak memory stays at their size
        P_tail = _sweep(np.zeros((K, K)),
                        _shifted_steps(space, traj, lam, n_T, n_T, dt),
                        *args, start=n_T)

    phi = _shifted_steps(space, traj, lam, 0, n_T, dt)
    Qt = np.empty((n_T + 1, K, K))
    gains = np.empty((n_T, M, K))
    Qt[n_T] = 0.0
    _sweep(np.zeros((K, K)), phi, *args, Qt=Qt, gains=gains)
    law = FeedbackLaw(lam=lam, T_h=T_h, dt=dt, times=dt * np.arange(n_T + 1),
                      Qt=Qt, gains=gains, phi=phi,
                      actuator=actuator, alphas=space.alphas.copy())
    if verify_horizon:
        # the doubled horizon continues over the law's own [0, T_h] steps
        double_Q0 = _sweep(P_tail, phi, *args)
        num = np.linalg.norm(double_Q0 - law.Qt[0])
        den = max(np.linalg.norm(double_Q0), 1e-300)
        law.horizon_gate = {"T_h": T_h, "rel_change": float(num / den)}
    return law


def _shifted_steps(space: SpectralSpace, traj: ReferenceTrajectory, lam: float,
                   start: int, n_steps: int, dt: float) -> np.ndarray:
    """Transitions phi of the steps start .. start+n_steps-1 of the shifted
    system matrix F - (lam/2) I."""
    shift = np.diag(space.alphas) - 0.5 * lam * np.eye(space.K)
    return cn_steps(lambda m: shift + traj.bmat_at((start + m + 0.5) * dt),
                    n_steps, dt, space.K)


def _sweep(P, phi, B, dt, alphas, lam, cap, start=0, Qt=None, gains=None):
    """Backward dynamic program from the terminal cost operator P.

    Step z+ = phi (z + u) + u with u = h/2 B eta, stage cost
    h (|zbar|_C^2 + |eta|^2) with zbar = (z + z+)/2, C = diag(alphas).  With
    gam = phi h/2 B + h/2 B, W = P + h/4 C and S = W phi the blocks are
    Hzz = phi' S + h/4 (C + C phi + phi' C), Hze = S' gam + h/4 C gam and
    Hee = h I + gam' W gam: two K^3 products per step.

    Returns the cost operator at the first step; fills Qt[m] and gains[m]
    when given.  start offsets the step index in the blow-up message.
    """
    M = B.shape[1]
    half_B = 0.5 * dt * B
    qc = 0.25 * dt * alphas             # (h/4) C, as a diagonal
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
            raise RiccatiBlowupError(
                f"cost operator exceeded cap {cap:.1e} at t={(start + m) * dt:.3f}; "
                f"system not stabilizable through M={M} at lambda={lam}")
        if Qt is not None:
            Qt[m] = P
            gains[m] = G
    return P


def gain_apply(law: FeedbackLaw, t: float, v: np.ndarray) -> np.ndarray:
    """Feedback forcing -chi P_M chi Qt(t) v in velocity coefficients."""
    act = law.actuator
    return -act.apply(act.adjoint(law.value_matrix(t) @ np.asarray(v, float)))


def closed_loop_steps(space: SpectralSpace, traj: ReferenceTrajectory,
                      law: FeedbackLaw, s: float, n_units: float) -> Propagator:
    """Step matrices of the continuous-form closed loop on [s, s + n_units].

    The system matrix adds the midpoint feedback gram Q_mid to the free flow.
    """
    dt = law.dt
    s_index = int(round(s / dt))
    n_steps = int(round(n_units / dt))
    if s_index + n_steps > law.n_steps:
        raise ValueError("simulation window exceeds the synthesized horizon")
    diag_alpha = np.diag(space.alphas)
    gram = law.actuator.gram

    def F_at(m):
        idx = s_index + m
        Q_mid = 0.5 * (law.Qt[idx] + law.Qt[idx + 1])
        return diag_alpha + traj.bmat_at((idx + 0.5) * dt) + gram @ Q_mid
    return Propagator(s, dt, cn_steps(F_at, n_steps, dt, space.K))


def closed_loop_linear(space: SpectralSpace, traj: ReferenceTrajectory,
                       law: FeedbackLaw, s: float, v0: np.ndarray,
                       n_units: float) -> tuple[Trajectory, dict]:
    """Integrate the linear closed loop from time s and measure the decay bound.

    Reports the weighted-energy constant: the sup over t of
    e^{lam(t-s)}|v|_H^2 plus the running weighted V-energy and dual-norm
    time-derivative integrals, over |v0|_H^2; and the V-version for smooth
    data.
    """
    steps = closed_loop_steps(space, traj, law, s, n_units)
    states = steps.forward(v0)
    times = steps.times
    dt = law.dt
    trajectory = Trajectory(times=times, states=states)

    lam = law.lam
    al = space.alphas
    w = np.exp(lam * (times - s))
    h2 = np.sum(states**2, axis=1)
    mids = 0.5 * (states[1:] + states[:-1])
    vdot = (states[1:] - states[:-1]) / dt
    w_mid = np.exp(lam * (times[:-1] + 0.5 * dt - s))
    run_v = np.concatenate([[0.0], np.cumsum(
        dt * w_mid * (np.sum(al * mids**2, axis=1)
                      + np.sum(vdot**2 / al, axis=1)))])
    v0_h2 = float(v0 @ v0)
    kappa_h = float(np.max(w * h2 + run_v) / v0_h2) if v0_h2 else 0.0

    v0_v2 = float(al @ np.asarray(v0, float) ** 2)
    v2 = np.sum(al * states**2, axis=1)
    run_dl = np.concatenate([[0.0], np.cumsum(
        dt * w_mid * (np.sum(al**2 * mids**2, axis=1)
                      + np.sum(vdot**2, axis=1)))])
    kappa_v = float(np.max(w * v2 + run_dl) / v0_v2) if v0_v2 else 0.0
    report = {"kappa_h": kappa_h, "kappa_v": kappa_v, "s": s,
              "weighted_h_final": float(w[-1] * h2[-1] / v0_h2) if v0_h2 else 0.0}
    return trajectory, report


def optimal_rollout(law: FeedbackLaw, s_index: int, z0: np.ndarray):
    """Discretely optimal shifted trajectory, controls, and stage costs."""
    n = law.n_steps - s_index
    half_B = 0.5 * law.dt * law.actuator.mat
    z = np.empty((n + 1, law.phi.shape[1]))
    eta = np.empty((n, law.M))
    costs = np.empty(n)
    z[0] = z0
    for j in range(n):
        m = s_index + j
        eta[j] = -(law.gains[m] @ z[j])
        u = half_B @ eta[j]
        z[j + 1] = law.phi[m] @ (z[j] + u) + u
        zbar = 0.5 * (z[j] + z[j + 1])
        costs[j] = law.dt * (float(law.alphas @ zbar**2) + float(eta[j] @ eta[j]))
    return z, eta, costs


def dp_check(law: FeedbackLaw, v0: np.ndarray, s: float, splits) -> dict:
    """Dynamic-programming splitting of the optimal cost at sampled times.

    Verifies total = running cost to the split plus the value of the tail
    state; equalities hold to round-off because rollout and recursion share
    the same step model.
    """
    s_index = int(round(s / law.dt))
    z, _, costs = optimal_rollout(law, s_index, np.asarray(v0, float))
    total = float(costs.sum())
    value0 = float(v0 @ (law.Qt[s_index] @ v0))
    out = {"s": s, "total_cost": total, "value": value0,
           "total_vs_value_rel": abs(total - value0) / (abs(value0) + 1e-300),
           "splits": []}
    for t_split in splits:
        k = int(round((t_split - s) / law.dt))
        k = min(max(k, 0), len(costs))
        run = float(costs[:k].sum())
        tail = float(z[k] @ (law.Qt[s_index + k] @ z[k]))
        out["splits"].append({
            "t": s + k * law.dt,
            "running_plus_value": run + tail,
            "rel_gap": abs(run + tail - total) / (abs(total) + 1e-300)})
    return out


def optimal_cost_check(space: SpectralSpace, traj: ReferenceTrajectory,
                       law: FeedbackLaw, s: float, w0: np.ndarray) -> dict:
    """Compare (Qt(s) w0, w0) with simulated closed-loop costs.

    The discrete rollout reproduces the value exactly; the continuous-form
    loop (midpoint gain, trapezoidal cost quadrature) agrees to O(dt^2)
    with a quadratically small sensitivity to the gain representation.
    """
    s_index = int(round(s / law.dt))
    w0 = np.asarray(w0, float)
    value = float(w0 @ (law.Qt[s_index] @ w0))

    _, _, costs = optimal_rollout(law, s_index, w0)
    rollout_gap = abs(costs.sum() - value) / (abs(value) + 1e-300)

    n_units = law.T_h - s
    sim, _ = closed_loop_linear(space, traj, law, s, w0, n_units)
    dt, lam = law.dt, law.lam
    mids = 0.5 * (sim.states[1:] + sim.states[:-1])
    t_mid = sim.times[:-1] + 0.5 * dt
    cost = 0.0
    for m, (tm, vm) in enumerate(zip(t_mid, mids)):
        idx = min(s_index + m, law.n_steps - 1)
        Q_mid = 0.5 * (law.Qt[idx] + law.Qt[idx + 1])
        eta = law.actuator.adjoint(Q_mid @ vm)
        cost += dt * np.exp(lam * (tm - s)) * (float(law.alphas @ vm**2)
                                               + float(eta @ eta))
    sim_gap = abs(cost - value) / (abs(value) + 1e-300)
    return {"s": s, "value": value, "rollout_rel_gap": float(rollout_gap),
            "simulated_cost": float(cost), "simulated_rel_gap": float(sim_gap)}


def lyapunov_check(sim: Trajectory, samples: int = 64) -> dict:
    """Forward-Gramian Lyapunov functional along a closed-loop trajectory.

    Phi(t) = int_t^end |v|_H^2 computed by composite per-step quadrature,
    so the decrease between sample times telescopes exactly.
    """
    dt = sim.dt
    mids2 = np.sum((0.5 * (sim.states[1:] + sim.states[:-1]))**2, axis=1)
    phi = np.concatenate([np.cumsum((dt * mids2)[::-1])[::-1], [0.0]])
    idx = np.linspace(0, len(phi) - 1, samples).astype(int)
    vals = phi[idx]
    drops = np.diff(vals)
    ok = bool(np.all(drops <= 1e-8 * np.maximum(vals[:-1], 1e-300)))
    return {"times": sim.times[idx].tolist(), "phi": vals.tolist(),
            "nonincreasing": ok,
            "max_increase_rel": float(np.max(drops / np.maximum(vals[:-1], 1e-300)))
            if len(drops) else 0.0}


def riccati_residual(space: SpectralSpace, traj: ReferenceTrajectory,
                     law: FeedbackLaw, t_samples) -> dict:
    """Finite-difference residual of the shifted Riccati equation.

        dQ/dt = -lam Q + Q L(u) + L(u)' Q + Q (chi P_M chi) Q - diag(alpha)

    evaluated at interior node times with a fourth-order stencil, so the
    reported number reflects the synthesis accuracy, not the differencing.
    """
    dt, lam = law.dt, law.lam
    gram = law.actuator.gram
    diag_alpha = np.diag(space.alphas)
    out = []
    for t in t_samples:
        m = law.index_of(t)
        if m < 2 or m > law.n_steps - 2:
            raise ValueError(f"sample t={t} too close to the horizon ends")
        Qdot = (law.Qt[m - 2] - 8.0 * law.Qt[m - 1] + 8.0 * law.Qt[m + 1]
                - law.Qt[m + 2]) / (12.0 * dt)
        Q = law.Qt[m]
        Lmat = diag_alpha + traj.bmat_at(law.times[m])
        terms = [-lam * Q, Q @ Lmat + Lmat.T @ Q, Q @ gram @ Q, -diag_alpha]
        res = Qdot - sum(terms)
        scale = sum(np.linalg.norm(x) for x in terms) + 1e-300
        out.append(float(np.linalg.norm(res) / scale))
    return {"t": list(t_samples), "rel_residual": out,
            "max_rel_residual": float(max(out))}


def sampled_continuity(law: FeedbackLaw, w: np.ndarray) -> float:
    """Max adjacent-sample jump of t -> (Qt(t) w, w), the weak-continuity probe."""
    vals = np.einsum("i,mij,j->m", w, law.Qt, w)
    return float(np.max(np.abs(np.diff(vals))))
