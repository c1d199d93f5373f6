"""Interval null-projection controls.

Given the linearized flow on a unit interval, finds piecewise-constant
controls annihilating the projection of the endpoint onto the first N
Stokes modes: the ridge-regularised problem with its adjoint/KKT system,
and the exact minimal-norm problem through the projected reachability
Gramian.  The control quadrature matches the propagator, so the optimality
identities hold in exact discrete algebra, not just to scheme order.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, Trajectory
from .errors import UnreachableTargetError
from .quadmin import DEFAULT_PINV_RTOL, pinv_psd
from .spectral import Actuator

DEFAULT_NULL_TOL = 1e-8


@dataclass
class ControlSignal:
    """Piecewise-constant control coefficients on one unit interval."""

    tau: float
    dt: float
    values: np.ndarray      # (n_steps, M)

    def l2_norm_sq(self) -> float:
        return float(self.dt * np.sum(self.values**2))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq()))

    def weighted_norm_sq(self, rate: float) -> float:
        """Squared L2 norm of e^{(rate/2) t} eta, midpoint-sampled weights."""
        t_mid = self.tau + self.dt * (np.arange(self.values.shape[0]) + 0.5)
        return float(self.dt * np.sum(np.exp(rate * t_mid)[:, None] * self.values**2))

    def table(self) -> np.ndarray:
        """Rows (t_left, coefficients...) for CSV export."""
        t = self.tau + self.dt * np.arange(self.values.shape[0])
        return np.column_stack([t, self.values])


@dataclass
class ReachabilityBundle:
    """One interval seen at cutoff N: the stage duals S_m (K, N) of the
    adjoint block sweep of the first N unit directions, the projected
    Gramian and its pseudoinverse (pinv_psd).

    The control of Gramian coefficients g is eta_m = (actuator^T S_m) g;
    its projected endpoint from rest is gramian @ g and its squared L2
    norm is g . gramian g, in exact discrete algebra.
    """

    actuator: Actuator
    propagator: Propagator
    stages: np.ndarray          # (n_steps, K, N)
    gramian: np.ndarray         # (N, N) symmetric PSD
    gramian_pinv: np.ndarray    # (N, N)

    @property
    def N(self) -> int:
        return self.stages.shape[-1]

    def control(self, g: np.ndarray) -> ControlSignal:
        values = (self.actuator.mat.T @ self.stages) @ g
        return ControlSignal(tau=self.propagator.tau, dt=self.propagator.dt, values=values)


def build_reachability(actuator: Actuator, stages: np.ndarray,
                       propagator: Propagator,
                       pinv_rtol: float = DEFAULT_PINV_RTOL) -> ReachabilityBundle:
    """The propagator's bundle on the stage duals (n_steps, K, N) of its
    adjoint block sweep of the first N unit directions, kept as given (the
    run's cutoff search hands it a view of its interval-0 sweep), with the
    Gramian dt * sum_m (actuator^T S_m)^T (actuator^T S_m)."""
    gains = (actuator.mat.T @ stages).reshape(-1, stages.shape[-1])
    gram = propagator.dt * (gains.T @ gains)
    return ReachabilityBundle(actuator=actuator, propagator=propagator, stages=stages,
                              gramian=gram, gramian_pinv=pinv_psd(gram, pinv_rtol)[0])


def min_norm_control(bundle: ReachabilityBundle, w0: np.ndarray,
                     null_tol: float = DEFAULT_NULL_TOL) -> ControlSignal:
    """Minimal-L2 control forcing the projected endpoint to zero.

    Linear in w0.  Raises UnreachableTargetError as null_coefficients does.
    """
    w0 = np.asarray(w0, float)
    y = (bundle.propagator.total @ w0)[: bundle.N]
    g = null_coefficients(bundle.gramian, bundle.gramian_pinv, y, w0,
                          bundle.actuator.M, null_tol)
    return bundle.control(g)


def null_coefficients(gramian: np.ndarray, gramian_pinv: np.ndarray, y: np.ndarray,
                      w0: np.ndarray, M: int,
                      null_tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Gramian coefficients g = -G^+ y of the minimal-norm control that
    cancels the free endpoint's projection y = (A w0)[:N], given G and its
    pseudoinverse G^+ = pinv_psd(G).

    The control is ReachabilityBundle.control(g).  Raises
    UnreachableTargetError when y has mass outside the Gramian range beyond
    null_tol * |w0|, which signals that the control dimension M is too
    small for this N.
    """
    g = gramian_pinv @ (-y)
    resid = np.linalg.norm(y + gramian @ g)
    w0_h = np.linalg.norm(w0)
    if resid > null_tol * max(w0_h, 1e-300):
        raise UnreachableTargetError(
            f"projected endpoint residual {resid:.3e} exceeds {null_tol:.1e}*|w0|; "
            f"raise M (currently {M}) or enlarge the mask")
    return g


def regularized_control(bundle: ReachabilityBundle, w0: np.ndarray, eps: float):
    """Ridge problem: |eta|^2 + (1/eps)|Pi_N v(tau+1)|^2.

    Returns (control, endpoint state, adjoint node trajectory, stage
    duals); the adjoint starts from the terminal datum
    -(2/eps) Pi_N v(tau+1) and its stage samples reproduce the control
    through the actuator transpose exactly.

    The Gramian coefficients u solve (G + eps I) u = y0, so the projected
    endpoint y0 - G u equals eps u.  Formed by the forward pass, that
    endpoint carries the pass's rounding amplified by about
    |y0| / (eps |u|), so u takes one step of iterative refinement against
    it (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12):
    u <- u + (G + eps I)^{-1} (Pi_N v_end - eps u), then the control is
    propagated again.
    """
    if eps <= 0:
        raise ValueError("ridge parameter must be positive")
    w0 = np.asarray(w0, float)
    N, prop = bundle.N, bundle.propagator
    y0 = (prop.total @ w0)[:N]
    ridge = bundle.gramian + eps * np.eye(N)

    def endpoint(u):
        control = bundle.control(-u)
        inputs = control.values @ bundle.actuator.mat.T
        return control, prop.forward(w0, inputs)[-1]

    u = np.linalg.solve(ridge, y0)
    _, v_end = endpoint(u)
    u = u + np.linalg.solve(ridge, v_end[:N] - eps * u)
    control, v_end = endpoint(u)

    q1 = np.zeros_like(w0)
    q1[:N] = -(2.0 / eps) * v_end[:N]
    nodes, stages = prop.adjoint_block(q1)
    q_traj = Trajectory(times=prop.times, states=nodes)
    return control, v_end, q_traj, stages


def kkt_identity_check(bundle: ReachabilityBundle, w0: np.ndarray, eps: float) -> dict:
    """Verify the two optimality identities of the ridge problem.

    (i) stepwise 2*eta = P_M(chi q) against the stage-sampled adjoint;
    (ii) the integrated duality identity
         int |P_M(chi q)|^2 dt + eps |q(tau+1)|^2 = -2 (q(tau), w0).
    """
    control, v_end, q_traj, stages = regularized_control(bundle, w0, eps)
    dt = bundle.propagator.dt
    pm_chi_q = stages @ bundle.actuator.mat          # (n_steps, M)

    gap = np.abs(2.0 * control.values - pm_chi_q)
    scale = np.max(np.abs(pm_chi_q)) + 1e-300
    lhs = dt * np.sum(pm_chi_q**2) + eps * float(q_traj.states[-1] @ q_traj.states[-1])
    rhs = -2.0 * float(q_traj.states[0] @ np.asarray(w0, float))
    return {
        "eps": eps,
        "stepwise_max_rel": float(np.max(gap) / scale) if gap.size else 0.0,
        "identity_lhs": lhs,
        "identity_rhs": rhs,
        "identity_rel_gap": abs(lhs - rhs) / (abs(rhs) + 1e-300),
        "projected_endpoint": float(np.linalg.norm(v_end[: bundle.N])),
    }


def epsilon_limit_study(bundle: ReachabilityBundle, w0: np.ndarray, eps_grid,
                        eta_star: ControlSignal) -> dict:
    """Track the ridge solutions along a decreasing eps grid.

    Reports the gap to eta_star, the exact minimal-norm control of w0
    (min_norm_control), the projected endpoint defect, and the log-log
    slope of the defect (the worst-case rate is sqrt(eps); broad Gramian
    spectra realise it).
    """
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), float)
    gaps, defects = [], []
    for eps in eps_grid:
        control, v_end, _, _ = regularized_control(bundle, w0, eps)
        diff = control.values - eta_star.values
        gaps.append(np.sqrt(bundle.propagator.dt * np.sum(diff**2)))
        defects.append(np.linalg.norm(v_end[: bundle.N]))
    defects, gaps = np.array(defects), np.array(gaps)
    slope = float("nan")
    positive = defects > 0
    if positive.sum() >= 2:
        slope = float(np.polyfit(np.log(eps_grid[positive]),
                                 np.log(defects[positive]), 1)[0])
    return {
        "eps": eps_grid.tolist(),
        "control_gap": gaps.tolist(),
        "endpoint_defect": defects.tolist(),
        "defect_monotone": bool(np.all(np.diff(defects) <= 1e-12 * defects[0]))
        if defects.size else True,
        "gap_monotone": bool(np.all(np.diff(gaps) <= 1e-12 * max(gaps[0], 1e-300)))
        if gaps.size else True,
        "defect_slope": slope,
        "min_norm_value": eta_star.l2_norm(),
    }
