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

from .dynamics import Propagator, ReferenceTrajectory, Trajectory, build_propagator
from .errors import UnreachableTargetError
from .quadmin import DEFAULT_PINV_RTOL, pinv_psd
from .spectral import Actuator, SpectralSpace

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

    def weighted_norm_sq(self, rate: float, origin: float = 0.0) -> float:
        """Squared L2 norm of e^{(rate/2) t} eta, midpoint-sampled weights."""
        t_mid = self.tau + self.dt * (np.arange(self.values.shape[0]) + 0.5) - origin
        return float(self.dt * np.sum(np.exp(rate * t_mid)[:, None] * self.values**2))

    def table(self) -> np.ndarray:
        """Rows (t_left, coefficients...) for CSV export."""
        t = self.tau + self.dt * np.arange(self.values.shape[0])
        return np.column_stack([t, self.values])


@dataclass
class ReachabilityBundle:
    """Endpoint maps of one interval: free flow, input map, projected Gramian.

    input_rows holds sqrt(dt)-scaled rows of the projected input-to-state
    map, so gramian = input_rows @ input_rows.T and squared coefficient
    norms equal L2-in-time control norms exactly.
    """

    space: SpectralSpace
    actuator: Actuator
    propagator: Propagator
    tau: float
    N: int
    free_map: np.ndarray        # (K, K) endpoint map of the uncontrolled flow
    input_rows: np.ndarray      # (N, n_steps * M)
    gramian: np.ndarray         # (N, N) symmetric PSD
    gramian_rank: int

    @property
    def n_steps(self) -> int:
        return self.propagator.n_steps

    def control_from_stacked(self, psi: np.ndarray) -> ControlSignal:
        vals = psi.reshape(self.n_steps, self.actuator.M) / np.sqrt(self.propagator.dt)
        return ControlSignal(tau=self.tau, dt=self.propagator.dt, values=vals)


def build_reachability(space: SpectralSpace, traj: ReferenceTrajectory, tau: float,
                       actuator: Actuator, N: int, dt: float = 1.0 / 128,
                       propagator: Propagator | None = None,
                       pinv_rtol: float = DEFAULT_PINV_RTOL) -> ReachabilityBundle:
    """Assemble endpoint maps by one adjoint sweep per retained Stokes direction."""
    if not 0 <= N <= space.K:
        raise ValueError(f"projection cutoff N={N} outside [0, K]")
    prop = propagator if propagator is not None else build_propagator(space, traj, tau, dt)
    free_map = prop.total

    n_steps, M = prop.n_steps, actuator.M
    rows = np.zeros((N, n_steps * M))
    if N:
        Q1 = np.zeros((space.K, N))
        Q1[:N, :N] = np.eye(N)
        _, stages = prop.adjoint_block(Q1)          # (n_steps, K, N)
        sq = np.sqrt(prop.dt)
        for m in range(n_steps):
            rows[:, m * M:(m + 1) * M] = sq * (actuator.mat.T @ stages[m]).T
    gram = rows @ rows.T
    _, rank = pinv_psd(gram, pinv_rtol)
    return ReachabilityBundle(space=space, actuator=actuator, propagator=prop,
                              tau=tau, N=N, free_map=free_map, input_rows=rows,
                              gramian=gram, gramian_rank=rank)


def min_norm_control(bundle: ReachabilityBundle, w0: np.ndarray,
                     pinv_rtol: float = DEFAULT_PINV_RTOL,
                     null_tol: float = DEFAULT_NULL_TOL) -> ControlSignal:
    """Minimal-L2 control forcing the projected endpoint to zero.

    Linear in w0.  Raises UnreachableTargetError as null_coefficients does.
    """
    w0 = np.asarray(w0, float)
    if bundle.N == 0:
        return bundle.control_from_stacked(np.zeros(bundle.input_rows.shape[1]))
    y = (bundle.free_map @ w0)[: bundle.N]
    g = null_coefficients(bundle.gramian, y, w0, bundle.actuator.M, pinv_rtol, null_tol)
    return bundle.control_from_stacked(bundle.input_rows.T @ g)


def null_coefficients(gramian: np.ndarray, y: np.ndarray, w0: np.ndarray, M: int,
                      pinv_rtol: float = DEFAULT_PINV_RTOL,
                      null_tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Gramian coefficients g = -G^+ y of the minimal-norm control that
    cancels the free endpoint's projection y = (A w0)[:N].

    The control is the input map's transpose applied to g.  Raises
    UnreachableTargetError when y has mass outside the Gramian range beyond
    null_tol * |w0|, which signals that the control dimension M is too
    small for this N.
    """
    Gp, _ = pinv_psd(gramian, pinv_rtol)
    g = Gp @ (-y)
    resid = np.linalg.norm(y + gramian @ g)
    w0_h = np.linalg.norm(w0)
    if resid > null_tol * max(w0_h, 1e-300):
        raise UnreachableTargetError(
            f"projected endpoint residual {resid:.3e} exceeds {null_tol:.1e}*|w0|; "
            f"raise M (currently {M}) or enlarge the mask")
    return g


def regularized_control(bundle: ReachabilityBundle, w0: np.ndarray, eps: float):
    """Ridge problem: |eta|^2 + (1/eps)|Pi_N v(tau+1)|^2.

    Returns (control, endpoint state, adjoint node trajectory); the adjoint
    starts from the terminal datum -(2/eps) Pi_N v(tau+1) and its stage
    samples reproduce the control through the actuator transpose exactly.
    """
    if eps <= 0:
        raise ValueError("ridge parameter must be positive")
    w0 = np.asarray(w0, float)
    N, K = bundle.N, bundle.space.K
    prop = bundle.propagator
    y0 = (bundle.free_map @ w0)[:N]
    u = np.linalg.solve(bundle.gramian + eps * np.eye(N), y0) if N else np.zeros(0)
    psi = -(bundle.input_rows.T @ u)
    control = bundle.control_from_stacked(psi)

    inputs = control.values @ bundle.actuator.mat.T
    states = prop.forward(w0, inputs)
    v_end = states[-1]

    q1 = np.zeros(K)
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


def epsilon_limit_study(bundle: ReachabilityBundle, w0: np.ndarray,
                        eps_grid, pinv_rtol: float = DEFAULT_PINV_RTOL) -> dict:
    """Track the ridge solutions along a decreasing eps grid.

    Reports the gap to the exact minimal-norm control, the projected
    endpoint defect, and the log-log slope of the defect (the worst-case
    rate is sqrt(eps); broad Gramian spectra realise it).
    """
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), float)
    eta_star = min_norm_control(bundle, w0, pinv_rtol)
    gaps, defects = [], []
    for eps in eps_grid:
        control, v_end, _, _ = regularized_control(bundle, w0, eps)
        diff = control.values - eta_star.values
        gaps.append(np.sqrt(bundle.propagator.dt * np.sum(diff**2)))
        defects.append(np.linalg.norm(v_end[: bundle.N]))
    defects = np.array(defects)
    gaps = np.array(gaps)
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
