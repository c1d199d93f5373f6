"""Nonlinear and linearized propagation around a reference flow.

The advection term is computed pseudospectrally on the alias-free grid, so
it coincides with the exact truncated convolution sum.  Linear propagation
uses Crank-Nicolson on the full frozen-midpoint system matrix; the adjoint
propagator is the literal transpose of the forward step matrices, which
makes every discrete duality identity exact in floating-point algebra.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import StepSolveError
from .spectral import SpectralSpace


def bilinear_b(space: SpectralSpace, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Leray-projected advection Leray((u . grad) v) truncated to K modes.

    cu and cv are (..., K) stacks of one shape; the result has their leading
    shape.  The whole stack takes one synthesis of u, dv/dx and dv/dy and one
    analysis, so a block of states costs one call.
    """
    cu, cv = np.asarray(cu, float), np.asarray(cv, float)
    lead = cu.shape[:-1]
    cup = space.pad(cu.reshape(-1, space.K))
    cvp = space.pad(cv.reshape(-1, space.K))
    B, n2 = cup.shape[0], space.n * space.n
    grids = np.concatenate([cup, cvp @ space.deriv_x.T, cvp @ space.deriv_y.T]) \
        @ space.mode_fields
    u, dvx, dvy = grids.reshape(3, B, 2, n2)
    w = u[:, 0:1] * dvx + u[:, 1:2] * dvy
    out = space.quad_w * (w.reshape(B, 2 * n2) @ space.mode_fields.T)
    return out[:, : space.K].reshape(lead + (space.K,))


def linearization_matrix(space: SpectralSpace, cu: np.ndarray) -> np.ndarray:
    """Dense K x K matrix of v -> B(v, u) + B(u, v) for a frozen state u."""
    n2 = space.n * space.n
    S = space.mode_fields.reshape(space.K_pad, 2, n2)
    u = space.synthesize(cu).reshape(2, n2)
    cup = space.pad(np.asarray(cu, float))
    gux = space.synthesize(space.deriv_x @ cup).reshape(2, n2)
    guy = space.synthesize(space.deriv_y @ cup).reshape(2, n2)

    # (e_j . grad) u for every basis mode j at once
    term = S[: space.K, 0:1, :] * gux[None] + S[: space.K, 1:2, :] * guy[None]
    # (u . grad) e_j: gradients of basis modes via the coefficient derivative maps
    Gx = np.einsum("ij,icp->jcp", space.deriv_x[:, : space.K], S)
    Gy = np.einsum("ij,icp->jcp", space.deriv_y[:, : space.K], S)
    term += u[0][None, None, :] * Gx + u[1][None, None, :] * Gy

    cols = space.quad_w * (term.reshape(space.K, 2 * n2) @ space.mode_fields[: space.K].T)
    return cols.T


@dataclass
class Trajectory:
    """Time-sampled coefficient states on a uniform grid."""

    times: np.ndarray       # (n_t,)
    states: np.ndarray      # (n_t, K)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def norm_table(self, space: SpectralSpace) -> np.ndarray:
        """Rows (t, |v|_H, |v|_V, |v|_DL) for CSV export."""
        out = np.empty((len(self.times), 4))
        for i, (t, c) in enumerate(zip(self.times, self.states)):
            h, v, dl = space.norms(c)
            out[i] = (t, h, v, dl)
        return out


class AmplitudeSchedule:
    """a0 + a1*cos(omega*t); smooth with bounded derivative by construction."""

    def __init__(self, a0: float, a1: float = 0.0, omega: float = 0.0):
        for name, val in (("a0", a0), ("a1", a1), ("omega", omega)):
            if not np.isfinite(val):
                raise ValueError(f"amplitude schedule parameter {name} must be finite")
        self.a0, self.a1, self.omega = float(a0), float(a1), float(omega)

    def __call__(self, t):
        return self.a0 + self.a1 * np.cos(self.omega * t)

    def derivative(self, t):
        return -self.a1 * self.omega * np.sin(self.omega * t)


def taylor_green_coefficients(space: SpectralSpace) -> np.ndarray:
    """Stokes coefficients of (sin x cos y, -cos x sin y)."""
    X, Y = space.grid_points()
    field = np.stack([np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)])
    return space.analyze(field)


class ReferenceTrajectory:
    """Manufactured reference: modal shapes with smooth amplitude schedules,
    shapes a list of (coefficient vector, AmplitudeSchedule).

    The forcing h = u_t + L u + B(u) is computed exactly in coefficients, so
    the reference is an exact solution of the forced system and its
    regularity bound |u|_W can be measured rather than assumed.
    """

    def __init__(self, space: SpectralSpace, shapes, horizon: float):
        if horizon <= 0:
            raise ValueError("reference horizon must be positive")
        self.space = space
        self.horizon = float(horizon)
        self.base = np.array([np.asarray(c, float) for c, _ in shapes])
        self.schedules = [s for _, s in shapes]
        self._lin_mats = np.array([linearization_matrix(space, c) for c in self.base])
        nb = len(shapes)
        self._bb = np.array([[bilinear_b(space, self.base[i], self.base[j])
                              for j in range(nb)] for i in range(nb)])
        self.w_norm = self._measure_w_norm()

    def _amps(self, t):
        return np.array([s(t) for s in self.schedules])

    def _damps(self, t):
        return np.array([s.derivative(t) for s in self.schedules])

    def u_at(self, t) -> np.ndarray:
        return self._amps(t) @ self.base

    def dudt_at(self, t) -> np.ndarray:
        return self._damps(t) @ self.base

    def bmat_at(self, t) -> np.ndarray:
        """Linearization matrix around u(t); linear in the amplitudes."""
        return np.einsum("s,sij->ij", self._amps(t), self._lin_mats)

    def forcing_at(self, t) -> np.ndarray:
        a, da = self._amps(t), self._damps(t)
        return da @ self.base + self.space.alphas * (a @ self.base) \
            + np.einsum("i,j,ijk->k", a, a, self._bb)

    def _measure_w_norm(self, n_time: int = 65) -> float:
        """Sum over j<=1, |alpha|<=1 of the sampled sup of |d_t^j d_x^alpha u|."""
        s = self.space
        sups = np.zeros(6)
        for t in np.linspace(0.0, self.horizon, n_time):
            for j, c in enumerate((self.u_at(t), self.dudt_at(t))):
                cp = s.pad(c)
                for i, cc in enumerate((cp, s.deriv_x @ cp, s.deriv_y @ cp)):
                    g = s.synthesize(cc)
                    mag = np.sqrt(g[0] ** 2 + g[1] ** 2).max()
                    sups[3 * j + i] = max(sups[3 * j + i], mag)
        return float(sups.sum())


def zero_reference(space: SpectralSpace, horizon: float) -> ReferenceTrajectory:
    return ReferenceTrajectory(space, [(np.zeros(space.K), AmplitudeSchedule(0.0))],
                               horizon)


def taylor_green_reference(space: SpectralSpace, a0: float, a1: float = 0.0,
                           omega: float = 0.0, horizon: float = 8.0) -> ReferenceTrajectory:
    sched = AmplitudeSchedule(a0, a1, omega)
    return ReferenceTrajectory(space, [(taylor_green_coefficients(space), sched)], horizon)


def cn_step(F: np.ndarray, dt: float, m: int = 0,
            near: np.ndarray | None = None) -> np.ndarray:
    """Crank-Nicolson transition phi = (I + h/2 F)^{-1} (I - h/2 F) of the
    system matrix F of step m, from one solve.

    near, the transition of a neighbouring step, makes it
    phi = 2 X - I with X = (I + h/2 F)^{-1} refined from (I + near)/2 by
    refined_inverse, which falls back to a solve where that does not
    converge.  Without near, the step is the one solve.
    """
    half = 0.5 * dt * F
    eye = _identity(F.shape[0])
    if near is None:
        return _cn_solve(eye + half, eye - half, m)
    return 2.0 * refined_inverse(eye + half, 0.5 * (eye + near), m) - eye


def cn_advance(F: np.ndarray, v: np.ndarray, dt: float, m: int = 0) -> np.ndarray:
    """phi v for v (K,) or (K, r) without forming phi:
    (I + h/2 F)^{-1} (v - h/2 F v), one solve with the columns of v."""
    half = 0.5 * dt * F
    return _cn_solve(_identity(F.shape[0]) + half, v - half @ v, m)


@cache
def _identity(K: int) -> np.ndarray:
    # one read-only identity per size: the step loops build thousands of steps
    eye = np.eye(K)
    eye.flags.writeable = False
    return eye


def _cn_solve(lhs, rhs, m):
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise StepSolveError(f"implicit step {m} is singular") from exc


REFINE_STEPS = 2        # Newton-Schulz updates per refined inverse
REFINE_TOL = 1e-8       # residual before the last update that is accepted


def refined_inverse(A: np.ndarray, X0: np.ndarray, m: int = 0) -> np.ndarray:
    """A^{-1} for A (n, n) or a stack (r, n, n), refined from X0, the inverse
    of a nearby matrix, by REFINE_STEPS Newton-Schulz updates
    X <- X + X R, R = I - A X.

    Each update squares the residual: I - A (X + X R) = R^2.  A matrix whose
    residual before the last update is at most REFINE_TOL is accepted, so
    its error is at round-off.  Every other matrix of the stack (one whose
    starting residual exceeds 1/2 in the inf-norm, as X0 = 0 always does,
    or one that misses REFINE_TOL) is solved afresh by _cn_solve, which
    raises StepSolveError naming step m where A is singular.
    """
    eye = _identity(A.shape[-1])
    X, R = X0, eye - A @ X0
    ok = _inf_norm(R) <= 0.5
    for _ in range(REFINE_STEPS - 1):
        X = X + X @ R
        R = eye - A @ X
    ok &= _inf_norm(R) <= REFINE_TOL
    X = X + X @ R
    if ok.all():
        return X
    return np.where(ok[..., None, None], X, _cn_solve(A, eye, m))


def _inf_norm(R):
    # max row sum of |R| for each matrix of a stack
    return np.abs(R).sum(axis=-1).max(axis=-1)


def cn_steps(F_at, n_steps: int, dt: float, K: int) -> np.ndarray:
    """Crank-Nicolson step stack for the per-step system matrices F_at(m).

    Fills phi[m] = cn_step(F_at(m)), one solve per step.  Every step model
    of the package (free, shifted and closed-loop flow) is built by cn_step
    or advanced by cn_advance, so they all share one discretisation.
    """
    phi = np.empty((n_steps, K, K))
    for m in range(n_steps):
        phi[m] = cn_step(F_at(m), dt, m)
    return phi


@dataclass
class Propagator:
    """Per-step dense transition machinery on a uniform grid from tau.

    Crank-Nicolson with the stiff Stokes part and the frozen midpoint
    linearization both inside the implicit solve:

        v_{m+1} = phi_m v_m + h (I + h/2 F_m)^{-1} f_m
                = phi_m (v_m + h/2 f_m) + h/2 f_m,
        phi_m = (I + h/2 F_m)^{-1} (I - h/2 F_m),

    F_m = diag(alpha) + B(u(t_m + h/2)) for the free flow.  The second form
    uses (I + h/2 F_m)^{-1} = (I + phi_m)/2, so phi is the only stored
    matrix, and the adjoint sweep applies the transpose of exactly the map
    forward applies: <v(tau+1), q1> - <w0, q(tau)> telescopes exactly
    against the stage-sampled control duality term.
    """

    tau: float
    dt: float
    phi: np.ndarray         # (n_steps, K, K) = (I + h/2 F)^{-1} (I - h/2 F)

    @property
    def n_steps(self) -> int:
        return self.phi.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.tau + self.dt * np.arange(self.n_steps + 1)

    @cached_property
    def total(self) -> np.ndarray:
        """Full-interval transition matrix (endpoint map of the free flow).

        Computed once per propagator and shared read-only by every caller.
        """
        out = np.eye(self.phi.shape[1])
        for m in range(self.n_steps):
            out = self.phi[m] @ out
        out.flags.writeable = False
        return out

    def forward(self, w0: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """Forward sweep from w0 (K,) or (K, r) with per-step H-space
        forcings (n_steps, K[, r]).

        Returns node states (n_steps+1, K[, r]); the r columns of a block
        advance together, one matrix product per step.
        """
        w0 = np.asarray(w0, float)
        states = np.empty((self.n_steps + 1,) + w0.shape)
        states[0] = w0
        for m in range(self.n_steps):
            if inputs is None:
                states[m + 1] = self.phi[m] @ states[m]
            else:
                half_f = 0.5 * self.dt * inputs[m]
                states[m + 1] = self.phi[m] @ (states[m] + half_f) + half_f
        return states

    def adjoint_block(self, Q1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backward sweep for terminal data Q1 (K,) or (K, r).

        Returns node samples (n_steps+1, K[, r]) and stage duals
        (n_steps, K[, r]).  The stage dual at step m is
        (I + h/2 F_m)^{-T} q_{m+1} = (q_m + q_{m+1}) / 2; it is the sample
        against which piecewise-constant controls pair exactly.
        """
        nodes = np.empty((self.n_steps + 1,) + Q1.shape)
        stages = np.empty((self.n_steps,) + Q1.shape)
        nodes[-1] = Q1
        for m in range(self.n_steps - 1, -1, -1):
            nodes[m] = self.phi[m].T @ nodes[m + 1]
            stages[m] = 0.5 * (nodes[m] + nodes[m + 1])
        return nodes, stages


def build_propagator(space: SpectralSpace, traj: ReferenceTrajectory,
                     tau: float, dt: float) -> Propagator:
    n_steps = int(round(1.0 / dt))
    if abs(n_steps * dt - 1.0) > 1e-12:
        raise ValueError("dt must divide the unit interval")
    if tau + 1.0 > traj.horizon + 1e-9:
        raise ValueError(f"interval [{tau}, {tau + 1}] exceeds the reference horizon")
    diag_alpha = np.diag(space.alphas)
    phi = cn_steps(lambda m: diag_alpha + traj.bmat_at(tau + (m + 0.5) * dt),
                   n_steps, dt, space.K)
    return Propagator(tau=tau, dt=dt, phi=phi)


def regularity_diagnostics(space: SpectralSpace, traj: ReferenceTrajectory,
                           tau: float, runs: int, rng, dt: float = 1.0 / 128) -> dict:
    """Empirical constants for the three smoothing estimates of the linear flow.

    For random (r0, f) batches, reports the max ratio of each estimate's
    left side over its natural data norm; the sqrt(t)-weighted ratio probes
    the parabolic smoothing from H data.
    """
    prop = build_propagator(space, traj, tau, dt)
    inv_alpha = 1.0 / space.alphas
    al, al2 = space.alphas, space.alphas**2
    ratios = {"l1": [], "l2": [], "l3": []}
    for _ in range(runs):
        r0 = rng.standard_normal(space.K)
        f = rng.standard_normal((prop.n_steps, space.K))
        states = prop.forward(r0, f)
        mids = 0.5 * (states[1:] + states[:-1])
        rdot = (states[1:] - states[:-1]) / dt
        t_nodes = prop.times - tau
        t_mids = t_nodes[:-1] + 0.5 * dt

        f_h2 = dt * np.sum(f**2)
        f_vp2 = dt * np.sum(inv_alpha * f**2)
        r0_h2 = float(r0 @ r0)
        r0_v2 = float(al @ r0**2)

        sup_h = np.max(np.sum(states**2, axis=1))
        int_v = dt * np.sum(al * mids**2)
        int_vp = dt * np.sum(inv_alpha * rdot**2)
        ratios["l1"].append((sup_h + int_v + int_vp) / (r0_h2 + f_vp2))

        sup_tv = np.max(t_nodes * np.sum(al * states**2, axis=1))
        int_tdl = dt * np.sum(t_mids[:, None] * al2 * mids**2)
        ratios["l2"].append((sup_tv + int_tdl) / (r0_h2 + f_h2))

        sup_v = np.max(np.sum(al * states**2, axis=1))
        int_dl = dt * np.sum(al2 * mids**2)
        int_h = dt * np.sum(rdot**2)
        ratios["l3"].append((sup_v + int_dl + int_h) / (r0_v2 + f_h2))

    report = {k: float(np.max(v)) for k, v in ratios.items()}
    report["all_finite"] = all(np.isfinite(r) for r in report.values())
    report["runs"] = runs
    return report
