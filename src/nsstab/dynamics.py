"""Nonlinear and linearized propagation around a reference flow.

The advection term is computed pseudospectrally on the alias-free grid, so
it coincides with the exact truncated convolution sum.  Linear propagation
uses Crank-Nicolson on the full frozen-midpoint system matrix; the adjoint
propagator is the literal transpose of the forward step matrices, which
makes every discrete duality identity exact in floating-point algebra.

Every Crank-Nicolson step takes its inverse (I + h/2 F)^{-1} from an
InversePath along its pass: the free flow's step stacks (cn_steps), the
closed loop's, and the feedback's sweeps, rollouts and cost check.  Each
inverse is predicted from the ones before it and refined by one
Newton-Schulz update, with two updates or a solve where that does not
converge; a pass solves only its first step.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import StepSolveError
from .spectral import SpectralSpace


ADVECTION_CHUNK = 128     # rows of a block evaluated per synthesis


def bilinear_b(space: SpectralSpace, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Leray-projected advection Leray((u . grad) v) truncated to K modes.

    cu and cv are (..., K) stacks of one shape; the result has their leading
    shape.  Each chunk of up to ADVECTION_CHUNK states takes one synthesis
    of u, dv/dx and dv/dy and one analysis, so a long stack's grids never
    exist for the whole stack at once.
    """
    cu, cv = np.asarray(cu, float), np.asarray(cv, float)
    lead = cu.shape[:-1]
    cu, cv = cu.reshape(-1, space.K), cv.reshape(-1, space.K)
    out = np.empty(cu.shape)
    for i in range(0, len(cu), ADVECTION_CHUNK):
        rows = slice(i, i + ADVECTION_CHUNK)
        out[rows] = _advection(space, cu[rows], cv[rows])
    return out.reshape(lead + (space.K,))


def _advection(space: SpectralSpace, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """bilinear_b of (B, K) blocks cu and cv in one synthesis and one
    analysis."""
    cup, cvp = space.pad(cu), space.pad(cv)
    B, n2 = cup.shape[0], space.n * space.n
    grids = np.concatenate([cup, cvp @ space.deriv_x.T, cvp @ space.deriv_y.T]) \
        @ space.mode_fields
    u, dvx, dvy = grids.reshape(3, B, 2, n2)
    w = u[:, 0:1] * dvx + u[:, 1:2] * dvy
    out = space.quad_w * (w.reshape(B, 2 * n2) @ space.mode_fields.T)
    return out[:, : space.K]


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


REFINE_TOL = 1e-8       # residual before the last update that is accepted


class InversePath:
    """Inverses of the consecutive matrices A_m of one pass, taken in
    either direction, each predicted from the inverses before it.

    Consecutive matrices of a pass differ by O(h), so their inverses lie on
    a smooth path.  The first matrix is solved.  The second starts from
    the first's inverse, the third from the linear prediction 2 X1 - X2
    and every later one from the quadratic prediction 3 (X1 - X2) + X3,
    X1 the newest inverse.  A Newton-Schulz update
    X <- X + X R, R = I - A X, squares the residual, so a prediction whose
    residual |R|_inf is at most REFINE_TOL takes one update (two K x K
    products in all) and its error is at round-off.  Otherwise one whose
    residual is at most 1/2 takes two updates if the residual before the
    second is at most REFINE_TOL, and every other matrix is solved afresh by
    _cn_solve, which raises StepSolveError naming step m where A is
    singular.  counts records how each inverse was obtained: "one", "two"
    or "solved".
    """

    def __init__(self):
        self._recent = []           # the last three inverses, newest first
        self.counts = {"one": 0, "two": 0, "solved": 0}

    def inverse(self, A: np.ndarray, m: int) -> np.ndarray:
        """A^{-1} for the next matrix A (n, n) of the pass, its step m."""
        eye = _identity(A.shape[0])
        X, how = self._predicted(), "solved"
        if X is not None:
            R = eye - A @ X
            res = _inf_norm(R)
            if res <= REFINE_TOL:
                how = "one"
            elif res <= 0.5:
                X = X + X @ R
                R = eye - A @ X
                if _inf_norm(R) <= REFINE_TOL:
                    how = "two"
        if how == "solved":
            X = _cn_solve(A, eye, m)
        else:
            X = X + X @ R           # the last update
        self.counts[how] += 1
        self._recent = [X] + self._recent[:2]
        return X

    def step(self, F: np.ndarray, dt: float, m: int) -> np.ndarray:
        """X = (I + h/2 F)^{-1} of the pass's Crank-Nicolson step m with
        system matrix F: the step is phi = 2 X - I, and a forcing f enters
        as h X f."""
        return self.inverse(_identity(F.shape[0]) + 0.5 * dt * F, m)

    def _predicted(self):
        r = self._recent
        if len(r) == 3:
            return 3.0 * (r[0] - r[1]) + r[2]
        if len(r) == 2:
            return 2.0 * r[0] - r[1]
        return r[0] if r else None


def _inf_norm(R):
    # max row sum of |R|; a NaN in R makes it NaN, which fails every
    # "<=" test, so that matrix is solved
    return np.abs(R).sum(axis=1).max()


def cn_steps(F_at, n_steps: int, dt: float, K: int) -> np.ndarray:
    """Crank-Nicolson step stack for the per-step system matrices F_at(m).

    Fills phi[m] = 2 X_m - I with X_m = (I + h/2 F_at(m))^{-1} from one
    InversePath along the stack, so only step 0 is solved.  The free flow's
    propagators and the closed loop are built so, and the feedback's
    sequential passes take each step's X from an InversePath of their own:
    every step model of the package shares one discretisation.
    """
    phi = np.empty((n_steps, K, K))
    path, eye = InversePath(), _identity(K)
    for m in range(n_steps):
        phi[m] = 2.0 * path.step(F_at(m), dt, m) - eye
    return phi


@dataclass
class Propagator:
    """Per-step dense transition machinery on a uniform grid from tau.

    Crank-Nicolson with the stiff Stokes part and the frozen midpoint
    linearization both inside the implicit solve:

        v_{m+1} = phi_m v_m + h (I + h/2 F_m)^{-1} f_m
                = phi_m (v_m + h/2 f_m) + h/2 f_m,
        phi_m = (I + h/2 F_m)^{-1} (I - h/2 F_m),

    F_m = diag(alpha) + B(u(t_m + h/2)) for the free flow.  cn_steps
    builds phi_m = 2 X_m - I from X_m = (I + h/2 F_m)^{-1}, and the second
    form uses X_m = (I + phi_m)/2, so phi is the only stored matrix, and
    the adjoint sweep applies the transpose of exactly the map forward
    applies: <v(tau+1), q1> - <w0, q(tau)> telescopes exactly against the
    stage-sampled control duality term.
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


def regularity_diagnostics(space: SpectralSpace, prop: Propagator, runs: int,
                           rng) -> dict:
    """Empirical constants for the three smoothing estimates of the flow
    linearized around a reference, over the interval of its propagator
    prop (build_propagator) on space.

    For random (r0, f) batches, reports the max ratio of each estimate's
    left side over its natural data norm; the sqrt(t)-weighted ratio probes
    the parabolic smoothing from H data.
    """
    tau, dt = prop.tau, prop.dt
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
