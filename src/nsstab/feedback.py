"""Exponentially weighted LQ feedback synthesis.

Works in the shifted variable z = e^{(lam/2)t} v, whose drift gains lam/2
and whose quadratic cost loses the exponential weight, so every stored
matrix stays O(1) regardless of the horizon.  The infinite-horizon cost
operator is approximated on [0, T_h] with terminal value zero; the doubling
gate compares its Q(0) with that of the synthesis on [0, 2 T_h].  That
synthesis differs from the law only in its terminal value at T_h,
D = Q_2T(T_h) (doubled_tail_value, a sweep of [T_h, 2 T_h] alone that
stores nothing), and two solutions of one Riccati difference equation with
different terminal values differ by

    Q_2T(0) - Q(0) = Lam0' (I + D W)^{-1} D Lam0,

Lam0 the law's closed-loop transition over [0, T_h] and W the closed
loop's gain-weighted reachability Gramian (Bittanti, Laub & Willems, The
Riccati Equation, 1991).  The law's sweep carries both (FeedbackLaw.
transition, FeedbackLaw.gramian), so [0, T_h] is swept once per run.

The backward sweep is the discrete dynamic program for the Crank-Nicolson
one-step model with midpoint-sampled stage cost.  Two consequences drive
the test design: dynamic-programming and optimal-cost identities hold to
round-off (the rollout and the recursion build every step from the same
expression), and for a frozen system the recursion's fixed point solves
the continuous algebraic Riccati equation exactly (the bilinear-transform
equivalence of the discrete and continuous equations), so scalar closed
forms are exact oracles up to horizon truncation.

The law is its cost operators alone, 8 (n_T + 1) K (K + 1)/2 bytes for
n_T = T_h / dt steps: each cost operator is exactly symmetric and is stored
once, as its packed upper triangle (LAPACK's packed symmetric storage).
The paper's feedback -chi P_M chi Q(t) v reads nothing else.  No step
matrix and no discrete gain is stored: the sweep builds each step when it
uses it, and the verification rollouts advance as one block through the
same step model, forming each step's gain from Q(m+1).  Consecutive steps
differ by O(h), so every pass (the sweeps, the rollouts and the cost check)
takes its step inverses, and a sweep its gain-system inverses, from a
dynamics.InversePath: it solves the pass's first matrix and predicts every
later inverse from the ones before it, refined by one Newton-Schulz update
(two, or a solve, where that does not converge).  The law, the rollouts
and the cost check's report carry the counts of their step path
(step_inverses).  The cost check walks the continuous-form closed loop
from node 0 and carries the linear decay run from (0, w0) on its first
steps, so one walk serves both, and closed_loop_linear measures the decay
run it is given.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import InversePath, ReferenceTrajectory, Trajectory
from .errors import ConfigError, RiccatiBlowupError
from .spectral import Actuator

DEFAULT_RICCATI_CAP = 1e8


@dataclass
class FeedbackLaw:
    """Time-sampled shifted cost operators on [0, T_h] around a reference.

    Q(m) is PSD and the unshifted cost operator is e^{lam t_m} Q(m); the
    feedback applied to a velocity state is -chi P_M chi Q(t) v (the
    exponential factors cancel in the shifted representation).  Each Q(m)
    is exactly symmetric and is stored once, as the row-major upper
    triangle Q_packed[m] (pack_symmetric); Q(m) unpacks it.  The law holds
    neither step matrices nor discrete gains: optimal_rollouts rebuilds
    step m from shifted_system, the expression the sweep used, and forms
    its discretely optimal control from Q(m+1) (see _sweep).  The law
    exists on [0, T_h] only: reading it at a time outside that range,
    beyond round-off, raises ValueError.  A law on its head alone, whose
    Q_packed holds the first head + 1 cost operators, keeps its horizon,
    times and n_steps, and a read past the head raises ValueError too.
    step_inverses counts how its sweep obtained each step inverse
    (InversePath.counts).  transition and gramian are the horizon gate's
    Lam0 and W (see _sweep), (K, K) each.
    """

    lam: float
    T_h: float
    dt: float
    times: np.ndarray       # (n_T + 1,)
    Q_packed: np.ndarray    # (head + 1, K (K + 1)/2): packed upper triangles
    actuator: Actuator
    reference: ReferenceTrajectory
    step_inverses: dict = field(default_factory=dict)
    transition: np.ndarray | None = None    # Lam0: the closed loop's z(0) -> z(T_h)
    gramian: np.ndarray | None = None       # W

    def __post_init__(self):
        # the fixed parts of the two step models, built once, not per step
        self._diag_alpha = np.diag(self.alphas)
        self._shift = self._diag_alpha - 0.5 * self.lam * np.eye(len(self.alphas))
        self._gram = self.actuator.gram

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def head(self) -> int:
        """The last node whose cost operator the law keeps: n_steps, or
        the end of its head."""
        return self.Q_packed.shape[0] - 1

    @property
    def M(self) -> int:
        return self.actuator.M

    @property
    def alphas(self) -> np.ndarray:
        """The state weight diagonal: the Stokes eigenvalues of the space."""
        return self.reference.space.alphas

    def Q(self, m: int) -> np.ndarray:
        """The (K, K) cost operator at node m."""
        return unpack_symmetric(self.Q_packed[self._kept(m)])

    def shifted_system(self, m: int) -> np.ndarray:
        """diag(alpha) - (lam/2) I + B(u((m + 1/2) h)): the shifted system
        matrix of step m, the one expression every shifted step is built
        from."""
        return self._shift + self.reference.bmat_at((m + 0.5) * self.dt)

    def closed_loop_system(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(F_m, Q_mid): the continuous-form closed loop over step m,
        Q_mid = (Q(m) + Q(m+1))/2 (averaged packed, then unpacked) and
        F_m = diag(alpha) + B(u(t_m + h/2)) + (chi P_M chi) Q_mid.  Source of
        every closed-loop step and its cost."""
        q = self.Q_packed
        Q_mid = unpack_symmetric(0.5 * (q[m] + q[self._kept(m + 1)]))
        return (self._diag_alpha + self.reference.bmat_at((m + 0.5) * self.dt)
                + self._gram @ Q_mid), Q_mid

    def index_of(self, t: float) -> int:
        x = (t - self.times[0]) / self.dt
        if not -1e-9 <= x <= self.n_steps + 1e-9:
            raise ValueError(f"t={t} lies outside the law's horizon [0, {self.T_h}]")
        return self._kept(int(round(x)))

    def _kept(self, m: int) -> int:
        """m, refused with ValueError past the law's head."""
        if m > self.head:
            raise ValueError(f"node {m} (t={m * self.dt:.6g}) lies past the "
                             f"law's head [0, {self.head * self.dt:.6g}]: it keeps "
                             f"no cost operator there")
        return m

    def max_gain_norm(self, stride: int = 16) -> float:
        """Measured operator-norm bound of the continuous-form gain."""
        return float(max(np.linalg.norm(self._gram @ self.Q(m), 2)
                         for m in range(0, self.n_steps + 1, stride)))


@functools.cache
def _packed_positions(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, pos) for (K, K) matrices: the flat indices of the upper
    triangle, row by row, and the (K, K) table of each entry's place in
    that packing, (i, j) and (j, i) alike.  Cached, so read-only."""
    rows, cols = np.triu_indices(K)
    upper = rows * K + cols
    pos = np.empty((K, K), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
    upper.flags.writeable = pos.flags.writeable = False
    return upper, pos


def pack_symmetric(P: np.ndarray) -> np.ndarray:
    """The upper triangle of a symmetric (K, K) matrix, row by row."""
    return P.take(_packed_positions(P.shape[-1])[0])


def unpack_symmetric(q: np.ndarray) -> np.ndarray:
    """The (..., K, K) symmetric matrices of packed upper triangles q
    (..., K (K + 1)/2): one gather, each entry copied as stored."""
    K = (math.isqrt(8 * q.shape[-1] + 1) - 1) // 2
    return np.take(q, _packed_positions(K)[1], axis=-1)


CGROUP_DIR = "/sys/fs/cgroup"       # cgroup v2 mount: the limit this process runs under


def available_memory_bytes() -> int | None:
    """Bytes this process can still allocate, or None where nothing can be
    read.  MemAvailable from /proc/meminfo (else the physical memory size)
    counts the whole host, so a cgroup v2 memory limit's headroom,
    memory.max - memory.current, caps it where that limit is set."""
    known = [b for b in (_host_available(), _cgroup_headroom()) if b is not None]
    return min(known) if known else None


def _host_available() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _cgroup_headroom() -> int | None:
    try:
        with open(os.path.join(CGROUP_DIR, "memory.max")) as fh:
            limit = fh.read().strip()
        with open(os.path.join(CGROUP_DIR, "memory.current")) as fh:
            used = int(fh.read())
        return None if limit == "max" else max(int(limit) - used, 0)
    except (OSError, ValueError):
        return None


def peak_rss_mb() -> float | None:
    """This process's peak resident set in MB: VmHWM of /proc/self/status,
    or None where that cannot be read.  It counts from the process's own
    exec; ru_maxrss carries over the high-water mark of the image that exec
    replaced, such as a large parent's when a child is spawned."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except (OSError, ValueError, IndexError):
        pass
    return None


def require_memory(need: int, what: str, remedy: str):
    """Refuse an allocation of need bytes larger than the available memory
    with ConfigError, naming what needs it and the fields that size it."""
    avail = available_memory_bytes()
    if avail is not None and need > avail:
        raise ConfigError(
            f"{what} needs {need / 1e6:.1f} MB, more than the "
            f"{avail / 1e6:.1f} MB available; {remedy}")


def riccati_solve(traj: ReferenceTrajectory, lam: float, actuator: Actuator,
                  T_h: float, dt: float = 1.0 / 128,
                  cap: float = DEFAULT_RICCATI_CAP) -> FeedbackLaw:
    """Backward sweep for the shifted cost operator on [0, T_h] around traj.

    State weight diag(alpha) (the V-form), control weight identity on the
    control basis.  Divergence past the cap reports the system as not
    stabilizable through this actuator.  Every step is built once and none
    is stored.  A law (Q_packed) larger than the available memory is
    refused with ConfigError before anything is allocated; the closed
    loop's step stack has its own guard (nonlinear.closed_loop_steps).
    """
    _check_horizon(traj, lam, T_h)
    n_T = int(round(T_h / dt))
    K = traj.space.K
    require_memory(8 * (n_T + 1) * (K * (K + 1) // 2),
                   "the feedback law (its cost operators)",
                   "lower space.K or time.T_h, or raise time.dt")
    law = FeedbackLaw(lam=lam, T_h=T_h, dt=dt, times=dt * np.arange(n_T + 1),
                      Q_packed=np.zeros((n_T + 1, K * (K + 1) // 2)),  # Q(T_h) = 0
                      actuator=actuator, reference=traj)
    _, law.step_inverses, (law.transition, law.gramian) = _sweep(
        law, cap, law.Q_packed, carry=True)
    return law


def doubled_tail_value(traj: ReferenceTrajectory, lam: float,
                       actuator: Actuator, T_h: float, dt: float = 1.0 / 128,
                       cap: float = DEFAULT_RICCATI_CAP) -> np.ndarray:
    """D = Q_2T(T_h) (K, K): the cost operator at T_h of the synthesis on
    [0, 2 T_h], the terminal value horizon_gate continues the law with.

    One sweep of that synthesis's steps 2 n_T - 1 .. n_T from zero,
    n_T = T_h / dt, that stores no cost operator: the same steps as
    riccati_solve(traj, lam, actuator, 2 T_h, dt, cap) takes first, so its
    Q(T_h) bit for bit.  Raises ValueError where 2 T_h exceeds the
    reference horizon and RiccatiBlowupError at the cap.
    """
    _check_horizon(traj, lam, 2.0 * T_h)
    n_T = int(round(T_h / dt))
    # the doubled synthesis's step model; its zero-width Q_packed holds
    # nothing, as the sweep keeps only its running cost operator
    model = FeedbackLaw(lam=lam, T_h=2 * n_T * dt, dt=dt,
                        times=dt * np.arange(2 * n_T + 1),
                        Q_packed=np.zeros((2 * n_T + 1, 0)), actuator=actuator,
                        reference=traj)
    return _sweep(model, cap, first=n_T)[0]


def doubled_horizon_increment(law: FeedbackLaw, D: np.ndarray) -> np.ndarray:
    """Q_2T(0) - Q(0) (K, K): how far the synthesis on [0, 2 T_h], whose
    value at T_h is D (doubled_tail_value), lies above law at 0,

        Lam0' (I + D W)^{-1} D Lam0,

    with Lam0 = law.transition and W = law.gramian.  I + D W is invertible
    for D and W PSD.  Symmetrised as the sweep's operators are."""
    Lam0 = law.transition
    dQ = Lam0.T @ np.linalg.solve(np.eye(len(D)) + D @ law.gramian, D @ Lam0)
    return 0.5 * (dQ + dQ.T)


def horizon_gate(law: FeedbackLaw, D: np.ndarray,
                 cap: float = DEFAULT_RICCATI_CAP) -> dict:
    """The doubling gate of law: the relative change of Q(0) from law to
    the synthesis on [0, 2 T_h] whose value at T_h is D, formed from their
    difference dQ (doubled_horizon_increment).  Where Q_2T(0) is not finite
    or exceeds cap in the inf-norm, RiccatiBlowupError reports the doubled
    synthesis not stabilizable, as its own sweep would at node 0.

    Beside rel_change it reports the spectral norms of Lam0, W and D, which
    bound the change a priori: |dQ|_2 <= |Lam0|_2^2 |D|_2."""
    finite = bool(np.isfinite(D).all())
    dQ = doubled_horizon_increment(law, D) if finite else np.full_like(D, np.nan)
    double_Q0 = law.Q(0) + dQ
    # written as "not <=" so that a NaN or inf fails it too, as in _sweep
    if not np.abs(double_Q0).sum(axis=-1).max() <= cap:
        raise RiccatiBlowupError(
            f"cost operator exceeded cap {cap:.1e} at t=0.000 of the synthesis "
            f"on [0, {2 * law.T_h:g}]; system not stabilizable through "
            f"M={law.M} at lambda={law.lam}")
    return {"T_h": law.T_h,
            "rel_change": float(np.linalg.norm(dQ)
                                / max(np.linalg.norm(double_Q0), 1e-300)),
            "transition_norm": float(np.linalg.norm(law.transition, 2)),
            "gramian_norm": float(np.linalg.norm(law.gramian, 2)),
            "tail_value_norm": float(np.linalg.norm(D, 2))}


def _check_horizon(traj: ReferenceTrajectory, lam: float, T_h: float):
    if lam < 0 or T_h <= 0:
        raise ValueError("lam must be nonnegative and T_h positive")
    if T_h > traj.horizon + 1e-9:
        raise ValueError(f"synthesis horizon {T_h} exceeds the reference "
                         f"horizon {traj.horizon}")


def _sweep(law, cap, Q_packed=None, first=0, carry=False):
    """Backward dynamic program of law over its steps n_T - 1 .. first
    from the terminal cost operator zero; returns the cost operator P at
    node first, the counts of its step path (InversePath.counts) and, with
    carry, the horizon gate's (Lam0, W) (else None).

    Step m is phi = 2 X - I, X = (I + h/2 F_m)^{-1} with F_m =
    law.shifted_system(m), built here and dropped after use.  Step
    z+ = phi (z + u) + u with u = h/2 B eta, stage cost
    h (|zbar|_C^2 + |eta|^2) with zbar = (z + z+)/2, C = diag(alphas).  With
    gam = phi h/2 B + h/2 B, W = P + h/4 C and S = W phi the blocks are
    Hzz = phi' S + h/4 (C + C phi + phi' C), Hze = S' gam + h/4 C gam and
    Hee = h I + gam' W gam: two K^3 products per step.

    Neighbouring steps differ by O(h), so X and Hee^{-1} each come from an
    InversePath along the sweep: only the first step and the first gain
    system are solved, and every later inverse is predicted from the ones
    after it and refined by one Newton-Schulz update (two, or a solve, where
    that does not converge).  The gain G = Hee^{-1} Hze' serves only to
    advance P and is dropped with the step; optimal_rollouts forms it again
    from Q(m+1).  Each P is symmetrised as (P + P')/2, which makes it exactly symmetric
    (floating-point addition commutes), so packing its upper triangle loses
    nothing.  Fills Q_packed[m] (packed) when given.

    The carry follows the closed loop A_m = phi - gam G of the sweep:
    Lam_m = Lam_{m+1} A_m from Lam_{n_T} = I, and
    W = sum_m Lam_{m+1} gam Hee^{-1} gam' Lam_{m+1}', with the Hee^{-1} the
    gain path returned: one more K^3 product and a few K^2 M products per
    step.
    """
    B, dt, alphas, lam = law.actuator.mat, law.dt, law.alphas, law.lam
    K, M = B.shape
    half_B = 0.5 * dt * B
    qc = 0.25 * dt * alphas             # (h/4) C, as a diagonal
    QC = np.diag(qc)
    h_eye, eye = dt * np.eye(M), np.eye(K)
    steps, gains = InversePath(), InversePath()
    P = np.zeros((K, K))
    Lam, Gram = eye, np.zeros((K, K))
    for m in range(law.n_steps - 1, first - 1, -1):
        phi = 2.0 * steps.step(law.shifted_system(m), dt, m) - eye
        gam = phi @ half_B + half_B
        W = P + QC
        S = W @ phi
        C_phi = qc[:, None] * phi
        Hzz = phi.T @ S + (QC + C_phi + C_phi.T)
        Hze = S.T @ gam + qc[:, None] * gam
        Hee = h_eye + gam.T @ (W @ gam)
        Hee_inv = gains.inverse(Hee, m)
        G = Hee_inv @ Hze.T
        if carry:
            Lam_gam = Lam @ gam
            Gram += (Lam_gam @ Hee_inv) @ Lam_gam.T
            Lam = Lam @ phi - Lam_gam @ G
        P = Hzz - Hze @ G
        P = 0.5 * (P + P.T)
        # max row sum of |P|: its inf-norm; written as "not <=" so that a
        # NaN or inf in P fails it too
        if not np.abs(P).sum(axis=-1).max() <= cap:
            raise RiccatiBlowupError(
                f"cost operator exceeded cap {cap:.1e} at t={m * dt:.3f}; "
                f"system not stabilizable through M={M} at lambda={lam}")
        if Q_packed is not None:
            Q_packed[m] = pack_symmetric(P)
    return P, steps.counts, (Lam, 0.5 * (Gram + Gram.T)) if carry else None


def closed_loop_linear(trajectory: Trajectory, lam: float, alphas: np.ndarray) -> dict:
    """Measure the decay bound of a linear closed-loop trajectory from its
    first state v0 at s = its first time, in the model of the Stokes
    eigenvalues alphas and the decay rate lam.

    Reports the weighted-energy constant: the sup over t of
    e^{lam(t-s)}|v|_H^2 plus the running weighted V-energy and dual-norm
    time-derivative integrals, over |v0|_H^2; and the V-version for smooth
    data.
    """
    times, states = trajectory.times, trajectory.states
    dt, s, al, v0 = trajectory.dt, float(times[0]), alphas, states[0]
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

    v0_v2 = float(al @ v0**2)
    v2 = np.sum(al * states**2, axis=1)
    run_dl = np.concatenate([[0.0], np.cumsum(
        dt * w_mid * (np.sum(al**2 * mids**2, axis=1)
                      + np.sum(vdot**2, axis=1)))])
    kappa_v = float(np.max(w * v2 + run_dl) / v0_v2) if v0_v2 else 0.0
    return {"kappa_h": kappa_h, "kappa_v": kappa_v, "s": s,
            "weighted_h_final": float(w[-1] * h2[-1] / v0_h2) if v0_h2 else 0.0}


@dataclass
class OptimalRollout:
    """One start of a shared rollout pass (optimal_rollouts): the
    discretely optimal shifted trajectory of law from v0 at time s, with
    step index s_index = law.index_of(s) and n = law.n_steps - s_index
    steps.  states (n + 1, K) starts at v0, controls (n, M) are the optimal
    eta_m and costs (n,) the stage costs h (|zbar|_C^2 + |eta_m|^2).
    step_inverses counts how the pass obtained each step inverse; the
    rollouts of one pass share it."""

    law: FeedbackLaw
    s: float
    s_index: int
    states: np.ndarray
    controls: np.ndarray
    costs: np.ndarray
    step_inverses: dict

    @property
    def v0(self) -> np.ndarray:
        return self.states[0]


def optimal_rollouts(law: FeedbackLaw, starts) -> list[OptimalRollout]:
    """The discretely optimal rollouts of law from every start (s, v0) of
    starts, in one pass: the starts advance together as the columns of one
    (K, r) block, each joining at its own start step, so every step is
    built and inverted once however many starts share it.

    Step m is built from law.shifted_system(m), the expression the sweep
    built it from, and its control is formed from Q(m+1) alone.  Its
    inverse X = (I + h/2 F_m)^{-1} comes from the pass's InversePath, so no
    step is solved past the first: phi Z = 2 X Z - Z and gam = X h B; with
    W = Q(m+1) + h/4 C and Hee = h I + gam' W gam the sweep's gain makes
    eta = -Hee^{-1} [(W gam)' phi Z + h/4 gam' C Z], and Z+ = phi Z + gam eta.
    """
    starts = [(float(s), np.asarray(v0, float)) for s, v0 in starts]
    first = np.array([law.index_of(s) for s, _ in starts])
    n_T, K, M, dt = law.n_steps, len(law.alphas), law.M, law.dt
    states = np.full((len(starts), n_T + 1, K), np.nan)
    controls = np.full((len(starts), n_T, M), np.nan)
    costs = np.full((len(starts), n_T), np.nan)
    for j, (_, v0) in enumerate(starts):
        states[j, first[j]] = v0
    hB = dt * law.actuator.mat
    qc = 0.25 * dt * law.alphas             # (h/4) C, as a diagonal
    h_eye = dt * np.eye(M)
    path = InversePath()
    for m in range(first.min(), n_T):
        live = np.flatnonzero(first <= m)
        Z = states[live, m].T
        X = path.step(law.shifted_system(m), dt, m)
        phi_Z = 2.0 * (X @ Z) - Z
        gam = X @ hB
        W_gam = law.Q(m + 1) @ gam + qc[:, None] * gam
        Hee = h_eye + gam.T @ W_gam
        eta = -np.linalg.solve(Hee, W_gam.T @ phi_Z + gam.T @ (qc[:, None] * Z))
        Z_next = phi_Z + gam @ eta
        zbar = 0.5 * (Z + Z_next)
        states[live, m + 1] = Z_next.T
        controls[live, m] = eta.T
        costs[live, m] = dt * (law.alphas @ zbar**2 + np.sum(eta**2, axis=0))
    return [OptimalRollout(law=law, s=s, s_index=int(k), states=states[j, k:],
                           controls=controls[j, k:], costs=costs[j, k:],
                           step_inverses=path.counts)
            for j, ((s, _), k) in enumerate(zip(starts, first))]


def dp_check(rollout: OptimalRollout, splits) -> dict:
    """Dynamic-programming splitting of the optimal cost at sampled times,
    along a rollout of optimal_rollouts, from its own start (s, v0).

    Verifies total = running cost to the split plus the value of the tail
    state; equalities hold to round-off because rollout and recursion share
    the same step model.  A split outside [s, T_h] raises ValueError.
    """
    law, s, s_index = rollout.law, rollout.s, rollout.s_index
    z, costs, v0 = rollout.states, rollout.costs, rollout.v0
    total = float(costs.sum())
    value0 = float(v0 @ (law.Q(s_index) @ v0))
    out = {"s": s, "total_cost": total, "value": value0,
           "total_vs_value_rel": abs(total - value0) / (abs(value0) + 1e-300),
           "splits": []}
    for t_split in splits:
        k = law.index_of(t_split) - s_index
        if k < 0:
            raise ValueError(f"split t={t_split} lies before s={s}")
        run = float(costs[:k].sum())
        tail = float(z[k] @ (law.Q(s_index + k) @ z[k]))
        out["splits"].append({
            "t": s + k * law.dt,
            "running_plus_value": run + tail,
            "rel_gap": abs(run + tail - total) / (abs(total) + 1e-300)})
    return out


def optimal_cost_check(rollout: OptimalRollout,
                       decay_steps: int = 0) -> tuple[dict, Trajectory]:
    """Compare (Q(s) w0, w0) with simulated closed-loop costs on [s, T_h]
    from the start (s, w0) of a rollout of optimal_rollouts, and run the
    linear closed loop from (0, w0) over its first decay_steps steps.

    The discrete rollout reproduces the value exactly; the continuous-form
    loop (midpoint gain, trapezoidal cost quadrature) agrees to O(dt^2)
    with a quadratically small sensitivity to the gain representation.
    The loop streams from node 0: step m's X = (I + h/2 F_m)^{-1} comes
    from one InversePath along law.closed_loop_system, so no step matrix is
    stored and none is solved past the first.  From s on, the one state
    advances by phi v = 2 X v - v and each step is priced with its own
    Q_mid; the decay run advances by phi = 2 X - I, v = phi v, as cn_steps
    and Propagator.forward do, so its states are those of
    nonlinear.closed_loop_steps(law, 0, decay_steps dt).run_linear(w0) bit
    for bit.  Returns the report, whose step_inverses counts how each X was
    obtained, and the decay run's Trajectory.
    """
    law, s, s_index, w0 = rollout.law, rollout.s, rollout.s_index, rollout.v0
    if decay_steps > law.n_steps:
        raise ValueError(f"a decay run of {decay_steps} steps exceeds the law's "
                         f"{law.n_steps}")
    value = float(w0 @ (law.Q(s_index) @ w0))
    costs = rollout.costs
    rollout_gap = abs(costs.sum() - value) / (abs(value) + 1e-300)

    dt, lam = law.dt, law.lam
    t_mid = s + dt * np.arange(len(costs)) + 0.5 * dt
    decay = np.empty((decay_steps + 1, len(w0)))
    decay[0] = w0
    eye = np.eye(len(w0))
    v, cost, path = w0, 0.0, InversePath()
    for m in range(law.n_steps):
        F, Q_mid = law.closed_loop_system(m)
        X = path.step(F, dt, m)
        if m < decay_steps:
            decay[m + 1] = (2.0 * X - eye) @ decay[m]
        if m < s_index:
            continue
        v_next = 2.0 * (X @ v) - v
        vm = 0.5 * (v_next + v)
        eta = law.actuator.adjoint(Q_mid @ vm)
        cost += dt * np.exp(lam * (t_mid[m - s_index] - s)) * (
            float(law.alphas @ vm**2) + float(eta @ eta))
        v = v_next
    sim_gap = abs(cost - value) / (abs(value) + 1e-300)
    report = {"s": s, "value": value, "rollout_rel_gap": float(rollout_gap),
              "simulated_cost": float(cost), "simulated_rel_gap": float(sim_gap),
              "step_inverses": path.counts}
    return report, Trajectory(times=dt * np.arange(decay_steps + 1), states=decay)


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


def riccati_residual(law: FeedbackLaw, t_samples) -> dict:
    """Finite-difference residual of the shifted Riccati equation of law.

        dQ/dt = -lam Q + Q L(u) + L(u)' Q + Q (chi P_M chi) Q - diag(alpha)

    evaluated at interior node times with a fourth-order stencil, so the
    reported number reflects the synthesis accuracy, not the differencing.
    Each sample time is read at its nearest node (index_of), and the report
    names that node's time.
    """
    dt, lam = law.dt, law.lam
    nodes, out = [], []
    for t in t_samples:
        m = law.index_of(t)
        if m < 2 or m > law.n_steps - 2:
            raise ValueError(f"sample t={t} too close to the horizon ends")
        Qdot = (law.Q(m - 2) - 8.0 * law.Q(m - 1) + 8.0 * law.Q(m + 1)
                - law.Q(m + 2)) / (12.0 * dt)
        Q = law.Q(m)
        Lmat = law._diag_alpha + law.reference.bmat_at(law.times[m])
        terms = [-lam * Q, Q @ Lmat + Lmat.T @ Q, Q @ law._gram @ Q, -law._diag_alpha]
        res = Qdot - sum(terms)
        scale = sum(np.linalg.norm(x) for x in terms) + 1e-300
        nodes.append(float(law.times[m]))
        out.append(float(np.linalg.norm(res) / scale))
    return {"t": nodes, "rel_residual": out,
            "max_rel_residual": float(max(out))}
