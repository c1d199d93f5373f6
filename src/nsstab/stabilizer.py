"""Interval-concatenated stabilizing control for the linearized flow.

Applies the minimal-norm null-projection control anew on every unit
interval, so the projection onto the leading modes vanishes at integer
times and the complement is damped by the spectral gap.  The cutoff N is
chosen empirically: the smallest one whose measured one-interval closed
map contracts by e^{-lambda/2} in the H norm, found by trying N = 0, 1,
2, ... in order, since that contraction is not monotone in N (the symbolic
eigenvalue threshold is evaluated with measured constants and reported
alongside it in stabilize.json).
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ReferenceTrajectory, Trajectory, build_propagator
from .errors import ResolutionTooSmallError
from .null_control import (
    DEFAULT_NULL_TOL,
    ControlSignal,
    ReachabilityBundle,
    build_reachability,
    null_coefficients,
)
from .observability import build_forms, select_m1
from .quadmin import DEFAULT_PINV_RTOL, pinv_psd
from .spectral import Actuator, ChiMask, build_actuator


def null_closed_map(total: np.ndarray, endpoints: np.ndarray,
                    gramian_pinv: np.ndarray) -> np.ndarray:
    """A - E G^+ A[:N]: the free endpoint map A = total (Propagator.total)
    corrected by the minimal-norm null control, given the endpoint
    responses E (K, N) to the N leading-direction controls and the
    pseudoinverse G^+ (N, N) of their Gramian."""
    return total - endpoints @ (gramian_pinv @ total[: gramian_pinv.shape[0]])


@dataclass
class CutoffChoice:
    N: int
    M1: int | None
    lam: float                      # the decay rate the cutoff was chosen for
    contraction: float              # max one-interval factor over the horizon
    per_interval: list
    symbolic_threshold: dict = field(default_factory=dict)


class CutoffSearch:
    """The interval layer of one run: every adjoint block sweep of the unit
    intervals, every actuator, and the cutoff measurements shared by every
    decay rate.

    Holds the unit-interval propagators on [0, n_max] (`propagators[n]` on
    [n, n + 1]) and the measurement of each cutoff N tried (`measured`).  A
    measurement (M1 report and per-interval closed-map norms) does not
    depend on lambda, so choosing for several rates measures each N once.

    The cutoffs are tried in order, N = 0, 1, ..., n_top = min(K, N_cap).
    The columns of a smaller cutoff are the leading columns of a larger one,
    so the first measurement runs one adjoint sweep per unit interval over
    the n_top leading directions and keeps, per interval, for every listed M
    that some cutoff selects as M1, the Gramian of those directions and
    their endpoint responses (`tables`).  Each cutoff is then measured on leading blocks
    of these tables, with the M1 report that select_m1 gives on the leading
    blocks of the interval-0 observability forms (`observability_report`);
    the forms themselves are not kept, but the interval-0 stage duals they
    were built from are.  Measuring cutoff N keeps the pseudoinverse of
    each interval's Gramian block (`gramian_pinvs[N]`).

    `actuator(M)` builds each actuator once per run, for the forms, the
    tables, the stabilize run, the null-control bundle and the feedback law
    alike.
    `reachability(N, M)` builds interval 0's bundle from the kept stage
    duals, and `stabilize` reads its Gramians and their pseudoinverses from
    the tables, so no other block sweep of these intervals runs.
    """

    def __init__(self, traj: ReferenceTrajectory, chi: ChiMask, M_list,
                 n_max: int = 6, dt: float = 1.0 / 128, slack: float = 2.0,
                 pinv_rtol: float = DEFAULT_PINV_RTOL, N_cap: int | None = None):
        self.space, self.traj, self.chi = traj.space, traj, chi
        self.M_list, self.dt, self.slack, self.pinv_rtol = M_list, dt, slack, pinv_rtol
        self.n_top = min(self.space.K, N_cap) if N_cap else self.space.K
        self.propagators = [build_propagator(self.space, traj, float(n), dt)
                            for n in range(n_max)]
        self.measured: dict = {}
        self.tables: dict = {}      # M -> (gramians (n_int, n_top, n_top),
                                    #       endpoints (n_int, K, n_top))
        self.gramian_pinvs: dict = {}   # N -> pinv of G[:N, :N] per interval
        self._actuators: dict = {}  # M -> Actuator
        self._reports: dict = {}    # N -> select_m1 report
        self._stages0 = None        # interval 0's stage duals (n_steps, K, n_top)

    def actuator(self, M: int) -> Actuator:
        """The actuator of control dimension M, built at most once per run."""
        if M not in self._actuators:
            self._actuators[M] = build_actuator(self.space, self.chi, M)
        return self._actuators[M]

    def measure(self, N: int):
        """(M1 report, per-interval closed-map norms) for cutoff N."""
        if N not in self.measured:
            self.measured[N] = self._contraction(N)
        return self.measured[N]

    def observability_report(self, N: int) -> dict:
        """The select_m1 report of the interval-0 forms on the first N modes,
        1 <= N <= n_top, as the sweep made it (M1 may be None)."""
        self._swept(N)
        return self._reports[N]

    def reachability(self, N: int, M: int) -> ReachabilityBundle:
        """Interval 0's reachability bundle on the first N directions,
        1 <= N <= n_top, with the actuator of M: a view of the leading N
        columns of the sweep's interval-0 stage duals."""
        self._swept(N)
        return build_reachability(self.actuator(M), self._stages0[..., :N],
                                  self.propagators[0], self.pinv_rtol)

    def _swept(self, N):
        if not 1 <= N <= self.n_top:
            raise ValueError(f"cutoff N={N} outside [1, {self.n_top}]")
        if self._stages0 is None:
            self._sweep()

    def _sweep(self):
        space, props, n_top = self.space, self.propagators, self.n_top
        Q1 = np.eye(space.K)[:, :n_top]
        for i, prop in enumerate(props):
            nodes, stages = prop.adjoint_block(Q1)
            if i == 0:
                forms = build_forms(space, self.chi, self.actuator(max(self.M_list)),
                                    self.M_list, self.dt, (nodes, stages))
                self._reports = {N: select_m1(forms.leading(N), self.slack,
                                              self.pinv_rtol)
                                 for N in range(1, n_top + 1)}
                M1s = sorted({r["M1"] for r in self._reports.values()} - {None})
                grams = {M: self.actuator(M).gram for M in M1s}
                self.tables = {M: (np.empty((len(props), n_top, n_top)),
                                   np.empty((len(props), space.K, n_top)))
                               for M in M1s}
                self._stages0 = stages
            for M, (gramians, endpoints) in self.tables.items():
                inputs = grams[M] @ stages               # (n_steps, K, n_top)
                gramians[i] = self.dt * np.tensordot(stages, inputs, ([0, 1], [0, 1]))
                endpoints[i] = prop.forward(np.zeros((space.K, n_top)), inputs)[-1]
            del nodes, stages           # freed before the next interval's sweep

    def _contraction(self, N):
        props = self.propagators
        if N == 0:
            return None, [float(np.linalg.norm(prop.total, 2)) for prop in props]
        rep = self.observability_report(N)
        if rep["M1"] is None:
            M, m_max = rep.get("M_extrapolated"), len(self.space.betas)
            fix = ("the untruncated constant is infinite: raise chi.radius" if M is None
                   else f"add its extrapolated M1 = {M} to control.M_list"
                   + (f" and raise space.m_max from {m_max} to {M}" if M > m_max else ""))
            raise ResolutionTooSmallError(
                f"no listed control dimension observes the first {N} modes; {fix}")
        gramians, endpoints = self.tables[rep["M1"]]
        pinvs = [pinv_psd(G[:N, :N], self.pinv_rtol)[0] for G in gramians]
        self.gramian_pinvs[N] = pinvs
        factors = [float(np.linalg.norm(null_closed_map(
            prop.total, endpoints[i][:, :N], pinvs[i]), 2))
            for i, prop in enumerate(props)]
        return rep, factors

    def choose(self, lam: float) -> CutoffChoice:
        """The first cutoff N = 0, 1, ..., n_top whose measured one-interval
        contraction is <= e^{-lam/2}; the contraction is not monotone in N,
        so every smaller cutoff is tried first.  Raises
        ResolutionTooSmallError when none delivers the requested rate.
        """
        if lam <= 0:
            raise ValueError("decay rate lambda must be positive")
        space, n_top = self.space, self.n_top
        target = float(np.exp(-lam / 2.0))
        for N in range(n_top + 1):
            rep, factors = self.measure(N)
            if max(factors) <= target:
                break
        else:
            raise ResolutionTooSmallError(
                f"no cutoff up to {n_top} achieves the one-interval factor "
                f"{target:.3e} for lambda={lam}; raise K or lower lambda")

        alpha_next = float(space.alphas[N]) if N < space.K else float("inf")
        symbolic = {
            "alpha_next": alpha_next,
            "e_lambda": float(np.exp(lam)),
            "C_chi_prime": (4.0 * rep["D_table"][rep["M1"]] * self.chi.sup_norm**2
                            if rep is not None else 0.0),
        }
        return CutoffChoice(N=N, M1=(rep["M1"] if rep else None), lam=lam,
                            contraction=max(factors), per_interval=factors,
                            symbolic_threshold=symbolic)


@dataclass
class StabilizationRun:
    lam: float
    N: int
    M1: int | None
    v0: np.ndarray
    trajectory: Trajectory
    controls: list                      # one ControlSignal per unit interval
    kappa1: float
    kappa3: float
    kappa3_smoothing: float
    integer_h_norms: np.ndarray         # |v(n)|_H at n = 0..n_max
    projection_defects: np.ndarray      # |Pi_N v(n)| at n = 1..n_max

    def summary(self) -> dict:
        return {"N": self.N, "M1": self.M1, "lambda": self.lam,
                "kappa1": self.kappa1, "kappa3": self.kappa3,
                "kappa3_smoothing": self.kappa3_smoothing,
                "projection_defect_max": float(np.max(self.projection_defects)),
                "integer_decay_ok": bool(np.all(
                    self.integer_h_norms[1:] ** 2
                    <= np.exp(-self.lam * np.arange(1, len(self.integer_h_norms)))
                    * self.integer_h_norms[0] ** 2 * (1 + 1e-10)))}


def stabilize(search: CutoffSearch, choice: CutoffChoice, v0: np.ndarray,
              null_tol: float = DEFAULT_NULL_TOL) -> StabilizationRun:
    """Concatenate minimal-norm interval controls from v0 over the search's
    unit intervals, at the cutoff and decay rate of choice.

    On interval [n, n + 1] with free endpoint map A, the Gramian coefficients
    g = -G^+ (A v)[:N] come from the Gramian G of the N leading directions
    and its pseudoinverse, both read from the search.  The minimal-norm
    control is the actuator image of the dual state they start,
    eta = P_M1(chi q) with q the adjoint sweep of the terminal datum [g; 0]
    (the Hilbert Uniqueness Method form), so each interval adds one
    single-vector sweep to the search's block sweeps.  Interval joints
    reuse the previous endpoint exactly.  Measures kappa1 (weighted H
    decay), kappa3 (weighted V decay from t >= 1) and its sqrt(t)-smoothing
    variant on the first interval.
    """
    space, lam, N = search.space, choice.lam, choice.N
    v0 = np.asarray(v0, float)
    if N:
        act = search.actuator(choice.M1)
        gramians = search.tables[choice.M1][0]
        pinvs = search.gramian_pinvs[N]

    times = [np.array([0.0])]
    states = [v0[None, :]]
    controls = []
    proj_defects = []
    int_norms = [np.linalg.norm(v0)]
    v = v0.copy()
    for i, prop in enumerate(search.propagators):
        if N:
            g = null_coefficients(gramians[i][:N, :N], pinvs[i], (prop.total @ v)[:N],
                                  v, act.M, null_tol)
            _, stages = prop.adjoint_block(np.concatenate([g, np.zeros(space.K - N)]))
            values = stages @ act.mat                    # (n_steps, M1)
            inputs = values @ act.mat.T
        else:
            values, inputs = np.zeros((prop.n_steps, 1)), None
        seg = prop.forward(v, inputs)
        controls.append(ControlSignal(tau=prop.tau, dt=prop.dt, values=values))
        times.append(prop.times[1:])
        states.append(seg[1:])
        v = seg[-1]
        int_norms.append(np.linalg.norm(v))
        proj_defects.append(np.linalg.norm(v[:N]) if N else 0.0)

    trajectory = Trajectory(times=np.concatenate(times), states=np.vstack(states))
    t = trajectory.times
    h2 = np.sum(trajectory.states**2, axis=1)
    v2 = np.sum(space.alphas * trajectory.states**2, axis=1)
    v0_h2 = float(v0 @ v0)
    v0_v2 = float(space.alphas @ v0**2)
    kappa1 = float(np.max(np.exp(lam * t) * h2) / v0_h2) if v0_h2 else 0.0
    late = t >= 1.0 - 1e-12
    kappa3 = (float(np.max(np.exp(lam * t[late]) * v2[late]) / v0_v2)
              if v0_v2 else 0.0)
    early = t <= 1.0 + 1e-12
    kappa3_s = (float(np.max(t[early] * np.exp(lam * t[early]) * v2[early]) / v0_h2)
                if v0_h2 else 0.0)
    return StabilizationRun(lam=lam, N=N, M1=choice.M1, v0=v0,
                            trajectory=trajectory, controls=controls,
                            kappa1=kappa1, kappa3=kappa3, kappa3_smoothing=kappa3_s,
                            integer_h_norms=np.array(int_norms),
                            projection_defects=np.array(proj_defects))


def weighted_control_norm(run: StabilizationRun, lam_tilde: float) -> float:
    """kappa2: squared weighted control energy over the initial H energy.

    Measures |e^{(lam_tilde/2) t} eta|_{L2}^2 / |v0|_H^2 for the
    concatenated control; diverges as lam_tilde approaches the decay rate.
    """
    if not 0.0 <= lam_tilde < run.lam:
        raise ValueError("weight rate must lie in [0, lambda)")
    v0_h2 = float(run.v0 @ run.v0)
    if v0_h2 == 0.0:
        return 0.0
    total = sum(c.weighted_norm_sq(lam_tilde) for c in run.controls)
    return float(total / v0_h2)
