"""Nonlinear closed loop under the synthesized feedback.

The integrator is implicit-midpoint: Crank-Nicolson on the frozen-midpoint
linear part (Stokes + linearization + feedback gain) with the advection
term evaluated at the midpoint state and resolved by an inner fixed-point
iteration.  The companion linear map 'xi' solves the same step with the
advection forcing taken from an external trajectory, so the Picard fixed
point of xi coincides with the nonlinear trajectory to round-off; that is
what makes the contraction probe a genuine verification rather than a
scheme-comparison artifact.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, ReferenceTrajectory, Trajectory, bilinear_b
from .errors import StepSolveError
from .feedback import FeedbackLaw, closed_loop_steps
from .spectral import SpectralSpace

INNER_TOL = 1e-13
INNER_CAP = 50
BLOWUP_FACTOR = 1e6


def zlambda_norm(space: SpectralSpace, trajectory: Trajectory, lam: float) -> float:
    """sup over nodes of e^{lam t}|z|_V^2 plus the one-unit sliding window of
    weighted squared D(L) norms, square-rooted.

    Times are counted from the trajectory start; windows are clipped at the
    final sample, which only lowers the sup (noted in reports).
    """
    t = trajectory.times - trajectory.times[0]
    states = trajectory.states
    dt = trajectory.dt
    v2 = np.sum(space.alphas * states**2, axis=1)
    mids = 0.5 * (states[1:] + states[:-1])
    dl_mid = np.sum(space.alphas**2 * mids**2, axis=1)
    w_mid = np.exp(lam * (t[:-1] + 0.5 * dt))
    window = int(round(1.0 / dt))
    cum = np.concatenate([[0.0], np.cumsum(dt * w_mid * dl_mid)])
    n = len(t)
    best = 0.0
    for m in range(n):
        hi = min(m + window, n - 1)
        val = np.exp(lam * t[m]) * v2[m] + (cum[hi] - cum[m])
        best = max(best, val)
    return float(np.sqrt(best))


@dataclass
class ClosedLoopStepper(Propagator):
    """Cached per-step matrices of the feedback loop on [s, s + n_units].

    Built once and shared by nonlinear runs, Picard iterates, and forced
    linear solves, so all of them live on the identical discrete flow.
    """

    space: SpectralSpace
    lam: float

    @property
    def s(self) -> float:
        return self.tau

    def run_linear(self, v0: np.ndarray,
                   forcing_mid: np.ndarray | None = None) -> Trajectory:
        """Closed-loop solve with optional per-step midpoint forcing."""
        return Trajectory(times=self.times, states=self.forward(v0, forcing_mid))

    def run_nonlinear(self, v0: np.ndarray):
        """Full loop with midpoint-state advection, inner fixed-point solve.

        Returns (Trajectory or None, blowup time or None).  The implicit
        step contracts when dt * |DB(v)| < 1, comfortably true below the
        blow-up guard at desk scale.
        """
        space = self.space
        K = self.phi.shape[1]
        states = np.empty((self.n_steps + 1, K))
        states[0] = v0
        guard = BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(v0)))
        for m in range(self.n_steps):
            base = self.phi[m] @ states[m]
            v_next = base
            for _ in range(INNER_CAP):
                if not np.isfinite(v_next).all() or np.linalg.norm(v_next) > guard:
                    return None, float(self.times[m + 1])
                mid = 0.5 * (states[m] + v_next)
                cand = base - self.dt * (self.plus_inv[m]
                                         @ bilinear_b(space, mid, mid))
                delta = np.max(np.abs(cand - v_next))
                v_next = cand
                if delta <= INNER_TOL * max(1.0, np.max(np.abs(v_next))):
                    break
            else:
                raise StepSolveError(
                    f"inner fixed-point solve did not converge in {INNER_CAP} "
                    f"iterations at t={self.times[m + 1]:.6g} (last increment "
                    f"{delta:.3e}); reduce time.dt or the initial amplitude")
            states[m + 1] = v_next
            if not np.isfinite(v_next).all() or np.linalg.norm(v_next) > guard:
                return None, float(self.times[m + 1])
        return Trajectory(times=self.times, states=states), None

    def run_xi(self, v0: np.ndarray, a_states: np.ndarray) -> Trajectory:
        """Linear solve forced by the advection of an external trajectory."""
        space = self.space
        mids = 0.5 * (a_states[1:] + a_states[:-1])
        forcing = np.array([-bilinear_b(space, am, am) for am in mids])
        return self.run_linear(v0, forcing)


def build_stepper(space: SpectralSpace, traj: ReferenceTrajectory,
                  law: FeedbackLaw, s: float, n_units: float) -> ClosedLoopStepper:
    steps = closed_loop_steps(space, traj, law, s, n_units)
    return ClosedLoopStepper(tau=s, dt=law.dt, plus_inv=steps.plus_inv,
                             phi=steps.phi, space=space, lam=law.lam)


def simulate_closed_loop(space: SpectralSpace, traj: ReferenceTrajectory,
                         law: FeedbackLaw, v0: np.ndarray, n_units: float,
                         eps_gate: float | None = None, theta_cap: float | None = None,
                         stepper: ClosedLoopStepper | None = None):
    """Nonlinear closed-loop run with decay measurement.

    Reports theta = sup_t e^{lam t}|v|_V^2 / |v0|_V^2, whether the weighted
    V energy decayed by the end, and the blow-up time if any.  When an
    eps_gate is given, runs outside it are recorded rather than judged.
    """
    v0 = np.asarray(v0, float)
    st = stepper if stepper is not None else build_stepper(space, traj, law, 0.0, n_units)
    trajectory, blowup_t = st.run_nonlinear(v0)
    v0_v2 = float(space.alphas @ v0**2)
    report = {"blowup_t": blowup_t, "v0_v_norm": float(np.sqrt(v0_v2)),
              "inside_gate": bool(eps_gate is not None
                                  and np.sqrt(v0_v2) <= eps_gate * (1 + 1e-12))}
    if trajectory is None:
        report.update(theta=float("inf"), decayed=False)
        return None, report
    t = trajectory.times - trajectory.times[0]
    wv2 = np.exp(law.lam * t) * np.sum(space.alphas * trajectory.states**2, axis=1)
    theta = float(np.max(wv2) / v0_v2) if v0_v2 else 0.0
    # decay at rate lam means the weighted V energy stays bounded by a
    # moderate multiple of its initial value all the way to the end
    decayed = bool(np.isfinite(theta) and (theta_cap is None or theta <= theta_cap))
    report.update(theta=theta, decayed=decayed,
                  weighted_v_final=float(wv2[-1] / v0_v2) if v0_v2 else 0.0)
    return trajectory, report


def xi_map(space: SpectralSpace, traj: ReferenceTrajectory, law: FeedbackLaw,
           v0: np.ndarray, a: Trajectory,
           stepper: ClosedLoopStepper | None = None) -> Trajectory:
    """One application of the fixed-point map: solve the loop with the
    advection forcing -B(a, a) taken from the given trajectory."""
    st = stepper if stepper is not None else build_stepper(
        space, traj, law, 0.0, (len(a.times) - 1) * a.dt)
    return st.run_xi(np.asarray(v0, float), a.states)


def contraction_probe(space: SpectralSpace, traj: ReferenceTrajectory,
                      law: FeedbackLaw, v0: np.ndarray, n_units: float,
                      rng, pairs: int = 3, max_iter: int = 50,
                      stepper: ClosedLoopStepper | None = None) -> dict:
    """Picard iteration of the fixed-point map plus a pairwise Lipschitz probe.

    Starts from the linear closed-loop solution, measures the geometric
    ratio of successive increments in the contraction norm, and checks that
    random admissible pairs contract no worse than the measured ratio with
    10 percent headroom.  Stagnation is reported, not raised.
    """
    v0 = np.asarray(v0, float)
    st = stepper if stepper is not None else build_stepper(space, traj, law,
                                                           0.0, n_units)
    a = st.run_linear(v0)
    scale = max(zlambda_norm(space, a, law.lam), 1e-300)
    increments = []
    converged = False
    for _ in range(max_iter):
        a_next = st.run_xi(v0, a.states)
        inc = zlambda_norm(space, Trajectory(times=a.times,
                                             states=a_next.states - a.states),
                           law.lam)
        increments.append(inc)
        a = a_next
        if inc <= 1e-12 * scale:
            converged = True
            break
    ratios = [b / a_ for a_, b in zip(increments, increments[1:]) if a_ > 0]
    gamma_hat = float(max(ratios[:8])) if ratios else 0.0

    pair_ratios = []
    for _ in range(pairs):
        pert1 = _admissible_perturbation(st, rng, 0.3 * scale)
        pert2 = _admissible_perturbation(st, rng, 0.3 * scale)
        a1 = Trajectory(times=a.times, states=a.states + pert1)
        a2 = Trajectory(times=a.times, states=a.states + pert2)
        gap = zlambda_norm(space, Trajectory(times=a.times,
                                             states=a1.states - a2.states), law.lam)
        if gap == 0.0:
            continue
        x1 = st.run_xi(v0, a1.states)
        x2 = st.run_xi(v0, a2.states)
        out = zlambda_norm(space, Trajectory(times=a.times,
                                             states=x1.states - x2.states), law.lam)
        pair_ratios.append(out / gap)
    return {"gamma_hat": gamma_hat, "iterations": len(increments),
            "converged": converged, "fixed_point": a,
            "pair_ratios": pair_ratios,
            "pairs_within_headroom": bool(all(r <= gamma_hat * 1.1
                                              for r in pair_ratios))}


def _admissible_perturbation(st: ClosedLoopStepper, rng, amplitude: float):
    """Smooth trajectory perturbation vanishing at t = 0 (fixed data)."""
    t = st.times - st.times[0]
    K = st.phi.shape[1]
    envelope = np.sin(np.pi * np.minimum(t, 1.0) / 2.0) * np.exp(-st.lam * t / 2.0)
    direction = rng.standard_normal(K)
    direction /= np.linalg.norm(direction)
    wobble = np.cos(np.outer(t, 1.0 + rng.uniform(0, 2, K)))
    return amplitude * envelope[:, None] * wobble * direction[None, :]


def duhamel_bound_check(space: SpectralSpace, traj: ReferenceTrajectory,
                        law: FeedbackLaw, forcings, n_units: float,
                        stepper: ClosedLoopStepper | None = None) -> dict:
    """Verify the discrete variation-of-constants identity and measure the
    forced-response constant.

    For each forcing batch entry (per-step midpoint samples), compares the
    endpoint of the direct forced solve against the superposition
    dt * sum_m stages[m]' f_m of pulse responses from the adjoint sweep,
    then reports the ratio of the contraction-norm energy of the response
    to the sliding-window weighted forcing energy.
    """
    st = stepper if stepper is not None else build_stepper(space, traj, law,
                                                           0.0, n_units)
    n, K = st.n_steps, st.phi.shape[1]
    dt, lam = st.dt, st.lam
    window = int(round(1.0 / dt))
    # stages[m].T is the endpoint response to a unit pulse at step m
    _, stages = st.adjoint_block(np.eye(K))
    identity_gap = 0.0
    ratios = []
    for f in forcings:
        f = np.asarray(f, float)
        direct = st.run_linear(np.zeros(K), f)
        superposed = dt * np.einsum("mij,mi->j", stages, f)
        identity_gap = max(identity_gap,
                           float(np.max(np.abs(superposed - direct.endpoint()))))
        t_mid = (st.times[:-1] - st.times[0]) + 0.5 * dt
        wf = np.exp(2.0 * lam * t_mid) * np.sum(f**2, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(dt * wf)])
        sliding = max(cum[min(m + window, n)] - cum[m] for m in range(n))
        lhs = zlambda_norm(space, direct, lam) ** 2
        ratios.append(lhs / max(sliding, 1e-300))
    return {"identity_max_gap": identity_gap,
            "forced_response_constants": ratios,
            "C1": float(max(ratios)) if ratios else 0.0}


def basin_sweep(space: SpectralSpace, traj: ReferenceTrajectory,
                law: FeedbackLaw, scales, directions: int, n_units: float,
                rng, theta_cap: float = 1e4) -> dict:
    """Decay outcomes over random unit-V directions at increasing amplitudes.

    The empirical threshold is the largest scale at which every direction
    decays; the outcome transition is recorded, never asserted monotone.
    """
    scales = sorted(float(s) for s in scales)
    st = build_stepper(space, traj, law, 0.0, n_units)
    dirs = []
    for _ in range(directions):
        d = rng.standard_normal(space.K)
        v_norm = np.sqrt(space.alphas @ d**2)
        dirs.append(d / v_norm)
    outcomes = []
    for d in dirs:
        row = []
        for s in scales:
            _, rep = simulate_closed_loop(space, traj, law, s * d, n_units,
                                          theta_cap=theta_cap, stepper=st)
            if rep["blowup_t"] is not None:
                row.append("blowup")
            elif rep["decayed"]:
                row.append("decay")
            else:
                row.append("no-decay")
        outcomes.append(row)
    eps_hat = 0.0
    for j, s in enumerate(scales):
        if all(row[j] == "decay" for row in outcomes):
            eps_hat = s
    return {"scales": scales, "outcomes": outcomes,
            "epsilon_hat": float(eps_hat)}
