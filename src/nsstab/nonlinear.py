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

from .dynamics import Propagator, Trajectory, bilinear_b, cn_steps
from .errors import StepSolveError
from .feedback import FeedbackLaw, require_memory
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
    m = np.arange(len(t))
    window_sums = cum[np.minimum(m + window, len(cum) - 1)] - cum[m]
    best = np.max(np.exp(lam * t) * v2 + window_sums)
    return float(np.sqrt(best))


@dataclass
class ClosedLoopStepper(Propagator):
    """Step matrices of the feedback loop on [s, s + n_units], with the
    model and decay rate its reports are measured in.

    Built once per run by closed_loop_steps and handed, whole or as a
    prefix view of its steps, to every consumer (linear decay run,
    nonlinear runs, Picard iterates, forced solves, basin sweep), so all of
    them live on the identical discrete flow.
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
        states, blowup_t = self.run_nonlinear_block(np.asarray(v0, float)[None])
        if blowup_t[0] is not None:
            return None, blowup_t[0]
        return Trajectory(times=self.times, states=states[:, 0]), None

    def run_nonlinear_block(self, V0: np.ndarray):
        """run_nonlinear for a block of initial states V0 (B, K) at once.

        Returns (states (n_steps+1, B, K), blow-up time or None per state).
        Each Picard iterate takes one stacked advection call for the states
        still iterating; a state stops when its own increment test passes,
        and a state that leaves its guard BLOWUP_FACTOR * max(1, |v0|) or
        turns non-finite leaves the block (its later rows are NaN) while the
        others carry on.
        """
        V0 = np.asarray(V0, float)
        B, K = V0.shape
        states = np.full((self.n_steps + 1, B, K), np.nan)
        states[0] = V0
        blowup_t = [None] * B
        guard = BLOWUP_FACTOR * np.maximum(1.0, np.linalg.norm(V0, axis=1))
        live = np.arange(B)                 # block rows still being advanced

        def in_guard(v, rows):
            return np.isfinite(v).all(axis=1) & (np.linalg.norm(v, axis=1)
                                                 <= guard[rows])

        for m in range(self.n_steps):
            if not live.size:
                break
            cur = states[m, live]
            phi_t = self.phi[m].T
            v_next = cur @ phi_t
            active = np.arange(live.size)   # positions still iterating
            for _ in range(INNER_CAP):
                # a state outside its guard stops iterating; the check after
                # the loop then takes it out of the block
                active = active[in_guard(v_next[active], live[active])]
                if not active.size:
                    break
                mid = 0.5 * (cur[active] + v_next[active])
                half_b = 0.5 * self.dt * bilinear_b(self.space, mid, mid)
                cand = (cur[active] - half_b) @ phi_t - half_b
                delta = np.max(np.abs(cand - v_next[active]), axis=1)
                v_next[active] = cand
                done = delta <= INNER_TOL * np.maximum(1.0, np.max(np.abs(cand),
                                                                    axis=1))
                active = active[~done]
                if not active.size:
                    break
            else:
                raise StepSolveError(
                    f"inner fixed-point solve did not converge in {INNER_CAP} "
                    f"iterations at t={self.times[m + 1]:.6g} (last increment "
                    f"{np.max(delta[~done]):.3e}); reduce time.dt or the "
                    f"initial amplitude")
            ok = in_guard(v_next, live)
            states[m + 1, live[ok]] = v_next[ok]
            for row in live[~ok]:
                blowup_t[row] = float(self.times[m + 1])
            live = live[ok]
        return states, blowup_t

    def run_xi(self, v0: np.ndarray, a_states: np.ndarray) -> Trajectory:
        """Linear solve forced by the advection of an external trajectory."""
        mids = 0.5 * (a_states[1:] + a_states[:-1])
        return self.run_linear(v0, -bilinear_b(self.space, mids, mids))


def closed_loop_steps(law: FeedbackLaw, s: float, n_units: float) -> ClosedLoopStepper:
    """The law's closed loop on [s, s + n_units], inside its horizon (its
    head): one Crank-Nicolson step per law step of law.closed_loop_system,
    stacked by cn_steps, so only the window's first step is solved.  A step
    stack larger than the available memory is refused with ConfigError
    before anything is allocated."""
    space, dt = law.reference.space, law.dt
    s_index = int(round(s / dt))
    n_steps = int(round(n_units / dt))
    if s_index + n_steps > law.head:
        raise ValueError("simulation window exceeds the synthesized horizon "
                         "or the law's head")
    require_memory(8 * n_steps * space.K**2, "the closed loop's step stack",
                   "lower nonlinear.sim_units or time.n_max (the simulated "
                   "window) or space.K")
    phi = cn_steps(lambda m: law.closed_loop_system(s_index + m)[0],
                   n_steps, dt, space.K)
    return ClosedLoopStepper(tau=s, dt=dt, phi=phi, space=space, lam=law.lam)


def simulate_closed_loop(stepper: ClosedLoopStepper, v0: np.ndarray,
                         eps_gate: float | None = None,
                         theta_cap: float | None = None):
    """Nonlinear closed-loop run with decay measurement.

    Reports theta = sup_t e^{lam t}|v|_V^2 / |v0|_V^2, whether the weighted
    V energy decayed by the end, and the blow-up time if any.  When an
    eps_gate is given, runs outside it are recorded rather than judged.
    """
    v0 = np.asarray(v0, float)
    trajectory, blowup_t = stepper.run_nonlinear(v0)
    v0_v_norm = float(np.sqrt(stepper.space.alphas @ v0**2))
    report = {"blowup_t": blowup_t, "v0_v_norm": v0_v_norm,
              "inside_gate": bool(eps_gate is not None
                                  and v0_v_norm <= eps_gate * (1 + 1e-12))}
    if trajectory is None:
        report.update(theta=float("inf"), decayed=False)
        return None, report
    report.update(decay_report(stepper.space, stepper.lam, trajectory, theta_cap))
    return trajectory, report


def decay_report(space: SpectralSpace, lam: float, trajectory: Trajectory,
                 theta_cap: float | None) -> dict:
    """theta = sup_t e^{lam t}|v|_V^2 / |v0|_V^2 and the decay verdict.

    Decay at rate lam means the weighted V energy stays bounded by a
    moderate multiple (theta_cap) of its initial value all the way to the
    end.  This is the one decay rule of the closed-loop run and the sweep.
    """
    states = trajectory.states
    v0_v2 = float(space.alphas @ states[0]**2)
    t = trajectory.times - trajectory.times[0]
    wv2 = np.exp(lam * t) * np.sum(space.alphas * states**2, axis=1)
    theta = float(np.max(wv2) / v0_v2) if v0_v2 else 0.0
    return {"theta": theta,
            "decayed": bool(np.isfinite(theta)
                            and (theta_cap is None or theta <= theta_cap)),
            "weighted_v_final": float(wv2[-1] / v0_v2) if v0_v2 else 0.0}


def contraction_probe(stepper: ClosedLoopStepper, v0: np.ndarray, rng,
                      pairs: int = 3, max_iter: int = 50) -> dict:
    """Picard iteration of the fixed-point map plus a pairwise Lipschitz probe.

    Starts from the linear closed-loop solution, measures the geometric
    ratio of successive increments in the contraction norm, and checks that
    random admissible pairs contract no worse than the measured ratio with
    10 percent headroom.  Stagnation is reported, not raised.
    """
    v0 = np.asarray(v0, float)
    space, lam = stepper.space, stepper.lam
    a = stepper.run_linear(v0)
    scale = max(zlambda_norm(space, a, lam), 1e-300)
    increments = []
    converged = False
    for _ in range(max_iter):
        a_next = stepper.run_xi(v0, a.states)
        inc = zlambda_norm(space, Trajectory(times=a.times,
                                             states=a_next.states - a.states),
                           lam)
        increments.append(inc)
        a = a_next
        if inc <= 1e-12 * scale:
            converged = True
            break
    ratios = [b / a_ for a_, b in zip(increments, increments[1:]) if a_ > 0]
    gamma_hat = float(max(ratios[:8])) if ratios else 0.0

    pair_ratios = []
    for _ in range(pairs):
        pert1 = _admissible_perturbation(stepper, rng, 0.3 * scale)
        pert2 = _admissible_perturbation(stepper, rng, 0.3 * scale)
        a1 = Trajectory(times=a.times, states=a.states + pert1)
        a2 = Trajectory(times=a.times, states=a.states + pert2)
        gap = zlambda_norm(space, Trajectory(times=a.times,
                                             states=a1.states - a2.states), lam)
        if gap == 0.0:
            continue
        x1 = stepper.run_xi(v0, a1.states)
        x2 = stepper.run_xi(v0, a2.states)
        out = zlambda_norm(space, Trajectory(times=a.times,
                                             states=x1.states - x2.states), lam)
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


def basin_sweep(stepper: ClosedLoopStepper, scales, directions: int, rng,
                theta_cap: float = 1e4) -> dict:
    """Decay outcomes over random unit-V directions at increasing amplitudes.

    All directions x scales advance as one block on the given stepper.  The
    empirical threshold is the largest scale at which every direction
    decays; the outcome transition is recorded, never asserted monotone.
    edge_found says whether any tested amplitude failed to decay: without
    it, epsilon_hat is the top of the tested range (tested_up_to) and only
    a lower bound on the basin.
    """
    scales = sorted(float(s) for s in scales)
    space = stepper.space
    dirs = []
    for _ in range(directions):
        d = rng.standard_normal(space.K)
        v_norm = np.sqrt(space.alphas @ d**2)
        dirs.append(d / v_norm)
    states, blowup_t = stepper.run_nonlinear_block(
        np.array([s * d for d in dirs for s in scales]))
    flat = []
    for i, bt in enumerate(blowup_t):
        if bt is not None:
            flat.append("blowup")
        elif decay_report(space, stepper.lam,
                          Trajectory(times=stepper.times, states=states[:, i]),
                          theta_cap)["decayed"]:
            flat.append("decay")
        else:
            flat.append("no-decay")
    outcomes = [flat[j:j + len(scales)] for j in range(0, len(flat), len(scales))]
    eps_hat = 0.0
    for j, s in enumerate(scales):
        if all(row[j] == "decay" for row in outcomes):
            eps_hat = s
    return {"scales": scales, "outcomes": outcomes,
            "epsilon_hat": float(eps_hat),
            "edge_found": any(o != "decay" for row in outcomes for o in row),
            "tested_up_to": scales[-1]}
