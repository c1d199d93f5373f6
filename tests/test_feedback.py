"""Weighted LQ synthesis: scalar oracles, DP identities, decay, residuals."""

import copy
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from nsstab import dynamics, feedback
from nsstab.dynamics import taylor_green_reference, zero_reference
from nsstab.errors import ConfigError, RiccatiBlowupError
from nsstab.feedback import (
    closed_loop_linear,
    doubled_horizon_increment,
    doubled_tail_value,
    dp_check,
    horizon_gate,
    lyapunov_check,
    optimal_cost_check,
    optimal_rollouts,
    riccati_residual,
    riccati_solve,
    unpack_symmetric,
)
from nsstab.nonlinear import closed_loop_steps
from nsstab.spectral import ChiMask, build_actuator, build_space

from oracles import (
    apply_chi_pm,
    gain_apply,
    optimal_cost_check_stored,
    optimal_rollout_stored,
    riccati_two_matrix,
    riccati_two_sweep,
    sampled_continuity,
    scalar_are_root,
    shifted_steps,
    sweep_stored,
    uniform_mask,
)

DT = 1.0 / 128


def zero_mask(space):
    vals = np.zeros((space.n, space.n))
    return ChiMask(values=vals, center=(0, 0), radius=0.1, rho=0.1, sup_norm=0.0)


@pytest.fixture(scope="module")
def scalar_law():
    """Frozen reference, uniform mask: every mode decouples to a scalar problem."""
    space = build_space(nu=1.0, K=4, n=16)
    ref = zero_reference(space, horizon=24.0)
    act = build_actuator(space, uniform_mask(space), M=8)
    law = riccati_solve(ref, lam=0.5, actuator=act, T_h=12.0, dt=DT)
    return space, ref, act, law


@pytest.fixture(scope="module")
def tg_law():
    """Time-varying reference, localized mask: the generic synthesis instance."""
    space = build_space(nu=0.6, K=24, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=15.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    act = build_actuator(space, chi, M=32)
    law = riccati_solve(ref, lam=1.0, actuator=act, T_h=14.0, dt=DT)
    return space, ref, chi, act, law


@pytest.fixture(scope="module")
def tg_phi(tg_law):
    """The stored shifted step stack of tg_law (the reference path)."""
    space, ref, _, _, law = tg_law
    return shifted_steps(space, ref, law.lam, 0, law.n_steps, law.dt)


@pytest.fixture(scope="module")
def tg_gains(tg_law, tg_phi):
    """Gains of tg_law's instance from the stored-step sweep, one solve per
    gain system (the law stores none)."""
    space, _, _, act, law = tg_law
    Qt = np.empty((law.n_steps + 1, space.K, space.K))
    gains = np.empty((law.n_steps, act.M, space.K))
    sweep_stored(np.zeros((space.K, space.K)), tg_phi, act.mat, law.dt,
                 space.alphas, law.lam, 1e8, Qt=Qt, gains=gains)
    return gains


def rollout(law, s, v0):
    """The one-start rollout pass of law from v0 at s."""
    (one,) = optimal_rollouts(law, [(s, v0)])
    return one


def rollout_controls(law, gains):
    """(controls the rollout pass forms, -gains[m] z_m): the pass from s = 0
    over the K unit states, so every column of each gain is applied."""
    K = len(law.alphas)
    runs = optimal_rollouts(law, [(0.0, e) for e in np.eye(K)])
    z = np.stack([r.states[:-1] for r in runs], axis=-1)          # (n_T, K, K)
    got = np.stack([r.controls for r in runs], axis=-1)           # (n_T, M, K)
    return got, -np.einsum("mij,mjk->mik", gains, z)


def gate_instance(K=24, M=32, T_h=14.0):
    """tg_law's instance on a reference long enough for the 2 T_h gate."""
    space = build_space(nu=0.6, K=K, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=2 * T_h)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    return space, ref, build_actuator(space, chi, M=M)


class TestRiccatiSolve:
    def test_uncontrolled_stable_mode_lyapunov_limit(self, scalar_law):
        space, ref, _, _ = scalar_law
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(ref, lam=0.5, actuator=act0, T_h=12.0, dt=DT)
        a = space.alphas[0] - 0.25          # positive shifted decay rate
        want = space.alphas[0] / (2.0 * a)
        assert law.Q(0)[0, 0] == pytest.approx(want, rel=1e-6)

    def test_controlled_scalar_matches_are_root(self, scalar_law):
        space, _, act, law = scalar_law
        for j in range(space.K):
            drift = 0.25 - space.alphas[j]
            want = scalar_are_root(drift, act.gram[j, j], space.alphas[j])
            assert law.Q(0)[j, j] == pytest.approx(want, rel=1e-6)
        offdiag = law.Q(0) - np.diag(np.diag(law.Q(0)))
        assert np.max(np.abs(offdiag)) < 1e-12

    def test_lambda_zero_stationary_residual(self, scalar_law):
        # unweighted problem: the converged tail solves the algebraic
        # equation to round-off plus horizon truncation
        space, ref, act, _ = scalar_law
        law = riccati_solve(ref, lam=0.0, actuator=act, T_h=12.0, dt=DT)
        assert np.max(np.abs(law.Q(128) - law.Q(256))) < 1e-9
        rep = riccati_residual(law, [1.0, 2.0, 4.0])
        assert rep["max_rel_residual"] <= 1e-8

    def test_psd_at_every_sampled_time(self, tg_law):
        *_, law = tg_law
        for m in range(0, law.n_steps + 1, 64):
            assert np.linalg.eigvalsh(law.Q(m)).min() >= -1e-10

    def test_norm_of_shifted_operator_uniform(self, tg_law):
        *_, law = tg_law
        norms = [np.linalg.norm(law.Q(m), 2) for m in range(0, law.n_steps, 128)]
        assert np.isfinite(norms).all()
        assert max(norms) < 1e3

    def test_blowup_reports_not_stabilizable(self):
        space = build_space(nu=0.3, K=4, n=16)
        ref = zero_reference(space, horizon=20.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        with pytest.raises(RiccatiBlowupError):
            riccati_solve(ref, lam=2.0, actuator=act0, T_h=18.0, dt=1.0 / 64)
        # the doubled horizon crosses the cap where the law's and its tail's
        # do not: the gate refuses its Q_2T(0)
        law = riccati_solve(ref, lam=2.0, actuator=act0, T_h=9.0, dt=1.0 / 64)
        D = doubled_tail_value(ref, 2.0, act0, 9.0, 1.0 / 64)
        with pytest.raises(RiccatiBlowupError, match="cap"):
            horizon_gate(law, D)

    def test_non_finite_operator_reports_its_time(self, monkeypatch):
        # np.linalg.solve returns NaN for a NaN step rather than raising, so
        # the cap check alone stops the sweep, at the step that went bad
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        shifted_system = feedback.FeedbackLaw.shifted_system
        bad = 40

        def poisoned(law, m):
            F = shifted_system(law, m)
            if m == bad:
                F[0, 1] = np.nan
            return F
        monkeypatch.setattr(feedback.FeedbackLaw, "shifted_system", poisoned)
        with pytest.raises(RiccatiBlowupError, match=f"t={bad / 32:.3f};"):
            riccati_solve(ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)

    def test_horizon_gate_recorded_and_shrinking(self, scalar_law):
        space, ref, act, _ = scalar_law
        law = riccati_solve(ref, lam=0.5, actuator=act, T_h=6.0, dt=1.0 / 64)
        gate = horizon_gate(law, doubled_tail_value(ref, 0.5, act, 6.0, 1.0 / 64))
        assert gate["T_h"] == 6.0
        assert gate["rel_change"] <= 1e-6

    def test_matches_two_matrix_model(self, tg_law):
        space, ref, _, act, law = tg_law
        Qt, gains = riccati_two_matrix(space, ref, law.lam, act, law.T_h, law.dt)
        got = unpack_symmetric(law.Q_packed)
        assert np.linalg.norm(got - Qt) <= 1e-10 * np.linalg.norm(Qt)
        got, want = rollout_controls(law, gains)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_rejects_bad_horizon(self, scalar_law):
        space, ref, act, _ = scalar_law
        with pytest.raises(ValueError):
            riccati_solve(ref, lam=0.5, actuator=act, T_h=100.0, dt=DT)
        with pytest.raises(ValueError, match="horizon"):
            doubled_tail_value(ref, 0.5, act, 13.0, DT)

    def test_horizon_gate_equals_explicit_doubled_solve(self):
        # the gate's tail value is the sweep of the synthesis on [0, 2 T_h]
        # over [T_h, 2 T_h], so it agrees exactly with that synthesis at
        # T_h; the identity continues it to 0, which agrees to round-off
        space = build_space(nu=0.6, K=12, n=16)
        ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=8.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=16)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=3.0, dt=1.0 / 64)
        double = riccati_solve(ref, lam=1.0, actuator=act, T_h=6.0,
                               dt=1.0 / 64)
        D = doubled_tail_value(ref, 1.0, act, 3.0, 1.0 / 64)
        assert np.array_equal(D, double.Q(law.n_steps))
        double_Q0 = law.Q(0) + doubled_horizon_increment(law, D)
        den = max(np.linalg.norm(double.Q(0)), 1e-300)
        assert np.linalg.norm(double_Q0 - double.Q(0)) <= 1e-13 * den
        num = np.linalg.norm(double.Q(0) - law.Q(0))
        assert abs(horizon_gate(law, D)["rel_change"] - float(num / den)) <= 1e-13

    def test_one_loop_law_equals_two_sweep_oracle(self):
        # law and gate tail each advance through steps built in their one
        # loop; the stored-stack path of one solve per step and per gain
        # system, which sweeps the law's stack a second time from the
        # tail's value, agrees to round-off (the loops refine both inverses
        # from the neighbouring step's instead, and the gate continues the
        # tail's value to 0 through the law's carry)
        space, ref, act = gate_instance(K=12, M=16, T_h=3.0)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=3.0, dt=1.0 / 64)
        got_D = doubled_tail_value(ref, 1.0, act, 3.0, 1.0 / 64)
        got_Q0 = law.Q(0) + doubled_horizon_increment(law, got_D)
        Qt, gains, D, double_Q0 = riccati_two_sweep(space, ref, 1.0, act, 3.0,
                                                    1.0 / 64)
        for got, want in ((unpack_symmetric(law.Q_packed), Qt),
                          rollout_controls(law, gains), (got_D, D),
                          (got_Q0, double_Q0)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        num = np.linalg.norm(double_Q0 - Qt[0])
        assert horizon_gate(law, got_D)["rel_change"] == pytest.approx(
            float(num / np.linalg.norm(double_Q0)), rel=1e-12)

    @pytest.mark.parametrize("T_h", [0.5, 2.0, 7.0])
    def test_gate_identity_fails_on_wrong_inputs(self, T_h):
        # Q_2T(0) from the law's carry and the tail value D agrees with the
        # explicit doubled solve to round-off; a carry without its Gramian,
        # or a doubled D, moves it far beyond that, and a non-finite D is
        # refused as a blow-up
        space, ref, act = gate_instance(T_h=T_h)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=T_h, dt=DT)
        D = doubled_tail_value(ref, 1.0, act, T_h, DT)
        want = riccati_solve(ref, lam=1.0, actuator=act, T_h=2 * T_h, dt=DT).Q(0)

        def gap(law, D):
            got = law.Q(0) + doubled_horizon_increment(law, D)
            return np.linalg.norm(got - want) / np.linalg.norm(want)
        assert gap(law, D) <= 1e-13
        no_gramian = dataclasses.replace(law, gramian=np.zeros_like(law.gramian))
        assert gap(no_gramian, D) > 1e-4
        assert gap(law, 2.0 * D) > 1e-4
        gate = horizon_gate(law, D)
        assert np.linalg.norm(doubled_horizon_increment(law, D), 2) <= (
            gate["transition_norm"] ** 2 * gate["tail_value_norm"])
        for bad in (np.nan, np.inf):
            poisoned = D.copy()
            poisoned[0, 1] = bad
            with pytest.raises(RiccatiBlowupError, match="cost operator exceeded cap"):
                horizon_gate(law, poisoned)

    def test_solves_only_the_first_step_of_a_gated_synthesis(self, monkeypatch):
        # every later step refines the neighbouring step's inverse; the gain
        # system is solved once per sweep, at its first step
        space, ref, act = gate_instance(K=12, M=16, T_h=1.0)
        solved = []
        cn_solve = dynamics._cn_solve

        def solve_spy(lhs, rhs, m):
            solved.append((lhs.shape, m))
            return cn_solve(lhs, rhs, m)
        monkeypatch.setattr(dynamics, "_cn_solve", solve_spy)
        for _ in range(2):          # a second synthesis starts afresh
            solved.clear()
            law = riccati_solve(ref, lam=1.0, actuator=act, T_h=1.0, dt=DT)
            n_T = law.n_steps
            assert solved == [((12, 12), n_T - 1), ((16, 16), n_T - 1)]
            solved.clear()
            doubled_tail_value(ref, 1.0, act, 1.0, DT)
            assert solved == [((12, 12), 2 * n_T - 1), ((16, 16), 2 * n_T - 1)]

    def test_builds_each_step_once_per_sweep_and_stores_none(self, monkeypatch):
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        built, stacks, packed = [], [], []
        step = dynamics.InversePath.step
        cn_steps = dynamics.cn_steps
        pack = feedback.pack_symmetric

        def step_spy(path, F, dt, m):
            built.append(m)
            return step(path, F, dt, m)

        def stack_spy(*args):
            stacks.append(args)
            return cn_steps(*args)
        monkeypatch.setattr(dynamics.InversePath, "step", step_spy)
        monkeypatch.setattr(dynamics, "cn_steps", stack_spy)
        monkeypatch.setattr(feedback, "cn_steps", stack_spy, raising=False)
        monkeypatch.setattr(feedback, "pack_symmetric",
                            lambda P: packed.append(P) or pack(P))
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)
        n_T = law.n_steps
        assert built == list(range(n_T - 1, -1, -1))
        assert len(packed) == n_T
        built.clear(), packed.clear()
        doubled_tail_value(ref, 1.0, act, 2.0, 1.0 / 32)
        assert built == list(range(2 * n_T - 1, n_T - 1, -1))
        assert stacks == packed == []

    @pytest.mark.parametrize("dt", [DT, 1.0 / 32])
    def test_sweeps_take_one_update_past_their_first_steps(self, inverse_paths, dt):
        # counts, not timings, guard the gain: at dt = 1/128 each step of
        # the law's and the gate tail's sweeps past their first three takes one
        # Newton-Schulz update; at dt = 1/32 the gain systems move faster,
        # and only the terminal layer's first three of a sweep are solved
        space, ref, act = gate_instance(K=12, M=16, T_h=1.0)
        paths = inverse_paths(feedback)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=1.0, dt=dt)
        doubled_tail_value(ref, 1.0, act, 1.0, dt)
        n_T = law.n_steps
        (law_steps, law_gains), (gate_steps, gate_gains) = paths[:2], paths[2:]
        assert law.step_inverses == law_steps.counts
        for path, n in ((law_steps, n_T), (law_gains, n_T),
                        (gate_steps, n_T), (gate_gains, n_T)):
            assert len(path.kinds) == n and path.kinds[0] == "solved"
            if dt == DT:
                assert path.kinds[3:] == ["one"] * (n - 3)
            assert "solved" not in path.kinds[3:]

    def test_law_holds_cost_operators_only(self, tg_law):
        # beside its cost operators and times the law holds only the three
        # (K, K) fixed parts of its step models and the two (K, K) parts of
        # the horizon gate's carry, and no copy of alpha
        *_, law = tg_law
        assert not hasattr(law, "phi") and not hasattr(law, "gains")
        assert law.alphas is law.reference.space.alphas
        arrays = [v for v in vars(law).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in arrays) == (
            law.Q_packed.nbytes + law.times.nbytes + law._shift.nbytes
            + law._diag_alpha.nbytes + law._gram.nbytes
            + law.transition.nbytes + law.gramian.nbytes)
        assert all(v.size != law.n_steps * law.M * len(law.alphas) for v in arrays)
        assert law.n_steps == law.Q_packed.shape[0] - 1 == len(law.times) - 1

    def test_every_packed_operator_is_exactly_symmetric(self, monkeypatch):
        # packing keeps the upper triangle only; the sweep's symmetrisation
        # makes that lossless, so each packed operator must be bitwise
        # symmetric and unpack back to itself
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        packed = []
        pack = feedback.pack_symmetric

        def spy(P):
            packed.append(P.copy())
            return pack(P)
        monkeypatch.setattr(feedback, "pack_symmetric", spy)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)
        assert len(packed) == law.n_steps
        for m, P in zip(range(law.n_steps - 1, -1, -1), packed):
            assert np.array_equal(P, P.T), m
            assert np.array_equal(unpack_symmetric(pack(P)), P), m
            assert np.array_equal(law.Q(m), P), m
        assert np.any(packed[-1] - np.diag(np.diag(packed[-1])))
        skew = np.triu(packed[-1]) + 2.0 * np.tril(packed[-1], -1)
        assert not np.array_equal(unpack_symmetric(pack(skew)), skew)

    def test_gated_synthesis_peaks_near_the_law(self):
        # neither a step stack nor a gain stack is ever allocated, so the
        # law's traced peak stays within 10% of its packed cost operators,
        # and that of the gate's tail sweep, which stores none, below a
        # tenth of them
        space, ref, act = gate_instance()

        def traced(synthesis):
            tracemalloc.start()
            try:
                return (synthesis(ref, 1.0, act, 14.0, DT),
                        tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        law, law_peak = traced(riccati_solve)
        _, gate_peak = traced(doubled_tail_value)
        assert law_peak <= 1.1 * law.Q_packed.nbytes
        assert gate_peak <= 0.1 * law.Q_packed.nbytes


class TestMemoryGuard:
    def test_refuses_a_law_larger_than_available_memory(self, monkeypatch):
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        n_T = 64
        need = 8 * (n_T + 1) * 8 * 9 // 2
        steps = []
        step = dynamics.InversePath.step
        monkeypatch.setattr(feedback, "available_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(dynamics.InversePath, "step",
                            lambda *a: steps.append(a) or step(*a))
        with pytest.raises(ConfigError, match=f"{need / 1e6:.1f} MB") as info:
            riccati_solve(ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)
        for field in ("space.K", "time.T_h", "time.dt"):
            assert field in str(info.value)
        assert steps == []              # refused before any step is built
        monkeypatch.setattr(feedback, "available_memory_bytes", lambda: need)
        law = riccati_solve(ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)
        assert law.Q_packed.nbytes == need

    def test_probe_reads_meminfo_or_physical_memory(self, monkeypatch):
        avail = feedback.available_memory_bytes()
        assert isinstance(avail, int) and avail > 0

        def unreadable(*args, **kwargs):
            raise OSError("unreadable")
        monkeypatch.setattr(feedback, "open", unreadable, raising=False)
        want = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert feedback.available_memory_bytes() == want

    def test_probe_is_capped_by_a_cgroup_limit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(feedback, "_host_available", lambda: 10**12)
        monkeypatch.setattr(feedback, "CGROUP_DIR", str(tmp_path))
        assert feedback.available_memory_bytes() == 10**12     # no limit files
        (tmp_path / "memory.current").write_text("400000\n")
        (tmp_path / "memory.max").write_text("max\n")
        assert feedback.available_memory_bytes() == 10**12
        (tmp_path / "memory.max").write_text("1000000\n")
        assert feedback.available_memory_bytes() == 600000
        monkeypatch.setattr(feedback, "_host_available", lambda: 500000)
        assert feedback.available_memory_bytes() == 500000


class TestGainApply:
    def test_zero_state(self, tg_law):
        space, _, _, _, law = tg_law
        assert np.allclose(gain_apply(law, 1.0, np.zeros(space.K)), 0.0)

    def test_zero_mask_zero_gain(self, scalar_law):
        space, ref, _, _ = scalar_law
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(ref, lam=0.5, actuator=act0, T_h=4.0, dt=1.0 / 64)
        assert np.allclose(gain_apply(law, 1.0, np.ones(space.K)), 0.0)

    def test_matches_dense_composition(self, tg_law, rng):
        space, _, chi, act, law = tg_law
        v = rng.standard_normal(space.K)
        t = 3.0
        got = gain_apply(law, t, v)
        want = -act.mat @ apply_chi_pm(space, chi, act.M, law.Q(law.index_of(t)) @ v)
        assert np.allclose(got, want, atol=1e-13 * max(1.0, np.abs(want).max()))

    def test_frozen_beyond_horizon(self, tg_law, rng):
        # the law ends at T_h with terminal value zero; it is not extended
        # past the horizon, so reading it there raises
        space, _, _, _, law = tg_law
        v = rng.standard_normal(space.K)
        assert np.allclose(gain_apply(law, law.T_h, v), 0.0)
        with pytest.raises(ValueError, match="outside the law's horizon"):
            gain_apply(law, law.T_h + 5.0, v)

    def test_gain_norm_bounded(self, tg_law):
        *_, law = tg_law
        kappa = law.max_gain_norm()
        assert np.isfinite(kappa)
        for m in range(0, law.n_steps, 256):
            assert np.linalg.norm(law.actuator.gram @ law.Q(m), 2) <= kappa + 1e-12


class TestTimeAxis:
    def test_index_of_rejects_times_outside_horizon(self, tg_law):
        *_, law = tg_law
        assert law.index_of(0.0) == 0
        assert law.index_of(law.T_h) == law.n_steps
        assert law.index_of(law.T_h * (1 + 1e-15)) == law.n_steps
        for t in (-law.dt, -1e-6, law.T_h + 1e-6, law.T_h + law.dt):
            with pytest.raises(ValueError, match="outside the law's horizon"):
                law.index_of(t)

    def test_dp_check_rejects_split_outside_window(self, tg_law, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        one = rollout(law, 1.0, v0)
        with pytest.raises(ValueError, match="before s"):
            dp_check(one, splits=[1.0 - law.dt])
        with pytest.raises(ValueError, match="outside the law's horizon"):
            dp_check(one, splits=[law.T_h + law.dt])

    def test_optimal_cost_check_rejects_start_outside_horizon(self, tg_law, rng):
        # the check prices a rollout's own start, and no rollout starts there
        space, ref, _, _, law = tg_law
        w0 = rng.standard_normal(space.K)
        with pytest.raises(ValueError, match="outside the law's horizon"):
            optimal_rollouts(law, [(0.0, w0), (law.T_h + 1.0, w0)])


class TestRestriction:
    @pytest.fixture()
    def law(self):
        # the law on its head [0, 1] alone, a view of its first cost
        # operators, as the worker's closed-loop job gets it
        _, ref, act = gate_instance(K=12, M=16, T_h=3.0)
        full = riccati_solve(ref, lam=1.0, actuator=act, T_h=3.0, dt=1.0 / 64)
        return dataclasses.replace(full, Q_packed=full.Q_packed[:65])

    def test_reading_past_the_head_raises(self, law, rng):
        v0 = rng.standard_normal(len(law.alphas))
        # the horizon stays the synthesis's
        assert law.head == 64
        assert law.n_steps == 192 and law.T_h == 3.0 and len(law.times) == 193
        assert law.index_of(1.0) == 64
        assert np.array_equal(law.Q(64), unpack_symmetric(law.Q_packed[64]))
        closed_loop_steps(law, 0.0, 1.0)
        for t in (1.0 + law.dt, 2.0, 3.0):
            with pytest.raises(ValueError, match="past the law's head"):
                law.index_of(t)
        with pytest.raises(ValueError, match="outside the law's horizon"):
            law.index_of(3.0 + law.dt)
        # every reader of the full horizon fails loudly on the head alone
        for read in (lambda: law.Q(65), lambda: law.closed_loop_system(64),
                     law.max_gain_norm,
                     lambda: optimal_rollouts(law, [(0.0, v0)]),
                     lambda: riccati_residual(law, [0.5, 1.5])):
            with pytest.raises(ValueError, match="past the law's head"):
                read()
        with pytest.raises(ValueError, match="exceeds the synthesized horizon"):
            closed_loop_steps(law, 0.0, 1.0 + law.dt)


class TestClosedLoop:
    def test_zero_initial_state(self, tg_law):
        space, ref, _, _, law = tg_law
        tr = closed_loop_steps(law, 0.0, 2.0).run_linear(np.zeros(space.K))
        rep = closed_loop_linear(tr, law.lam, space.alphas)
        assert np.allclose(tr.states, 0.0)
        assert rep["kappa_h"] == 0.0

    def test_free_decay_satisfies_bound_with_unit_kappa(self):
        # uncontrolled stable system under a sub-decay weight
        space = build_space(nu=1.0, K=4, n=16)
        ref = zero_reference(space, horizon=10.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(ref, lam=0.5, actuator=act0, T_h=8.0, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        tr = closed_loop_steps(law, 0.0, 4.0).run_linear(v0)
        w = np.exp(0.5 * tr.times)
        h2 = np.sum(tr.states**2, axis=1)
        assert np.max(w * h2) <= 1.0 + 1e-10

    def test_weighted_energy_bounded_and_decaying(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        for s in (0.0, 2.0):
            v0 = rng.standard_normal(space.K)
            tr = closed_loop_steps(law, s, 6.0).run_linear(v0)
            rep = closed_loop_linear(tr, law.lam, space.alphas)
            w = np.exp(law.lam * (tr.times - s))
            h2 = np.sum(tr.states**2, axis=1)
            sup = np.max(w * h2) / (v0 @ v0)
            assert sup <= 1.0 + 1e-10        # immediate contraction: kappa = 1
            assert rep["weighted_h_final"] <= 0.5
            assert np.isfinite(rep["kappa_h"]) and np.isfinite(rep["kappa_v"])

    def test_window_must_fit_horizon(self, tg_law):
        space, ref, _, _, law = tg_law
        with pytest.raises(ValueError):
            closed_loop_steps(law, 10.0, 6.0)


class TestOptimality:
    def test_rollout_cost_equals_value(self, tg_law, rng):
        space, _, _, _, law = tg_law
        for s in (0.0, 3.5):
            v0 = rng.standard_normal(space.K)
            rep = dp_check(rollout(law, s, v0), splits=[])
            assert rep["total_vs_value_rel"] <= 1e-12

    def test_dp_splitting(self, tg_law, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        rep = dp_check(rollout(law, 0.0, v0), splits=[law.T_h / 4.0, law.T_h / 2.0])
        for split in rep["splits"]:
            assert split["rel_gap"] <= 1e-6

    def test_wrong_stage_weight_breaks_value(self, tg_law, rng):
        # the stage weight diag(alpha) is the space's: carried on a space of
        # doubled alpha, the rollout steps and prices against the wrong one
        space, ref, _, _, law = tg_law
        doubled = copy.copy(ref)
        doubled.space = dataclasses.replace(space, alphas=2 * space.alphas)
        wrong = dataclasses.replace(law, reference=doubled)
        rep = dp_check(rollout(wrong, 0.0, rng.standard_normal(space.K)), splits=[])
        assert rep["total_vs_value_rel"] > 1e-6

    def test_split_at_zero_and_terminal(self, tg_law, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        rep = dp_check(rollout(law, 0.0, v0), splits=[0.0, law.T_h])
        # s = 0: identity; s = T_h: running cost equals total (terminal
        # weight vanishes)
        assert rep["splits"][0]["rel_gap"] <= 1e-12
        assert rep["splits"][1]["rel_gap"] <= 1e-12

    def test_simulated_cost_matches_value(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        gaps = []
        for _ in range(3):
            w0 = rng.standard_normal(space.K)
            rep, _ = optimal_cost_check(rollout(law, 2.0, w0))
            assert rep["rollout_rel_gap"] <= 1e-12
            gaps.append(rep["simulated_rel_gap"])
        assert max(gaps) <= 1e-4

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_streamed_check_equals_stored_stacks(self, tg_law, tg_phi, tg_gains,
                                                 rng, s):
        # vector solves against stored-matrix products: equal to round-off
        space, ref, _, _, law = tg_law
        w0 = rng.standard_normal(space.K)
        got, _ = optimal_cost_check(rollout(law, s, w0))
        want = optimal_cost_check_stored(space, ref, law, tg_phi, tg_gains, s, w0)
        # the streamed check also counts how it obtained each step inverse,
        # on its walk from node 0
        assert got.keys() == want.keys() | {"step_inverses"}
        assert sum(got["step_inverses"].values()) == law.n_steps
        assert got["s"] == want["s"] and got["value"] == want["value"]
        assert got["simulated_cost"] == pytest.approx(want["simulated_cost"], rel=1e-12)
        for key in ("rollout_rel_gap", "simulated_rel_gap"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key

    @pytest.mark.parametrize("s", [0.0, 3.5])
    def test_vector_rollout_equals_stored_rollout(self, tg_law, tg_phi, tg_gains,
                                                  rng, s):
        # gains formed step by step from Q(m+1) against stored gains
        space, _, _, _, law = tg_law
        z0 = rng.standard_normal(space.K)
        one = rollout(law, s, z0)
        z, costs = one.states, one.costs
        z_ref, costs_ref = optimal_rollout_stored(law, tg_phi, tg_gains,
                                                  law.index_of(s), z0)
        assert z.shape == z_ref.shape and costs.shape == costs_ref.shape
        assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
        assert np.linalg.norm(costs - costs_ref) <= 1e-12 * np.linalg.norm(costs_ref)

    def test_each_start_of_a_shared_pass_equals_its_own_pass(self, tg_law, rng):
        # the block pass shares each step between starts; every column must
        # be the rollout of its own (s, v0), in either order of the starts
        space, _, _, _, law = tg_law
        starts = [(1.0, rng.standard_normal(space.K)),
                  (0.0, rng.standard_normal(space.K))]
        shared = optimal_rollouts(law, starts)
        for (s, v0), got in zip(starts, shared):
            want = rollout(law, s, v0)
            assert (got.s, got.s_index) == (s, law.index_of(s))
            assert np.array_equal(got.v0, v0)
            for name in ("states", "controls", "costs"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape, name
                assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), name

    def test_operators_one_node_late_trip_both_rollout_checks(self, tg_law, rng):
        # Q'(m) = Q(m - 1) (and Q'(0) = Q(0)): each step's gain is formed
        # from Q(m) and each value read one node late, so the splits and the
        # rollout from s = 1 no longer price to the value.  From s = 0 the
        # total only feels the gain error, at second order (~3e-8 here)
        space, ref, _, _, law = tg_law
        late = dataclasses.replace(
            law, Q_packed=np.concatenate([law.Q_packed[:1], law.Q_packed[:-1]]))
        v0 = rng.standard_normal(space.K)
        dp_roll, cost_roll = optimal_rollouts(late, [(0.0, v0), (1.0, v0)])
        dp = dp_check(dp_roll, splits=[late.T_h / 4, late.T_h / 2])
        assert max(split["rel_gap"] for split in dp["splits"]) > 1e-6
        assert optimal_cost_check(cost_roll)[0]["rollout_rel_gap"] > 1e-6

    def test_scaled_cost_operators_trip_the_optimal_cost_check(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        wrong = dataclasses.replace(law, Q_packed=law.Q_packed * (1 + 1e-3))
        rep, _ = optimal_cost_check(rollout(wrong, 2.0, rng.standard_normal(space.K)))
        assert rep["rollout_rel_gap"] > 1e-6
        assert rep["simulated_rel_gap"] > 1e-4

    def test_zero_state_cost(self, tg_law):
        space, ref, _, _, law = tg_law
        rep, _ = optimal_cost_check(rollout(law, 0.0, np.zeros(space.K)))
        assert rep["value"] == 0.0

    def test_perturbed_controls_never_beat_optimum(self, tg_law, tg_phi, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        value = float(v0 @ (law.Q(0) @ v0))
        eta_opt = rollout(law, 0.0, v0).controls
        eye = np.eye(space.K)
        # reference input maps h (I + h/2 F)^{-1} B = h/2 (I + phi) B
        gamma = 0.5 * law.dt * (eye + tg_phi) @ law.actuator.mat
        for _ in range(20):
            eta = eta_opt + 0.05 * rng.standard_normal(eta_opt.shape)
            z = v0.copy()
            cost = 0.0
            for m in range(law.n_steps):
                zbar = 0.5 * ((eye + tg_phi[m]) @ z + gamma[m] @ eta[m])
                cost += law.dt * (law.alphas @ zbar**2 + eta[m] @ eta[m])
                z = tg_phi[m] @ z + gamma[m] @ eta[m]
            assert cost >= value - 1e-6 * abs(value)


class TestLyapunov:
    def test_zero_state(self, tg_law):
        space, ref, _, _, law = tg_law
        rep = lyapunov_check(closed_loop_steps(law, 0.0, 2.0).run_linear(
            np.zeros(space.K)))
        assert max(rep["phi"]) == 0.0

    def test_free_mode_closed_form(self):
        space = build_space(nu=1.0, K=4, n=16)
        ref = zero_reference(space, horizon=16.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(ref, lam=0.5, actuator=act0, T_h=14.0, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        rep = lyapunov_check(closed_loop_steps(law, 0.0, 12.0).run_linear(v0),
                             samples=16)
        a = space.alphas[0]
        for t, phi in zip(rep["times"], rep["phi"]):
            want = (np.exp(-2 * a * t) - np.exp(-2 * a * 12.0)) / (2 * a)
            assert phi == pytest.approx(want, rel=1e-3, abs=1e-9)
        assert rep["nonincreasing"]

    def test_monotone_along_closed_loop(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        stepper = closed_loop_steps(law, 0.0, 6.0)
        for _ in range(3):
            rep = lyapunov_check(stepper.run_linear(rng.standard_normal(space.K)))
            assert rep["nonincreasing"]


class TestRiccatiResidual:
    def test_interior_residual_small(self, tg_law):
        space, ref, _, _, law = tg_law
        rep = riccati_residual(law, [2.0, 4.0, 6.0, 8.0])
        assert rep["max_rel_residual"] <= 1e-5

    def test_late_reference_trips_the_residual(self, tg_law):
        # the residual read against u one step late must exceed the level
        # test_interior_residual_small accepts
        space, ref, _, _, law = tg_law

        class LateReference:
            space = ref.space

            def bmat_at(self, t):
                return ref.bmat_at(t + law.dt)
        late = dataclasses.replace(law, reference=LateReference())
        rep = riccati_residual(late, [2.0, 4.0, 6.0, 8.0])
        assert rep["max_rel_residual"] > 1e-5

    def test_reports_the_node_it_evaluates(self, tg_law):
        # a sample between two nodes is evaluated at the nearest one, and
        # the report names that node's time, not the time asked for
        law = tg_law[-1]
        asked = [2.0 + 0.3 * law.dt, 4.0 - 0.4 * law.dt, 6.0]
        rep = riccati_residual(law, asked)
        nodes = [2.0, 4.0, 6.0]
        assert rep["t"] == nodes
        assert rep["rel_residual"] == riccati_residual(law, nodes)["rel_residual"]

    def test_terminal_layer_large(self, tg_law):
        space, ref, _, _, law = tg_law
        interior = riccati_residual(law, [4.0])["max_rel_residual"]
        layer = riccati_residual(law, [law.T_h - 0.05])["max_rel_residual"]
        assert layer > 100 * interior

    def test_second_order_in_dt(self):
        space = build_space(nu=0.6, K=8, n=16)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=8)
        res = []
        for dt in (1.0 / 32, 1.0 / 64):
            ref = taylor_green_reference(space, a0=1.0, a1=0.5, omega=1.0, horizon=9.0)
            law = riccati_solve(ref, lam=1.0, actuator=act, T_h=8.0, dt=dt)
            res.append(riccati_residual(law, [2.0, 3.0])["max_rel_residual"])
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.6)


class TestContinuity:
    def test_jumps_halve_with_dt(self, rng):
        space = build_space(nu=0.6, K=8, n=16)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=8)
        ref = taylor_green_reference(space, a0=1.0, a1=0.5, omega=1.0, horizon=7.0)
        w = rng.standard_normal(space.K)
        jumps = []
        for dt in (1.0 / 32, 1.0 / 64):
            law = riccati_solve(ref, lam=1.0, actuator=act, T_h=6.0, dt=dt)
            jumps.append(sampled_continuity(law, w))
        assert jumps[0] / jumps[1] == pytest.approx(2.0, rel=0.25)
