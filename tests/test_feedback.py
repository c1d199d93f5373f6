"""Weighted LQ synthesis: scalar oracles, DP identities, decay, residuals."""

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
    dp_check,
    lyapunov_check,
    optimal_cost_check,
    optimal_rollout,
    riccati_residual,
    riccati_solve,
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
    law = riccati_solve(space, ref, lam=0.5, actuator=act, T_h=12.0, dt=DT)
    return space, ref, act, law


@pytest.fixture(scope="module")
def tg_law():
    """Time-varying reference, localized mask: the generic synthesis instance."""
    space = build_space(nu=0.6, K=24, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=15.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    act = build_actuator(space, chi, M=32)
    law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=14.0, dt=DT)
    return space, ref, chi, act, law


@pytest.fixture(scope="module")
def tg_phi(tg_law):
    """The stored shifted step stack of tg_law (the reference path)."""
    space, ref, _, _, law = tg_law
    return shifted_steps(space, ref, law.lam, 0, law.n_steps, law.dt)


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
        law = riccati_solve(space, ref, lam=0.5, actuator=act0, T_h=12.0, dt=DT)
        a = space.alphas[0] - 0.25          # positive shifted decay rate
        want = space.alphas[0] / (2.0 * a)
        assert law.Qt[0][0, 0] == pytest.approx(want, rel=1e-6)

    def test_controlled_scalar_matches_are_root(self, scalar_law):
        space, _, act, law = scalar_law
        for j in range(space.K):
            drift = 0.25 - space.alphas[j]
            want = scalar_are_root(drift, act.gram[j, j], space.alphas[j])
            assert law.Qt[0][j, j] == pytest.approx(want, rel=1e-6)
        offdiag = law.Qt[0] - np.diag(np.diag(law.Qt[0]))
        assert np.max(np.abs(offdiag)) < 1e-12

    def test_lambda_zero_stationary_residual(self, scalar_law):
        # unweighted problem: the converged tail solves the algebraic
        # equation to round-off plus horizon truncation
        space, ref, act, _ = scalar_law
        law = riccati_solve(space, ref, lam=0.0, actuator=act, T_h=12.0, dt=DT)
        assert np.max(np.abs(law.Qt[128] - law.Qt[256])) < 1e-9
        rep = riccati_residual(space, ref, law, [1.0, 2.0, 4.0])
        assert rep["max_rel_residual"] <= 1e-8

    def test_psd_at_every_sampled_time(self, tg_law):
        *_, law = tg_law
        for m in range(0, law.n_steps + 1, 64):
            assert np.linalg.eigvalsh(law.Qt[m]).min() >= -1e-10

    def test_norm_of_shifted_operator_uniform(self, tg_law):
        *_, law = tg_law
        norms = [np.linalg.norm(law.Qt[m], 2) for m in range(0, law.n_steps, 128)]
        assert np.isfinite(norms).all()
        assert max(norms) < 1e3

    def test_blowup_reports_not_stabilizable(self):
        space = build_space(nu=0.3, K=4, n=16)
        ref = zero_reference(space, horizon=20.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        with pytest.raises(RiccatiBlowupError):
            riccati_solve(space, ref, lam=2.0, actuator=act0, T_h=18.0, dt=1.0 / 64)

    def test_horizon_gate_recorded_and_shrinking(self, scalar_law):
        space, ref, act, _ = scalar_law
        law = riccati_solve(space, ref, lam=0.5, actuator=act, T_h=6.0, dt=1.0 / 64,
                            verify_horizon=True)
        assert law.horizon_gate["rel_change"] <= 1e-6

    def test_matches_two_matrix_model(self, tg_law):
        space, ref, _, act, law = tg_law
        Qt, gains = riccati_two_matrix(space, ref, law.lam, act, law.T_h, law.dt)
        assert np.linalg.norm(law.Qt - Qt) <= 1e-10 * np.linalg.norm(Qt)
        assert np.linalg.norm(law.gains - gains) <= 1e-10 * np.linalg.norm(gains)

    def test_rejects_bad_horizon(self, scalar_law):
        space, ref, act, _ = scalar_law
        with pytest.raises(ValueError):
            riccati_solve(space, ref, lam=0.5, actuator=act, T_h=100.0, dt=DT)
        with pytest.raises(ValueError, match="horizon"):
            riccati_solve(space, ref, lam=0.5, actuator=act, T_h=13.0, dt=DT,
                          verify_horizon=True)

    def test_horizon_gate_equals_explicit_doubled_solve(self):
        # the gate reuses the law's own steps on [0, T_h] and refines them
        # from the tail's last step and gain-system inverse, so it must
        # agree exactly with a separate synthesis on [0, 2 T_h]
        space = build_space(nu=0.6, K=12, n=16)
        ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=8.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=16)
        law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=3.0,
                            dt=1.0 / 64, verify_horizon=True)
        double = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=6.0,
                               dt=1.0 / 64)
        num = np.linalg.norm(double.Qt[0] - law.Qt[0])
        den = max(np.linalg.norm(double.Qt[0]), 1e-300)
        assert law.horizon_gate["rel_change"] == float(num / den)

    def test_one_loop_law_equals_two_sweep_oracle(self, monkeypatch):
        # law and gate continuation advance together through steps built in
        # the loop; the stored-stack path of one solve per step and per gain
        # system agrees to round-off (the loop refines both inverses from
        # the neighbouring step's instead)
        space, ref, act = gate_instance(K=12, M=16, T_h=3.0)
        returned = []
        sweep = feedback._sweep

        def spy(*args, **kwargs):
            returned.append(sweep(*args, **kwargs))
            return returned[-1]
        monkeypatch.setattr(feedback, "_sweep", spy)
        law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=3.0,
                            dt=1.0 / 64, verify_horizon=True)
        Qt, gains, double_Q0 = riccati_two_sweep(space, ref, 1.0, act, 3.0, 1.0 / 64)
        got_Q0 = returned[-1][0][1]
        for got, want in ((law.Qt, Qt), (law.gains, gains), (got_Q0, double_Q0)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        num = np.linalg.norm(got_Q0 - law.Qt[0])
        assert law.horizon_gate["rel_change"] == float(num / np.linalg.norm(got_Q0))
        num = np.linalg.norm(double_Q0 - Qt[0])
        assert law.horizon_gate["rel_change"] == pytest.approx(
            float(num / np.linalg.norm(double_Q0)), rel=1e-12)

    def test_solves_only_the_first_step_of_a_gated_synthesis(self, monkeypatch):
        # every later step refines the neighbouring step's inverse; the gain
        # systems are solved once per cost operator, at its first step
        space, ref, act = gate_instance(K=12, M=16, T_h=1.0)
        solved = []
        cn_solve = dynamics._cn_solve

        def solve_spy(lhs, rhs, m):
            solved.append((lhs.shape, m))
            return cn_solve(lhs, rhs, m)
        monkeypatch.setattr(dynamics, "_cn_solve", solve_spy)
        for _ in range(2):          # a second synthesis starts afresh
            solved.clear()
            law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=1.0,
                                dt=DT, verify_horizon=True)
            n_T = law.n_steps
            assert solved == [((12, 12), 2 * n_T - 1), ((1, 16, 16), 2 * n_T - 1),
                              ((2, 16, 16), n_T - 1)]

    def test_builds_each_step_once_per_sweep_and_stores_none(self, monkeypatch):
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        built, stacks = [], []
        cn_step = feedback.cn_step
        cn_steps = dynamics.cn_steps

        def step_spy(F, dt, m=0, near=None):
            built.append(m)
            return cn_step(F, dt, m, near)

        def stack_spy(*args):
            stacks.append(args)
            return cn_steps(*args)
        monkeypatch.setattr(feedback, "cn_step", step_spy)
        monkeypatch.setattr(dynamics, "cn_steps", stack_spy)
        monkeypatch.setattr(feedback, "cn_steps", stack_spy, raising=False)
        law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=2.0,
                            dt=1.0 / 32, verify_horizon=True)
        n_T = law.n_steps
        assert stacks == []
        assert built == list(range(2 * n_T - 1, -1, -1))

    def test_law_holds_cost_operators_and_gains_only(self, tg_law):
        *_, law = tg_law
        assert not hasattr(law, "phi")
        held = sum(v.nbytes for v in vars(law).values() if isinstance(v, np.ndarray))
        assert held == (law.Qt.nbytes + law.gains.nbytes + law.times.nbytes
                        + law.alphas.nbytes)
        assert law.n_steps == law.gains.shape[0] == law.Qt.shape[0] - 1

    def test_gated_synthesis_peaks_near_the_law(self):
        # neither a step stack nor a gate tail stack is ever allocated, so
        # the traced peak stays within 10% of Qt plus gains
        space, ref, act = gate_instance()
        tracemalloc.start()
        try:
            law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=14.0,
                                dt=DT, verify_horizon=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (law.Qt.nbytes + law.gains.nbytes)


class TestMemoryGuard:
    def test_refuses_a_law_larger_than_available_memory(self, monkeypatch):
        space, ref, act = gate_instance(K=8, M=8, T_h=2.0)
        n_T = 64
        need = 8 * ((n_T + 1) * 8 * 8 + n_T * 8 * 8)
        steps = []
        monkeypatch.setattr(feedback, "available_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(feedback, "cn_step",
                            lambda *a: steps.append(a) or dynamics.cn_step(*a))
        with pytest.raises(ConfigError, match=f"{need / 1e6:.1f} MB") as info:
            riccati_solve(space, ref, lam=1.0, actuator=act, T_h=2.0,
                          dt=1.0 / 32, verify_horizon=True)
        for field in ("space.K", "time.T_h", "time.dt"):
            assert field in str(info.value)
        assert steps == []              # refused before the gate's tail sweep
        monkeypatch.setattr(feedback, "available_memory_bytes", lambda: need)
        law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=2.0, dt=1.0 / 32)
        assert law.Qt.nbytes + law.gains.nbytes == need

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
        law = riccati_solve(space, ref, lam=0.5, actuator=act0, T_h=4.0, dt=1.0 / 64)
        assert np.allclose(gain_apply(law, 1.0, np.ones(space.K)), 0.0)

    def test_matches_dense_composition(self, tg_law, rng):
        space, _, chi, act, law = tg_law
        v = rng.standard_normal(space.K)
        t = 3.0
        got = gain_apply(law, t, v)
        want = -act.mat @ apply_chi_pm(space, chi, act.M, law.Qt[law.index_of(t)] @ v)
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
            assert np.linalg.norm(law.actuator.gram @ law.Qt[m], 2) <= kappa + 1e-12


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
        with pytest.raises(ValueError, match="before s"):
            dp_check(law, v0, 1.0, splits=[1.0 - law.dt])
        with pytest.raises(ValueError, match="outside the law's horizon"):
            dp_check(law, v0, 1.0, splits=[law.T_h + law.dt])

    def test_optimal_cost_check_rejects_start_outside_horizon(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        with pytest.raises(ValueError, match="outside the law's horizon"):
            optimal_cost_check(ref, law, law.T_h + 1.0, rng.standard_normal(space.K))


class TestClosedLoop:
    def test_zero_initial_state(self, tg_law):
        space, ref, _, _, law = tg_law
        tr, rep = closed_loop_linear(closed_loop_steps(space, ref, law, 0.0, 2.0),
                                     np.zeros(space.K))
        assert np.allclose(tr.states, 0.0)
        assert rep["kappa_h"] == 0.0

    def test_free_decay_satisfies_bound_with_unit_kappa(self):
        # uncontrolled stable system under a sub-decay weight
        space = build_space(nu=1.0, K=4, n=16)
        ref = zero_reference(space, horizon=10.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(space, ref, lam=0.5, actuator=act0, T_h=8.0, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        tr, _ = closed_loop_linear(closed_loop_steps(space, ref, law, 0.0, 4.0), v0)
        w = np.exp(0.5 * tr.times)
        h2 = np.sum(tr.states**2, axis=1)
        assert np.max(w * h2) <= 1.0 + 1e-10

    def test_weighted_energy_bounded_and_decaying(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        for s in (0.0, 2.0):
            v0 = rng.standard_normal(space.K)
            tr, rep = closed_loop_linear(closed_loop_steps(space, ref, law, s, 6.0), v0)
            w = np.exp(law.lam * (tr.times - s))
            h2 = np.sum(tr.states**2, axis=1)
            sup = np.max(w * h2) / (v0 @ v0)
            assert sup <= 1.0 + 1e-10        # immediate contraction: kappa = 1
            assert rep["weighted_h_final"] <= 0.5
            assert np.isfinite(rep["kappa_h"]) and np.isfinite(rep["kappa_v"])

    def test_window_must_fit_horizon(self, tg_law):
        space, ref, _, _, law = tg_law
        with pytest.raises(ValueError):
            closed_loop_steps(space, ref, law, 10.0, 6.0)


class TestOptimality:
    def test_rollout_cost_equals_value(self, tg_law, rng):
        space, _, _, _, law = tg_law
        for s in (0.0, 3.5):
            v0 = rng.standard_normal(space.K)
            rep = dp_check(law, v0, s, splits=[])
            assert rep["total_vs_value_rel"] <= 1e-12

    def test_dp_splitting(self, tg_law, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        rep = dp_check(law, v0, 0.0, splits=[law.T_h / 4.0, law.T_h / 2.0])
        for split in rep["splits"]:
            assert split["rel_gap"] <= 1e-6

    def test_wrong_stage_weight_breaks_value(self, tg_law, rng):
        space, _, _, _, law = tg_law
        wrong = dataclasses.replace(law, alphas=2 * law.alphas)
        rep = dp_check(wrong, rng.standard_normal(space.K), 0.0, splits=[])
        assert rep["total_vs_value_rel"] > 1e-6

    def test_split_at_zero_and_terminal(self, tg_law, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        rep = dp_check(law, v0, 0.0, splits=[0.0, law.T_h])
        # s = 0: identity; s = T_h: running cost equals total (terminal
        # weight vanishes)
        assert rep["splits"][0]["rel_gap"] <= 1e-12
        assert rep["splits"][1]["rel_gap"] <= 1e-12

    def test_simulated_cost_matches_value(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        gaps = []
        for _ in range(3):
            w0 = rng.standard_normal(space.K)
            rep = optimal_cost_check(ref, law, 2.0, w0)
            assert rep["rollout_rel_gap"] <= 1e-12
            gaps.append(rep["simulated_rel_gap"])
        assert max(gaps) <= 1e-4

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_streamed_check_equals_stored_stacks(self, tg_law, tg_phi, rng, s):
        # vector solves against stored-matrix products: equal to round-off
        space, ref, _, _, law = tg_law
        w0 = rng.standard_normal(space.K)
        got = optimal_cost_check(ref, law, s, w0)
        want = optimal_cost_check_stored(space, ref, law, tg_phi, s, w0)
        assert got.keys() == want.keys()
        assert got["s"] == want["s"] and got["value"] == want["value"]
        assert got["simulated_cost"] == pytest.approx(want["simulated_cost"], rel=1e-12)
        for key in ("rollout_rel_gap", "simulated_rel_gap"):
            assert got[key] == pytest.approx(want[key], abs=1e-12), key

    @pytest.mark.parametrize("s", [0.0, 3.5])
    def test_vector_rollout_equals_stored_rollout(self, tg_law, tg_phi, rng, s):
        space, _, _, _, law = tg_law
        z0 = rng.standard_normal(space.K)
        s_index = law.index_of(s)
        z, costs = optimal_rollout(law, s_index, z0)
        z_ref, costs_ref = optimal_rollout_stored(law, tg_phi, s_index, z0)
        assert z.shape == z_ref.shape and costs.shape == costs_ref.shape
        assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
        assert np.linalg.norm(costs - costs_ref) <= 1e-12 * np.linalg.norm(costs_ref)

    def test_scaled_cost_operators_trip_the_optimal_cost_check(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        wrong = dataclasses.replace(law, Qt=law.Qt * (1 + 1e-3))
        rep = optimal_cost_check(ref, wrong, 2.0, rng.standard_normal(space.K))
        assert rep["rollout_rel_gap"] > 1e-6
        assert rep["simulated_rel_gap"] > 1e-4

    def test_zero_state_cost(self, tg_law):
        space, ref, _, _, law = tg_law
        rep = optimal_cost_check(ref, law, 0.0, np.zeros(space.K))
        assert rep["value"] == 0.0

    def test_perturbed_controls_never_beat_optimum(self, tg_law, tg_phi, rng):
        space, _, _, _, law = tg_law
        v0 = rng.standard_normal(space.K)
        value = float(v0 @ (law.Qt[0] @ v0))
        z_opt, _ = optimal_rollout(law, 0, v0)
        eta_opt = -np.einsum("mij,mj->mi", law.gains, z_opt[:-1])
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
        rep = lyapunov_check(closed_loop_linear(
            closed_loop_steps(space, ref, law, 0.0, 2.0), np.zeros(space.K))[0])
        assert max(rep["phi"]) == 0.0

    def test_free_mode_closed_form(self):
        space = build_space(nu=1.0, K=4, n=16)
        ref = zero_reference(space, horizon=16.0)
        act0 = build_actuator(space, zero_mask(space), M=4)
        law = riccati_solve(space, ref, lam=0.5, actuator=act0, T_h=14.0, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        rep = lyapunov_check(closed_loop_linear(
            closed_loop_steps(space, ref, law, 0.0, 12.0), v0)[0], samples=16)
        a = space.alphas[0]
        for t, phi in zip(rep["times"], rep["phi"]):
            want = (np.exp(-2 * a * t) - np.exp(-2 * a * 12.0)) / (2 * a)
            assert phi == pytest.approx(want, rel=1e-3, abs=1e-9)
        assert rep["nonincreasing"]

    def test_monotone_along_closed_loop(self, tg_law, rng):
        space, ref, _, _, law = tg_law
        stepper = closed_loop_steps(space, ref, law, 0.0, 6.0)
        for _ in range(3):
            rep = lyapunov_check(closed_loop_linear(
                stepper, rng.standard_normal(space.K))[0])
            assert rep["nonincreasing"]


class TestRiccatiResidual:
    def test_interior_residual_small(self, tg_law):
        space, ref, _, _, law = tg_law
        rep = riccati_residual(space, ref, law, [2.0, 4.0, 6.0, 8.0])
        assert rep["max_rel_residual"] <= 1e-5

    def test_late_reference_trips_the_residual(self, tg_law):
        # the residual read against u one step late must exceed the level
        # test_interior_residual_small accepts
        space, ref, _, _, law = tg_law

        class LateReference:
            def bmat_at(self, t):
                return ref.bmat_at(t + law.dt)
        rep = riccati_residual(space, LateReference(), law, [2.0, 4.0, 6.0, 8.0])
        assert rep["max_rel_residual"] > 1e-5

    def test_terminal_layer_large(self, tg_law):
        space, ref, _, _, law = tg_law
        interior = riccati_residual(space, ref, law, [4.0])["max_rel_residual"]
        layer = riccati_residual(space, ref, law, [law.T_h - 0.05])["max_rel_residual"]
        assert layer > 100 * interior

    def test_second_order_in_dt(self):
        space = build_space(nu=0.6, K=8, n=16)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=8)
        res = []
        for dt in (1.0 / 32, 1.0 / 64):
            ref = taylor_green_reference(space, a0=1.0, a1=0.5, omega=1.0, horizon=9.0)
            law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=8.0, dt=dt)
            res.append(riccati_residual(space, ref, law, [2.0, 3.0])["max_rel_residual"])
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
            law = riccati_solve(space, ref, lam=1.0, actuator=act, T_h=6.0, dt=dt)
            jumps.append(sampled_continuity(law, w))
        assert jumps[0] / jumps[1] == pytest.approx(2.0, rel=0.25)
