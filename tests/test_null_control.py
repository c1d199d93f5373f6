"""Interval null-projection controls: Gramian route, KKT identities, limits."""

import dataclasses

import numpy as np
import pytest

from nsstab.dynamics import taylor_green_reference, zero_reference
from nsstab.errors import UnreachableTargetError
from nsstab.null_control import (
    ReachabilityBundle,
    epsilon_limit_study,
    kkt_identity_check,
    min_norm_control,
    regularized_control,
)
from nsstab.observability import truncated_constant
from nsstab.quadmin import DEFAULT_PINV_RTOL, pinv_psd
from nsstab.spectral import ChiMask, build_actuator, build_space

from oracles import (
    QuadraticProgram,
    bundle_on,
    forms_on,
    solve_constrained_min,
    stacked_input_map,
    uniform_mask,
)


DT = 1.0 / 64


@pytest.fixture(scope="module")
def tg_setup():
    space = build_space(nu=0.1, K=16, n=16)
    ref = taylor_green_reference(space, a0=0.5, a1=0.25, omega=1.0, horizon=2.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.4, rho=0.1)
    act = build_actuator(space, chi, M=8)
    bundle = bundle_on(space, ref, 0.0, act, N=4, dt=DT)
    return space, ref, act, bundle


class TestBuildReachability:
    def test_zero_mask_gives_zero_gramian(self, tg_setup):
        space, ref, _, _ = tg_setup
        vals = np.zeros((space.n, space.n))
        chi0 = ChiMask(values=vals, center=(0, 0), radius=0.1, rho=0.1, sup_norm=0.0)
        act0 = build_actuator(space, chi0, M=8)
        b = bundle_on(space, ref, 0.0, act0, N=4, dt=DT)
        assert np.allclose(b.gramian, 0.0)
        assert pinv_psd(b.gramian, DEFAULT_PINV_RTOL)[1] == 0

    def test_single_mode_single_step_closed_form(self):
        # one step over the interval: G = dt * (e^{-alpha * dt * 0 ... }) --
        # with one step of size 1, the CN factor replaces the exponential
        space = build_space(nu=0.3, K=2, n=8)
        ref = zero_reference(space, horizon=2.0)
        chi = uniform_mask(space)
        act = build_actuator(space, chi, M=4)
        b = bundle_on(space, ref, 0.0, act, N=1, dt=1.0)
        # CN one-step stage dual: (I + h/2 L)^{-T} e_1, gain through A^T
        a = space.alphas[0]
        stage = 1.0 / (1.0 + 0.5 * a)
        gains = act.mat[0, :]          # row of the actuator for mode 1
        want = 1.0 * (stage**2) * np.sum(gains**2)
        assert np.isclose(b.gramian[0, 0], want, rtol=1e-12)

    def test_superposition_of_endpoint_maps(self, tg_setup, rng):
        space, ref, act, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        eta = rng.standard_normal((bundle.propagator.n_steps, act.M))
        inputs = eta @ act.mat.T
        full = bundle.propagator.forward(w0, inputs)
        free_end = bundle.propagator.total @ w0
        ctrl = bundle.propagator.forward(np.zeros(space.K), inputs)
        assert np.allclose(full[-1], free_end + ctrl[-1], atol=1e-12)

    def test_control_reaches_its_gramian_endpoint(self, tg_setup, rng):
        # duality: the control formed from the adjoint stage duals, driven
        # forward from rest, reaches the projected endpoint G g
        space, ref, act, bundle = tg_setup
        g = rng.standard_normal(bundle.N)
        control = bundle.control(g)
        end = bundle.propagator.forward(np.zeros(space.K), control.values @ act.mat.T)[-1]
        got = end[: bundle.N]
        want = bundle.gramian @ g
        assert np.allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


class TestMinNorm:
    def test_zero_state_zero_control(self, tg_setup):
        space, _, _, bundle = tg_setup
        eta = min_norm_control(bundle, np.zeros(space.K))
        assert np.allclose(eta.values, 0.0)

    def test_achieves_null_projection(self, tg_setup, rng):
        space, ref, act, bundle = tg_setup
        for _ in range(5):
            w0 = rng.standard_normal(space.K)
            eta = min_norm_control(bundle, w0)
            end = bundle.propagator.forward(w0, eta.values @ act.mat.T)[-1]
            assert np.linalg.norm(end[: bundle.N]) <= 1e-8 * np.linalg.norm(w0)

    def test_linearity(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        a = rng.standard_normal(space.K)
        b = rng.standard_normal(space.K)
        al, be = 0.7, -1.3
        combo = min_norm_control(bundle, al * a + be * b).values
        split = al * min_norm_control(bundle, a).values + be * min_norm_control(bundle, b).values
        assert np.max(np.abs(combo - split)) <= 1e-9 * max(1e-300, np.max(np.abs(split)))

    def test_matches_generic_qp_oracle(self, tg_setup, rng):
        # stack the decision vector (all step controls), take its endpoint
        # map from a forward pass of every unit control, and solve with the
        # generic equality-constrained solver (|x|^2 is the L2 norm / dt)
        space, ref, act, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        A = stacked_input_map(bundle)
        y = -(bundle.propagator.total @ w0)[: bundle.N]
        x, _ = solve_constrained_min(QuadraticProgram(np.eye(A.shape[1]), A, y))
        want = x.reshape(bundle.propagator.n_steps, act.M)
        got = min_norm_control(bundle, w0).values
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_unreachable_raises_with_hint(self):
        # tiny actuator (M=1) cannot null four modes on a short horizon
        space = build_space(nu=0.1, K=16, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=1.2, rho=0.1)
        act = build_actuator(space, chi, M=1)
        bundle = bundle_on(space, ref, 0.0, act, N=4, dt=DT)
        with pytest.raises(UnreachableTargetError, match="raise M"):
            min_norm_control(bundle, np.ones(space.K))

    def test_projection_already_null_gives_zero_control(self):
        # free flow of modes above N keeps the projection zero: minimal
        # norm control is zero
        space = build_space(nu=0.1, K=8, n=16)
        ref = zero_reference(space, horizon=2.0)
        act = build_actuator(space, uniform_mask(space), M=8)
        bundle = bundle_on(space, ref, 0.0, act, N=2, dt=DT)
        w0 = np.zeros(space.K)
        w0[5] = 3.0
        eta = min_norm_control(bundle, w0)
        assert np.allclose(eta.values, 0.0, atol=1e-12)


class TestRegularized:
    def test_large_eps_recovers_free_flow(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        control, v_end, _, _ = regularized_control(bundle, w0, eps=1e12)
        assert np.max(np.abs(control.values)) < 1e-9
        assert np.allclose(v_end, bundle.propagator.total @ w0, atol=1e-9)

    def test_zero_state(self, tg_setup):
        space, _, _, bundle = tg_setup
        control, v_end, q_traj, _ = regularized_control(bundle, np.zeros(space.K), 1e-4)
        assert np.allclose(control.values, 0.0)
        assert np.allclose(q_traj.states, 0.0)

    def test_kkt_identities_hold(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        for eps in (1e-2, 1e-4, 1e-6):
            rep = kkt_identity_check(bundle, w0, eps)
            assert rep["stepwise_max_rel"] <= 1e-9
            assert rep["identity_rel_gap"] <= 1e-8

    def test_kkt_detects_perturbed_actuator(self, tg_setup, rng):
        # the bundle's Gramian pairs the adjoint with the built actuator; one
        # changed entry makes the forward input and the pairing disagree
        space, _, act, bundle = tg_setup
        mat = act.mat.copy()
        i, j = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
        mat[i, j] *= 1.1
        broken = dataclasses.replace(bundle, actuator=dataclasses.replace(act, mat=mat))
        w0 = rng.standard_normal(space.K)
        for eps in (1e-2, 1e-4, 1e-6):
            assert kkt_identity_check(broken, w0, eps)["stepwise_max_rel"] > 1e-6

    def test_kkt_rejects_a_perturbed_control(self, tg_setup, rng, monkeypatch):
        # every control the ridge solve forms is off by a relative 1e-7, in
        # the refinement's forward pass and in the final one; the refinement
        # must not absorb that error, so the stepwise identity fails by
        # about 1e-7 at every eps
        space, _, _, bundle = tg_setup
        control = ReachabilityBundle.control
        monkeypatch.setattr(ReachabilityBundle, "control",
                            lambda self, g: control(self, (1 + 1e-7) * g))
        w0 = rng.standard_normal(space.K)
        for eps in (1e-2, 1e-4, 1e-6):
            assert kkt_identity_check(bundle, w0, eps)["stepwise_max_rel"] > 1e-9

    def test_identity_scales_quadratically(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        r1 = kkt_identity_check(bundle, w0, 1e-4)
        r2 = kkt_identity_check(bundle, 2.0 * w0, 1e-4)
        assert np.isclose(r2["identity_lhs"], 4.0 * r1["identity_lhs"], rtol=1e-10)
        assert np.isclose(r2["identity_rhs"], 4.0 * r1["identity_rhs"], rtol=1e-10)

    def test_endpoint_defect_bounded_by_observability_constant(self, tg_setup, rng):
        # |Pi_N v_eps(tau+1)|^2 <= (eps * D/2) |w0|^2 with the truncated
        # observability constant: the control pairing and the output forms
        # share one quadrature, so the inequality chain is exact arithmetic
        space, ref, act, bundle = tg_setup
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.4, rho=0.1)
        forms = forms_on(space, ref, 0.0, chi, bundle.N, [act.M], DT)
        D = truncated_constant(forms, act.M)
        w0 = rng.standard_normal(space.K)
        for eps in np.logspace(-2, -8, 7):
            _, v_end, _, _ = regularized_control(bundle, w0, eps)
            lhs = np.sum(v_end[: bundle.N] ** 2)
            assert lhs <= 0.5 * eps * D * (w0 @ w0) * (1 + 1e-10)

    def test_exact_minimum_dominates_ridge_norms(self, tg_setup, rng):
        # the ridge relaxes the endpoint constraint, so its control norm sits
        # below the exact minimal norm and approaches it from below
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        star = min_norm_control(bundle, w0).l2_norm()
        for eps in (1e-3, 1e-6, 1e-9):
            control, _, _, _ = regularized_control(bundle, w0, eps)
            assert control.l2_norm() <= star * (1 + 1e-12)

    def test_ridge_objective_never_exceeds_exact_minimum(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        star_sq = min_norm_control(bundle, w0).l2_norm_sq()
        for eps in (1e-3, 1e-6):
            control, v_end, _, _ = regularized_control(bundle, w0, eps)
            obj = control.l2_norm_sq() + np.sum(v_end[: bundle.N] ** 2) / eps
            assert obj <= star_sq * (1 + 1e-10)


@pytest.fixture(scope="module")
def broad_bundle():
    """Instance with a Gramian spectrum spread over many decades, so the
    worst-case sqrt(eps) defect rate of the ridge problem is realised."""
    space = build_space(nu=0.2, K=24, n=16)
    ref = taylor_green_reference(space, a0=0.5, a1=0.25, omega=1.0, horizon=2.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=1.0, rho=0.1)
    act = build_actuator(space, chi, M=16)
    return space, bundle_on(space, ref, 0.0, act, N=8, dt=DT)


class TestEpsilonLimit:
    def test_zero_state_all_zero(self, tg_setup):
        space, _, _, bundle = tg_setup
        w0 = np.zeros(space.K)
        rep = epsilon_limit_study(bundle, w0, [1e-2, 1e-4], min_norm_control(bundle, w0))
        assert max(rep["control_gap"]) == 0.0
        assert max(rep["endpoint_defect"]) == 0.0

    def test_monotone_convergence_and_slope(self, broad_bundle, rng):
        space, bundle = broad_bundle
        w0 = rng.standard_normal(space.K)
        rep = epsilon_limit_study(bundle, w0, np.logspace(-2, -8, 7),
                                  min_norm_control(bundle, w0))
        assert rep["defect_monotone"]
        assert rep["gap_monotone"]
        assert 0.3 <= rep["defect_slope"] <= 0.7

    def test_halving_eps_shrinks_defect_like_sqrt_two(self, broad_bundle, rng):
        space, bundle = broad_bundle
        w0 = rng.standard_normal(space.K)
        d1 = np.linalg.norm(regularized_control(bundle, w0, 1e-4)[1][: bundle.N])
        d2 = np.linalg.norm(regularized_control(bundle, w0, 5e-5)[1][: bundle.N])
        assert d1 / d2 == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_small_eps_close_to_min_norm(self, tg_setup, rng):
        space, _, _, bundle = tg_setup
        w0 = rng.standard_normal(space.K)
        rep = epsilon_limit_study(bundle, w0, [1e-10], min_norm_control(bundle, w0))
        rel = rep["control_gap"][0] / max(rep["min_norm_value"], 1e-300)
        assert rel <= 1e-4

    def test_reads_the_control_it_is_given(self):
        # an M = 1 actuator leaves 0.39 |w0| of four modes unreachable: the
        # minimal-norm control exists only under a loosened null_tol, and
        # the study takes that control instead of forming one at 1e-8
        space = build_space(nu=0.1, K=16, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=1.2, rho=0.1)
        bundle = bundle_on(space, ref, 0.0, build_actuator(space, chi, M=1), N=4, dt=DT)
        w0 = np.ones(space.K)
        with pytest.raises(UnreachableTargetError):
            min_norm_control(bundle, w0)
        eta_star = min_norm_control(bundle, w0, null_tol=0.9)
        rep = epsilon_limit_study(bundle, w0, [1e-2, 1e-4], eta_star)
        assert rep["min_norm_value"] == eta_star.l2_norm()
        assert len(rep["control_gap"]) == 2
