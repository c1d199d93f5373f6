"""Advection, linearization, manufactured references, propagators."""

import numpy as np
import pytest

from nsstab import dynamics
from nsstab.dynamics import (
    AmplitudeSchedule,
    ReferenceTrajectory,
    bilinear_b,
    build_propagator,
    cn_advance,
    cn_step,
    cn_steps,
    linearization_matrix,
    refined_inverse,
    regularity_diagnostics,
    taylor_green_coefficients,
    taylor_green_reference,
    zero_reference,
)
from nsstab.errors import StepSolveError
from nsstab.spectral import build_actuator, build_space, ChiMask

from oracles import (
    adjoint_two_matrix,
    bilinear_oracle,
    forward_two_matrix,
    free_steps_two_matrix,
    linearized_apply,
    smoothing_ratio_l2,
)


def rel_diff(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestBilinear:
    def test_shear_mode_self_advection_vanishes(self, small_space):
        # u = (sin y, 0): y-only dependence of a horizontal field
        s = small_space
        c = np.zeros(s.K)
        j = s.modes.index((0, 1, 1))
        c[j] = 1.0
        u = s.synthesize(c)
        assert np.allclose(u[1], 0.0, atol=1e-14)
        assert np.max(np.abs(bilinear_b(s, c, c))) < 1e-13

    def test_taylor_green_is_a_gradient(self, small_space):
        c = taylor_green_coefficients(small_space)
        assert np.max(np.abs(bilinear_b(small_space, c, c))) < 1e-12
        assert np.max(np.abs(bilinear_oracle(small_space.modes, c, c))) < 1e-12

    def test_matches_convolution_sum_oracle(self, small_space, rng):
        s = small_space
        for _ in range(10):
            cu = rng.standard_normal(s.K)
            cv = rng.standard_normal(s.K)
            got = bilinear_b(s, cu, cv)
            want = bilinear_oracle(s.modes, cu, cv)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_bilinearity(self, small_space, rng):
        s = small_space
        a, b, c = (rng.standard_normal(s.K) for _ in range(3))
        got = bilinear_b(s, a + 2.0 * b, c)
        want = bilinear_b(s, a, c) + 2.0 * bilinear_b(s, b, c)
        assert np.allclose(got, want, atol=1e-12)

    def test_skew_symmetry_of_advection(self, small_space, rng):
        # <B(u, v), v> = 0 under the Leray projection on the torus
        s = small_space
        for _ in range(5):
            cu = rng.standard_normal(s.K)
            cv = rng.standard_normal(s.K)
            val = bilinear_b(s, cu, cv) @ cv
            scale = np.linalg.norm(cu) * np.linalg.norm(cv) ** 2
            assert abs(val) < 1e-11 * scale


class TestLinearization:
    def test_zero_reference(self, small_space, rng):
        z = np.zeros(small_space.K)
        v = rng.standard_normal(small_space.K)
        assert np.allclose(linearized_apply(small_space, z, v), 0.0)
        assert np.allclose(linearization_matrix(small_space, z).T @ v, 0.0)

    def test_adjoint_is_exact_transpose(self, small_space, rng):
        s = small_space
        cu = rng.standard_normal(s.K)
        B = linearization_matrix(s, cu)
        for _ in range(5):
            v = rng.standard_normal(s.K)
            q = rng.standard_normal(s.K)
            assert abs((B @ v) @ q - v @ (B.T @ q)) < 1e-12 * (
                np.linalg.norm(v) * np.linalg.norm(q) * max(1.0, np.linalg.norm(B)))

    def test_matrix_matches_convolution_oracle(self, small_space, rng):
        s = small_space
        cu = taylor_green_coefficients(s)
        B = linearization_matrix(s, cu)
        v = rng.standard_normal(s.K)
        want = bilinear_oracle(s.modes, v, cu) + bilinear_oracle(s.modes, cu, v)
        assert np.allclose(B @ v, want, atol=1e-11 * max(1.0, np.max(np.abs(want))))

    def test_matrix_columns_match_single_applications(self, small_space):
        s = small_space
        cu = taylor_green_coefficients(s)
        B = linearization_matrix(s, cu)
        for j in [0, 5, s.K - 1]:
            e = np.zeros(s.K)
            e[j] = 1.0
            assert np.allclose(B[:, j], linearized_apply(s, cu, e), atol=1e-12)

    def test_odd_truncation(self, rng):
        # an odd K keeps only the cosine mode of its last pair (K_pad = K + 1)
        s = build_space(nu=0.6, K=23, n=16)
        assert s.K_pad == 24
        ref = taylor_green_reference(s, a0=1.0, a1=0.5, omega=1.0, horizon=2.0)
        assert np.isfinite(ref.w_norm)
        cu, v = ref.u_at(0.3), rng.standard_normal(s.K)
        assert np.allclose(ref.bmat_at(0.3) @ v, linearized_apply(s, cu, v),
                           atol=1e-12 * max(1.0, np.max(np.abs(v))))


class TestReference:
    def test_zero_amplitudes(self, small_space):
        ref = zero_reference(small_space, horizon=4.0)
        assert np.allclose(ref.u_at(1.7), 0.0)
        assert np.allclose(ref.forcing_at(0.3), 0.0)
        assert ref.w_norm == 0.0

    def test_steady_taylor_green_forcing_is_stokes_diagonal(self, small_space):
        a = 0.7
        ref = taylor_green_reference(small_space, a0=a, horizon=4.0)
        c = taylor_green_coefficients(small_space)
        # B term vanishes, u_t = 0, so h = L u = alpha * coefficients exactly
        assert np.allclose(ref.forcing_at(2.0), small_space.alphas * (a * c), atol=1e-12)

    def test_resimulation_tracks_reference_at_scheme_order(self, small_space):
        # propagate u as a "perturbationless" linear problem: v = u solves
        # v_t + L v = h - B(u) with the frozen-midpoint scheme; halving dt
        # must shrink the endpoint error by about 4x.
        s = small_space
        ref = taylor_green_reference(s, a0=0.5, a1=0.3, omega=1.3, horizon=2.0)
        errs = []
        for dt in (1.0 / 32, 1.0 / 64):
            zref = zero_reference(s, horizon=2.0)
            n = int(round(1.0 / dt))
            forcing = np.array([
                ref.forcing_at((m + 0.5) * dt)
                - bilinear_b(s, ref.u_at((m + 0.5) * dt), ref.u_at((m + 0.5) * dt))
                for m in range(n)])
            end = build_propagator(s, zref, 0.0, dt).forward(ref.u_at(0.0), forcing)[-1]
            errs.append(np.linalg.norm(end - ref.u_at(1.0)))
        assert errs[1] < errs[0] / 3.0

    def test_w_norm_positive_and_scales(self, small_space):
        r1 = taylor_green_reference(small_space, a0=0.5, horizon=2.0)
        r2 = taylor_green_reference(small_space, a0=1.0, horizon=2.0)
        assert r1.w_norm > 0
        assert np.isclose(r2.w_norm, 2.0 * r1.w_norm, rtol=1e-12)

    def test_rejects_bad_schedule_and_horizon(self, small_space):
        with pytest.raises(ValueError):
            AmplitudeSchedule(np.inf)
        with pytest.raises(ValueError):
            ReferenceTrajectory(small_space, [(np.zeros(small_space.K),
                                               AmplitudeSchedule(1.0))], horizon=-1.0)


class TestPropagation:
    def test_free_decay_of_single_mode(self, small_space):
        s = small_space
        ref = zero_reference(s, horizon=2.0)
        for j in [0, 4]:
            w0 = np.zeros(s.K)
            w0[j] = 1.0
            end = build_propagator(s, ref, 0.0, 1.0 / 128).forward(w0)[-1]
            exact = np.exp(-s.alphas[j])
            assert abs(end[j] - exact) < 1e-5 * exact
            mask = np.ones(s.K, bool)
            mask[j] = False
            assert np.max(np.abs(end[mask])) < 1e-14

    def test_zero_data_zero_solution(self, small_space):
        ref = zero_reference(small_space, horizon=2.0)
        states = build_propagator(small_space, ref, 0.0, 1.0 / 64).forward(
            np.zeros(small_space.K))
        assert np.allclose(states, 0.0)

    def test_superposition(self, small_space, bump_mask, rng):
        s = small_space
        ref = taylor_green_reference(s, a0=0.4, a1=0.2, omega=1.0, horizon=2.0)
        act = build_actuator(s, bump_mask, M=8)
        dt = 1.0 / 64
        prop = build_propagator(s, ref, 0.0, dt)
        w0 = rng.standard_normal(s.K)
        eta = rng.standard_normal((prop.n_steps, act.M))
        inputs = eta @ act.mat.T
        full = prop.forward(w0, inputs)
        free = prop.forward(w0)
        ctrl = prop.forward(np.zeros(s.K), inputs)
        assert np.allclose(full, free + ctrl, atol=1e-12)

    def test_adjoint_free_decay(self, small_space):
        s = small_space
        ref = zero_reference(s, horizon=2.0)
        prop = build_propagator(s, ref, 0.0, 1.0 / 128)
        q1 = np.zeros(s.K)
        q1[2] = 1.0
        nodes, _ = prop.adjoint_block(q1)
        exact = np.exp(-s.alphas[2])
        assert abs(nodes[0][2] - exact) < 1e-5 * exact

    def test_duality_of_endpoint_maps(self, small_space, rng):
        s = small_space
        ref = taylor_green_reference(s, a0=0.5, a1=0.25, omega=2.0, horizon=2.0)
        prop = build_propagator(s, ref, 0.0, 1.0 / 64)
        for _ in range(5):
            w0 = rng.standard_normal(s.K)
            q1 = rng.standard_normal(s.K)
            lhs = prop.forward(w0)[-1] @ q1
            rhs = w0 @ prop.adjoint_block(q1)[0][0]
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_zero_terminal_datum(self, small_space):
        ref = zero_reference(small_space, horizon=2.0)
        prop = build_propagator(small_space, ref, 0.0, 1.0 / 64)
        nodes, _ = prop.adjoint_block(np.zeros(small_space.K))
        assert np.allclose(nodes, 0.0)

    def test_semigroup_property(self, small_space, rng):
        s = small_space
        ref = taylor_green_reference(s, a0=0.4, a1=0.2, omega=1.0, horizon=3.0)
        dt = 1.0 / 32
        p0 = build_propagator(s, ref, 0.0, dt)
        p1 = build_propagator(s, ref, 1.0, dt)
        w0 = rng.standard_normal(s.K)
        via = p1.total @ (p0.total @ w0)
        end = p1.forward(p0.forward(w0)[-1])[-1]
        assert np.allclose(via, end, atol=1e-12 * max(1.0, np.linalg.norm(via)))

    def test_block_forward_equals_single_vector_calls(self, small_space, rng):
        s = small_space
        ref = taylor_green_reference(s, a0=0.5, a1=0.25, omega=2.0, horizon=2.0)
        prop = build_propagator(s, ref, 0.0, 1.0 / 64)
        r = 5
        W0 = rng.standard_normal((s.K, r))
        inputs = rng.standard_normal((prop.n_steps, s.K, r))
        block = prop.forward(W0, inputs)
        assert block.shape == (prop.n_steps + 1, s.K, r)
        for j in range(r):
            col = prop.forward(W0[:, j], inputs[:, :, j])
            assert np.max(np.abs(block[:, :, j] - col)) <= 1e-14 * np.max(np.abs(col))

    def test_free_endpoint_map_computed_once(self, small_space):
        ref = taylor_green_reference(small_space, a0=0.4, horizon=2.0)
        prop = build_propagator(small_space, ref, 0.0, 1.0 / 32)
        assert prop.total is prop.total
        assert not prop.total.flags.writeable

    def test_discrete_energy_identity(self, small_space, rng):
        # d/dt |v|^2 = -2|v|_V^2 at the Crank-Nicolson midpoint, per step
        s = small_space
        ref = zero_reference(s, horizon=2.0)
        dt = 1.0 / 64
        states = build_propagator(s, ref, 0.0, dt).forward(rng.standard_normal(s.K))
        mids = 0.5 * (states[1:] + states[:-1])
        lhs = (np.sum(states[1:] ** 2, axis=1) - np.sum(states[:-1] ** 2, axis=1)) / dt
        rhs = -2.0 * np.sum(s.alphas * mids**2, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


class TestCnSteps:
    def test_singular_step_raises(self):
        dt = 1.0 / 16
        singular = -(2.0 / dt) * np.eye(3)      # I + h/2 F = 0
        with pytest.raises(StepSolveError, match="step 0"):
            cn_steps(lambda m: singular, 4, dt, 3)
        for step in (lambda: cn_step(singular, dt, 5),
                     lambda: cn_advance(singular, np.ones(3), dt, 5)):
            with pytest.raises(StepSolveError, match="step 5"):
                step()

    def test_one_engine_for_stacks_steps_and_vectors(self, rng):
        dt = 1.0 / 32
        Fs = rng.standard_normal((3, 6, 6))
        phi = cn_steps(lambda m: Fs[m], 3, dt, 6)
        for m, F in enumerate(Fs):
            assert np.array_equal(phi[m], cn_step(F, dt))
            for v in (rng.standard_normal(6), rng.standard_normal((6, 2))):
                want = phi[m] @ v
                got = cn_advance(F, v, dt)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestRefinedInverse:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Steps m of the solves made through dynamics._cn_solve."""
        made = []
        cn_solve = dynamics._cn_solve

        def spy(lhs, rhs, m):
            made.append(m)
            return cn_solve(lhs, rhs, m)
        monkeypatch.setattr(dynamics, "_cn_solve", spy)
        return made

    @staticmethod
    def step_matrix(rng, K=16, dt=1.0 / 128):
        return np.eye(K) + 0.5 * dt * rng.standard_normal((K, K))

    def test_nearby_warm_start_refines_to_round_off(self, rng, solves):
        A = self.step_matrix(rng)
        X0 = np.linalg.inv(A + 1e-6 * rng.standard_normal(A.shape))
        assert 1e-6 < np.abs(np.eye(16) - A @ X0).sum(axis=1).max() < 1e-4
        X = refined_inverse(A, X0, 3)
        assert np.abs(np.eye(16) - A @ X).sum(axis=1).max() <= 1e-13
        want = np.linalg.solve(A, np.eye(16))
        assert np.linalg.norm(X - want) <= 1e-13 * np.linalg.norm(want)
        assert solves == []

    def test_far_or_slow_warm_starts_fall_back_to_the_solve(self, rng, solves):
        A = self.step_matrix(rng)
        inv = np.linalg.solve(A, np.eye(16))
        # residual 0.6 I: over 1/2, refinement is not tried
        # residual 0.3 I: 0.09 before the last update, misses REFINE_TOL
        for X0 in (0.4 * inv, 0.7 * inv, np.zeros_like(A)):
            solves.clear()
            X = refined_inverse(A, X0, 4)
            assert solves == [4]
            assert np.array_equal(X, inv)

    def test_fallback_is_decided_per_matrix_of_a_stack(self, rng, solves):
        A = np.stack([self.step_matrix(rng), self.step_matrix(rng)])
        inv = np.linalg.solve(A, np.eye(16))
        X = refined_inverse(A, np.stack([np.zeros((16, 16)), inv[1]]), 2)
        assert solves == [2]
        assert np.array_equal(X[0], inv[0])
        assert np.linalg.norm(X[1] - inv[1]) <= 1e-13 * np.linalg.norm(inv[1])

    def test_singular_step_on_the_warm_path_raises(self, rng):
        dt = 1.0 / 16
        singular = -(2.0 / dt) * np.eye(3)      # I + h/2 F = 0
        near = cn_step(rng.standard_normal((3, 3)), dt)
        with pytest.raises(StepSolveError, match="step 6"):
            cn_step(singular, dt, 6, near)
        with pytest.raises(StepSolveError, match="step 6"):
            refined_inverse(np.zeros((2, 3, 3)), np.eye(3) + np.zeros((2, 3, 3)), 6)

    def test_warm_step_equals_the_solved_step(self, rng):
        dt = 1.0 / 128
        F0, dF = rng.standard_normal((2, 12, 12))
        near = cn_step(F0, dt)
        F = F0 + dt * dF
        want = cn_step(F, dt)
        got = cn_step(F, dt, 0, near)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestTwoMatrixModel:
    """phi alone against the model that also stores (I + h/2 F)^{-1}."""

    @pytest.fixture()
    def steps(self, small_space):
        ref = taylor_green_reference(small_space, a0=0.5, a1=0.25, omega=2.0,
                                     horizon=2.0)
        dt = 1.0 / 64
        return (build_propagator(small_space, ref, 0.0, dt),
                *free_steps_two_matrix(small_space, ref, 0.0, dt))

    def test_forward_with_inputs(self, small_space, steps, rng):
        prop, plus_inv, phi = steps
        for shape in ((small_space.K,), (small_space.K, 5)):
            w0 = rng.standard_normal(shape)
            f = rng.standard_normal((prop.n_steps,) + shape)
            want = forward_two_matrix(plus_inv, phi, prop.dt, w0, f)
            assert rel_diff(prop.forward(w0, f), want) <= 1e-12

    def test_adjoint_block(self, small_space, steps, rng):
        prop, plus_inv, phi = steps
        Q1 = rng.standard_normal((small_space.K, 5))
        nodes, stages = prop.adjoint_block(Q1)
        want_nodes, want_stages = adjoint_two_matrix(plus_inv, phi, Q1)
        assert rel_diff(nodes, want_nodes) <= 1e-12
        assert rel_diff(stages, want_stages) <= 1e-12

    def test_stage_is_node_average(self, small_space, steps, rng):
        nodes, stages = steps[0].adjoint_block(rng.standard_normal((small_space.K, 3)))
        assert np.array_equal(stages, 0.5 * (nodes[:-1] + nodes[1:]))


class TestRegularityDiagnostics:
    def test_zero_data(self, small_space, rng):
        ref = zero_reference(small_space, horizon=2.0)
        prop_report = regularity_diagnostics(small_space, ref, 0.0, runs=2,
                                             rng=np.random.default_rng(1), dt=1.0 / 32)
        assert prop_report["all_finite"]

    def test_single_mode_matches_scalar_calculus(self, small_space):
        # f = 0, zero reference, r0 = e_j: the sqrt(t)-weighted ratio has a
        # closed scalar form
        s = small_space
        ref = zero_reference(s, horizon=2.0)
        dt = 1.0 / 256
        prop = build_propagator(s, ref, 0.0, dt)
        j = 3
        r0 = np.zeros(s.K)
        r0[j] = 1.0
        states = prop.forward(r0)
        t = prop.times
        mids = 0.5 * (states[1:] + states[:-1])
        t_mids = t[:-1] + 0.5 * dt
        sup_tv = np.max(t * s.alphas[j] * states[:, j] ** 2)
        int_tdl = dt * np.sum(t_mids * s.alphas[j] ** 2 * mids[:, j] ** 2)
        got = sup_tv + int_tdl
        want = smoothing_ratio_l2(s.alphas[j])
        assert abs(got - want) < 2e-4 * want
        assert got <= 1.0

    def test_ratios_stable_under_refinement(self, small_space):
        s = small_space
        ref = taylor_green_reference(s, a0=0.4, horizon=2.0)
        r1 = regularity_diagnostics(s, ref, 0.0, 3, np.random.default_rng(7), dt=1.0 / 32)
        r2 = regularity_diagnostics(s, ref, 0.0, 3, np.random.default_rng(7), dt=1.0 / 64)
        for key in ("l1", "l2", "l3"):
            assert r2[key] < 4.0 * r1[key] + 1.0
