"""The generic constrained quadratic solver of the oracles and its KKT residuals."""

import numpy as np
import pytest

from oracles import (
    InfeasibleConstraintError,
    InvalidProgramError,
    QuadraticProgram,
    kkt_residual,
    minimizer_map_linearity_check,
    nullspace_qp,
    solve_constrained_min,
)


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


class TestSolve:
    def test_zero_target_zero_solution(self, rng):
        qp = QuadraticProgram(random_spd(rng, 6), rng.standard_normal((2, 6)),
                              np.zeros(2))
        x, mult = solve_constrained_min(qp)
        assert np.allclose(x, 0.0)
        assert np.allclose(mult, 0.0)

    def test_single_row_projection_closed_form(self, rng):
        a = rng.standard_normal(5)
        c = 1.7
        qp = QuadraticProgram(np.eye(5), a[None, :], np.array([c]))
        x, _ = solve_constrained_min(qp)
        assert np.allclose(x, c * a / (a @ a), atol=1e-12)

    def test_matches_nullspace_oracle(self, rng):
        for n, m in [(8, 3), (20, 7), (12, 1)]:
            J = random_spd(rng, n)
            A = rng.standard_normal((m, n))
            y = rng.standard_normal(m)
            qp = QuadraticProgram(J, A, y)
            x, _ = solve_constrained_min(qp)
            want = nullspace_qp(J, A, y)
            assert np.allclose(x, want, atol=1e-9 * max(1.0, np.linalg.norm(want)))
            assert x @ (J @ x) <= want @ (J @ want) * (1 + 1e-12)

    def test_beats_feasible_samples(self, rng):
        J = random_spd(rng, 9)
        A = rng.standard_normal((3, 9))
        y = rng.standard_normal(3)
        x, _ = solve_constrained_min(QuadraticProgram(J, A, y))
        _, s, vt = np.linalg.svd(A)
        Z = vt[3:].T
        for _ in range(20):
            z = x + Z @ rng.standard_normal(6)
            assert x @ (J @ x) <= z @ (J @ z) * (1 + 1e-12)

    def test_strict_convexity_of_midpoints(self, rng):
        J = random_spd(rng, 6)
        x1 = rng.standard_normal(6)
        x2 = rng.standard_normal(6)
        mid = 0.5 * (x1 + x2)
        assert mid @ (J @ mid) < 0.5 * (x1 @ (J @ x1) + x2 @ (J @ x2))

    def test_indefinite_cost_rejected(self, rng):
        J = np.diag([1.0, -0.5, 2.0])
        qp = QuadraticProgram(J, np.ones((1, 3)), np.array([1.0]))
        with pytest.raises(InvalidProgramError):
            solve_constrained_min(qp)

    def test_inconsistent_rank_deficient_constraint_rejected(self, rng):
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        qp = QuadraticProgram(np.eye(3), A, np.array([1.0, 5.0]))
        with pytest.raises(InfeasibleConstraintError):
            solve_constrained_min(qp)

    def test_consistent_rank_deficient_constraint_ok(self):
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        qp = QuadraticProgram(np.eye(3), A, np.array([1.0, 2.0]))
        x, _ = solve_constrained_min(qp)
        assert np.allclose(A @ x, [1.0, 2.0], atol=1e-10)


class TestKKTResidual:
    def test_solver_output_is_stationary(self, rng):
        J = random_spd(rng, 8)
        A = rng.standard_normal((3, 8))
        qp = QuadraticProgram(J, A, rng.standard_normal(3))
        x, mult = solve_constrained_min(qp)
        assert kkt_residual(qp, x, mult) < 1e-10

    def test_zero_everything(self):
        qp = QuadraticProgram(np.eye(4), np.ones((1, 4)), np.zeros(1))
        assert kkt_residual(qp, np.zeros(4), np.zeros(1)) == 0.0

    def test_grows_linearly_in_nullspace_perturbation(self, rng):
        J = random_spd(rng, 8)
        A = rng.standard_normal((3, 8))
        qp = QuadraticProgram(J, A, rng.standard_normal(3))
        x, mult = solve_constrained_min(qp)
        _, _, vt = np.linalg.svd(A)
        z = vt[3:].T @ rng.standard_normal(5)
        z /= np.linalg.norm(z)
        res = [kkt_residual(qp, x + d * z, mult) for d in (1e-4, 2e-4, 4e-4)]
        assert res[1] == pytest.approx(2.0 * res[0], rel=0.05)
        assert res[2] == pytest.approx(4.0 * res[0], rel=0.05)


class TestLinearityCheck:
    def test_batch_linearity_and_orthogonality(self, rng):
        J = random_spd(rng, 10)
        A = rng.standard_normal((4, 10))
        ys = [rng.standard_normal(4) for _ in range(40)]
        report = minimizer_map_linearity_check(J, A, ys, rng)
        assert report["max_linearity_defect"] <= 1e-10
        assert report["max_kernel_orthogonality_defect"] <= 1e-10

    def test_equal_split_is_exact(self, rng):
        J = random_spd(rng, 6)
        A = rng.standard_normal((2, 6))
        y = rng.standard_normal(2)

        def solve(t):
            x, _ = solve_constrained_min(QuadraticProgram(J, A, t))
            return x

        assert np.allclose(solve(0.5 * y + 0.5 * y), 0.5 * solve(y) + 0.5 * solve(y))
