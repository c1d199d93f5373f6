"""Spectral core: bases, norms, actuator."""

import numpy as np
import pytest

from nsstab.errors import DealiasingError
from nsstab.spectral import ChiMask, build_actuator, build_space

from oracles import NORM, apply_chi_pm, grid_inner, synthesize_laplacian, uniform_mask


def brute_force_alphas(nu, K):
    """Enumerate nu*|k|^2 with multiplicity 2 per half-lattice wavevector."""
    vals = []
    for ky in range(0, 12):
        for kx in range(-11, 12):
            if ky == 0 and kx <= 0:
                continue
            vals += [nu * (kx * kx + ky * ky)] * 2
    return np.sort(np.array(vals))[:K]


class TestBuildSpace:
    def test_two_mode_alphas(self):
        space = build_space(nu=0.1, K=2, n=8)
        assert np.allclose(space.alphas, [0.1, 0.1])

    def test_single_mode(self):
        space = build_space(nu=1.0, K=1, n=8)
        (kx, ky, _), = space.modes
        assert (kx, ky) in [(1, 0), (0, 1)]
        assert space.alphas[0] == 1.0

    def test_alphas_match_brute_force_enumeration(self):
        space = build_space(nu=0.05, K=60, n=32)
        assert np.all(np.diff(space.alphas) >= 0)
        assert np.allclose(space.alphas, brute_force_alphas(0.05, 60))

    def test_betas_nondecreasing_and_exclude_zero_mode(self):
        space = build_space(nu=0.1, K=8, n=16)
        assert np.all(np.diff(space.betas) >= 0)
        assert space.betas[0] > 0
        assert all((kx, ky) != (0, 0) for kx, ky, _ in space.modes)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_space(nu=0.1, K=0, n=16)
        with pytest.raises(DealiasingError):
            build_space(nu=0.1, K=60, n=8)
        with pytest.raises(ValueError):
            build_space(nu=-1.0, K=4, n=16)

    def test_modes_divergence_free_and_orthonormal(self, small_space):
        s = small_space
        # divergence-free directions: k . e_k = 0 encoded in the table
        for kx, ky, _ in s.modes:
            kn = np.hypot(kx, ky)
            assert abs(kx * (-ky / kn) + ky * (kx / kn)) < 1e-15
        gram = s.quad_w * (s.mode_fields @ s.mode_fields.T)
        assert np.allclose(gram, np.eye(s.K_pad), atol=1e-12)

    def test_divergence_free_on_grid(self, small_space, rng):
        s = small_space
        c = rng.standard_normal(s.K)
        # spectral divergence via the coefficient derivative maps is zero by
        # construction; check on the grid with FFT derivatives instead
        u = s.synthesize(c)
        kfreq = np.fft.fftfreq(s.n, d=1.0 / s.n)
        ux_hat = np.fft.fft2(u[0])
        uy_hat = np.fft.fft2(u[1])
        div_hat = 1j * kfreq[:, None] * ux_hat + 1j * kfreq[None, :] * uy_hat
        assert np.max(np.abs(np.fft.ifft2(div_hat).real)) < 1e-10


class TestNormsAndProjection:
    def test_unit_coefficient(self, small_space):
        for j in [0, 3, small_space.K - 1]:
            c = np.zeros(small_space.K)
            c[j] = 1.0
            h, v, dl = small_space.norms(c)
            a = small_space.alphas[j]
            assert np.allclose([h, v, dl], [1.0, np.sqrt(a), a])

    def test_zero_field(self, small_space):
        assert small_space.norms(np.zeros(small_space.K)) == (0.0, 0.0, 0.0)

    def test_pythagoras(self):
        space = build_space(nu=0.1, K=2, n=8)
        h, v, _ = space.norms(np.array([3.0, 4.0]))
        assert np.isclose(h, 5.0)
        assert np.isclose(v, 5.0 * np.sqrt(0.1))

    def test_parseval_roundtrip(self, small_space, rng):
        c = rng.standard_normal(small_space.K)
        c2 = small_space.analyze(small_space.synthesize(c))
        assert np.max(np.abs(c2 - c)) < 1e-12 * np.max(np.abs(c))

    def test_poincare_ordering(self, small_space, rng):
        s = small_space
        c = rng.standard_normal(s.K)
        h, v, _ = s.norms(c)
        assert s.alphas[0] * h**2 <= v**2 * (1 + 1e-12)
        assert v**2 <= s.alphas[-1] * h**2 * (1 + 1e-12)


class TestChiMask:
    def test_bump_range_and_support(self, small_space):
        chi = ChiMask.bump(small_space, center=(np.pi, np.pi), radius=1.5)
        assert chi.values.min() >= 0.0
        assert chi.values.max() <= 1.0
        assert chi.sup_norm > 0.0
        X, Y = small_space.grid_points()
        outside = (X - np.pi) ** 2 + (Y - np.pi) ** 2 > 1.5**2
        assert np.all(chi.values[outside] == 0.0)

    def test_rejects_degenerate(self, small_space):
        with pytest.raises(ValueError):
            ChiMask.bump(small_space, radius=-1.0)


class TestActuator:
    def test_uniform_mask_maps_modes_exactly(self, small_space):
        s = small_space
        chi = uniform_mask(s)
        act = build_actuator(s, chi, M=24)
        # with chi == 1 the Leray projection of a Laplacian mode combination
        # reproduces each Stokes mode: A A^T = identity on the covered modes
        covered = s.alphas / s.nu <= s.betas[23]
        gram = act.gram
        assert np.allclose(gram[covered][:, covered],
                           np.eye(int(covered.sum())), atol=1e-12)

    def test_zero_mask_gives_zero(self, small_space):
        vals = np.zeros((small_space.n, small_space.n))
        chi = ChiMask(values=vals, center=(0, 0), radius=0.1, rho=0.1, sup_norm=0.0)
        act = build_actuator(small_space, chi, M=8)
        assert np.allclose(act.mat, 0.0)

    def test_adjoint_consistency_against_quadrature(self, small_space, bump_mask, rng):
        s = small_space
        act = build_actuator(s, bump_mask, M=10)
        eta = rng.standard_normal(10)
        cv = rng.standard_normal(s.K)
        lhs = (act.mat @ eta) @ cv
        # direct grid quadrature of integral chi (P_M eta) . v dx
        rhs = grid_inner(s, bump_mask.values[None] * synthesize_laplacian(s, eta),
                         s.synthesize(cv))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        # exact transpose
        assert abs((act.mat @ eta) @ cv - eta @ act.adjoint(cv)) < 1e-13 * max(1.0, abs(lhs))

    def test_apply_chi_pm_matches_dense_composition(self, small_space, bump_mask, rng):
        s = small_space
        M = 12
        act = build_actuator(s, bump_mask, M=M)
        cv = rng.standard_normal(s.K)
        direct = apply_chi_pm(s, bump_mask, M, cv)
        assert np.allclose(direct, act.adjoint(cv), atol=1e-13)

    def test_apply_chi_pm_uniform_recovers_low_modes(self, small_space):
        s = small_space
        chi = uniform_mask(s)
        eta = np.zeros(8)
        eta[2] = 1.3
        v = s.analyze(synthesize_laplacian(s, eta))  # Leray-projected mode
        back = apply_chi_pm(s, chi, 8, v)
        # chi P_M chi acts as the symmetric kernel A A^T restricted
        act = build_actuator(s, chi, M=8)
        assert np.allclose(back, act.mat.T @ (act.mat @ eta), atol=1e-12)

    def test_mode_normalisation_constant(self, small_space):
        # grid value at the center of a cos mode equals NORM * direction
        s = small_space
        c = np.zeros(s.K)
        j = next(i for i, (kx, ky, ph) in enumerate(s.modes) if ph == 0)
        c[j] = 1.0
        kx, ky, _ = s.modes[j]
        kn = np.hypot(kx, ky)
        u = s.synthesize(c)
        assert np.isclose(u[0, 0, 0], NORM * (-ky / kn))
        assert np.isclose(u[1, 0, 0], NORM * (kx / kn))
