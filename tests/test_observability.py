"""Observability forms, truncated constants, control-dimension selection."""

import numpy as np
import pytest

from nsstab.dynamics import taylor_green_reference, zero_reference
from nsstab.observability import (
    full_constant,
    h1_l2_ratio,
    select_m1,
    truncated_constant,
)
from nsstab.spectral import ChiMask, build_space

from oracles import forms_on, heat_decay_O, heat_decay_R, uniform_mask

DT = 1.0 / 128


@pytest.fixture(scope="module")
def obs_setup():
    space = build_space(nu=0.15, K=16, n=16)
    ref = taylor_green_reference(space, a0=0.4, a1=0.2, omega=1.0, horizon=2.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.2, rho=0.1)
    forms = forms_on(space, ref, 0.0, chi, N=6, M_list=[2, 4, 8, 16, 32], dt=DT)
    return space, ref, chi, forms


class TestBuildForms:
    def test_heat_decay_scalar_oracle(self):
        space = build_space(nu=0.2, K=2, n=8)
        ref = zero_reference(space, horizon=2.0)
        chi = uniform_mask(space)
        forms = forms_on(space, ref, 0.0, chi, N=1, M_list=[8], dt=DT)
        a = space.alphas[0]
        assert forms.energy[0, 0] == pytest.approx(heat_decay_R(a), rel=1e-4)
        assert forms.output_full[0, 0] == pytest.approx(heat_decay_O(a), rel=1e-4)

    def test_zero_mask_reports_unobservable(self):
        space = build_space(nu=0.2, K=4, n=8)
        ref = zero_reference(space, horizon=2.0)
        vals = np.zeros((space.n, space.n))
        chi0 = ChiMask(values=vals, center=(0, 0), radius=0.1, rho=0.1, sup_norm=0.0)
        forms = forms_on(space, ref, 0.0, chi0, N=2, M_list=[4], dt=1.0 / 32)
        assert np.allclose(forms.output_full, 0.0)
        assert np.isinf(full_constant(forms))
        assert np.isinf(truncated_constant(forms, 4))

    def test_swap_symmetric_modes_have_equal_outputs(self):
        # wavevectors (0,1) and (1,0) are exchanged by the x-y swap, which
        # fixes a radially symmetric mask at the domain center
        space = build_space(nu=0.15, K=4, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        forms = forms_on(space, ref, 0.0, chi, N=4, M_list=[8], dt=1.0 / 64)
        modes = space.modes
        assert modes[0][:2] == (0, 1) and modes[2][:2] == (1, 0)
        o = np.diag(forms.output_full)
        assert abs(o[0] - o[2]) <= 1e-10 * o[0]
        assert abs(o[1] - o[3]) <= 1e-10 * o[1]

    def test_forms_symmetric_psd(self, obs_setup):
        _, _, _, forms = obs_setup
        for F in (forms.energy, forms.output_full, forms.output_h1,
                  forms.output_truncated(8)):
            assert np.allclose(F, F.T, atol=1e-12)
            assert np.linalg.eigvalsh(F).min() >= -1e-10


class TestTruncatedConstant:
    def test_uniform_mask_matches_per_mode_heat_oracle(self):
        space = build_space(nu=0.2, K=6, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = uniform_mask(space)
        forms = forms_on(space, ref, 0.0, chi, N=3, M_list=[4, 16], dt=DT)
        want = max(heat_decay_R(a) / heat_decay_O(a) for a in space.alphas[:3])
        assert full_constant(forms) == pytest.approx(want, rel=1e-4)
        assert truncated_constant(forms, 16) == pytest.approx(want, rel=1e-4)

    def test_m_zero_infinite(self, obs_setup):
        _, _, _, forms = obs_setup
        assert np.isinf(truncated_constant(forms, 0))

    def test_nonincreasing_in_m(self, obs_setup):
        _, _, _, forms = obs_setup
        ds = [truncated_constant(forms, M) for M in forms.M_list]
        finite = [d for d in ds if np.isfinite(d)]
        assert all(a >= b * (1 - 1e-10) for a, b in zip(ds, ds[1:])
                   if np.isfinite(a) and np.isfinite(b))
        assert finite, "at least one listed M must be observable"

    def test_psd_monotonicity_of_outputs(self, obs_setup):
        _, _, _, forms = obs_setup
        for M1, M2 in zip(forms.M_list, forms.M_list[1:]):
            diff = forms.output_truncated(M2) - forms.output_truncated(M1)
            assert np.linalg.eigvalsh(diff).min() >= -1e-10
        diff = forms.output_full - forms.output_truncated(forms.M_list[-1])
        assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_truncated_inequality_on_random_sample(self, obs_setup, rng):
        _, _, _, forms = obs_setup
        M = forms.M_list[-1]
        D = truncated_constant(forms, M)
        O = forms.output_truncated(M)
        for _ in range(100):
            q1 = rng.standard_normal(forms.N)
            q1 /= np.linalg.norm(q1)
            lhs = q1 @ forms.energy @ q1
            rhs = D * (q1 @ O @ q1)
            assert lhs <= rhs * (1 + 1e-8)

    def test_proof_chain_inequality(self, obs_setup, rng):
        # int |chi q|^2 <= int |P_M(chi q)|^2 + beta_M^{-1} int |chi q|_H1^2
        _, _, _, forms = obs_setup
        for M in (4, 8, 16):
            beta = forms.betas[M - 1]
            for _ in range(20):
                q1 = rng.standard_normal(forms.N)
                lhs = q1 @ forms.output_full @ q1
                rhs = q1 @ forms.output_truncated(M) @ q1 \
                    + (q1 @ forms.output_h1 @ q1) / beta
                assert lhs <= rhs * (1 + 1e-10)


class TestH1Ratio:
    def test_single_mode_exact_weight(self):
        space = build_space(nu=0.2, K=2, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = uniform_mask(space)
        forms = forms_on(space, ref, 0.0, chi, N=1, M_list=[4], dt=1.0 / 64)
        kx, ky, _ = space.modes[0]
        assert h1_l2_ratio(forms) == pytest.approx(1.0 + kx**2 + ky**2, rel=1e-10)

    def test_varies_continuously_with_amplitude(self):
        space = build_space(nu=0.15, K=8, n=16)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        cs = []
        for a0 in (0.0, 0.05, 0.1):
            ref = taylor_green_reference(space, a0=a0, horizon=2.0)
            forms = forms_on(space, ref, 0.0, chi, N=4, M_list=[8], dt=1.0 / 64)
            cs.append(h1_l2_ratio(forms))
        assert all(np.isfinite(c) for c in cs)
        assert abs(cs[1] - cs[0]) < 0.5 * max(cs[0], 1.0)


class TestSelectM1:
    def test_uniform_mask_picks_span_and_matches_d_inf(self):
        space = build_space(nu=0.2, K=6, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = uniform_mask(space)
        forms = forms_on(space, ref, 0.0, chi, N=3, M_list=[2, 4, 8, 16], dt=1.0 / 64)
        rep = select_m1(forms, slack=2.0)
        # smallest M spanning the first 3 Stokes wavevector-phases
        span_M = next(M for M in forms.M_list
                      if np.isfinite(truncated_constant(forms, M)))
        assert rep["M1"] == span_M
        assert truncated_constant(forms, rep["M1"]) == pytest.approx(rep["D_inf"], rel=1e-9)

    def test_infinite_slack_picks_first_finite(self, obs_setup):
        _, _, _, forms = obs_setup
        rep = select_m1(forms, slack=np.inf)
        first_finite = next(M for M in forms.M_list
                            if np.isfinite(truncated_constant(forms, M)))
        assert rep["M1"] == first_finite

    def test_shrinking_support_sweep_reported(self):
        space = build_space(nu=0.15, K=8, n=16, m_max=96)
        ref = zero_reference(space, horizon=2.0)
        m1s = []
        for radius in (2.6, 2.0, 1.4):
            chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=radius, rho=0.1)
            forms = forms_on(space, ref, 0.0, chi, N=4,
                             M_list=[2, 4, 8, 16, 32, 64, 96], dt=1.0 / 64)
            m1s.append(select_m1(forms, slack=2.0)["M1"])
        assert all(m is not None for m in m1s)   # recorded, not asserted monotone

    def test_extrapolation_path_when_nothing_qualifies(self, obs_setup):
        # D(32) = 92.9 exceeds 1.5 D(inf) = 70.9, and smaller M do worse
        _, _, _, forms = obs_setup
        rep = select_m1(forms, slack=1.5)
        assert rep["M1"] is None and rep["extrapolated"]
        density = len(forms.betas) / forms.betas[-1]
        factor = 1.5 / (1.5 - 1.0)
        assert rep["M_extrapolated"] == int(np.ceil(density * factor * rep["C_h1l2"]))
        assert rep["M_extrapolated"] > max(forms.M_list)

    def test_rejects_bad_slack(self, obs_setup):
        _, _, _, forms = obs_setup
        for slack in (0.5, 1.0):
            with pytest.raises(ValueError, match="slack must exceed 1"):
                select_m1(forms, slack=slack)
