"""Interval-concatenation stabilization: cutoff choice, decay chain, constants."""

import numpy as np
import pytest

from nsstab.cli import Pipeline
from nsstab.dynamics import Propagator, taylor_green_reference, zero_reference
from nsstab.errors import ResolutionTooSmallError
from nsstab.null_control import build_reachability, min_norm_control
from nsstab.observability import build_forms, select_m1
from nsstab.quadmin import DEFAULT_PINV_RTOL, pinv_psd
from nsstab.spectral import ChiMask, build_actuator, build_space
from nsstab.stabilizer import CutoffSearch, stabilize, weighted_control_norm

from oracles import (
    closed_interval_map,
    closed_interval_map_loop,
    cutoff_measure_per_n,
    stabilize_per_bundle,
)

DT = 1.0 / 128
M_LIST = (8, 16, 32, 64, 96, 128)


@pytest.fixture(scope="module")
def tg_search():
    """Shipped stabilization instance: strong shear, nontrivial cutoff;
    the search after choosing for lambda = 1."""
    space = build_space(nu=0.6, K=48, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.8, a1=0.9, omega=1.0, horizon=7.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    search = CutoffSearch(space, ref, chi, M_LIST, n_max=6, dt=DT)
    return search, search.choose(1.0)


@pytest.fixture(scope="module")
def tg_instance(tg_search):
    search, choice = tg_search
    return search.space, search.traj, search.chi, choice


@pytest.fixture(scope="module")
def tg_bundle(tg_instance):
    """Interval [0, 1] of the shipped instance at its chosen N and M1."""
    space, ref, chi, choice = tg_instance
    act = build_actuator(space, chi, choice.M1)
    return build_reachability(space, ref, 0.0, act, choice.N, DT)


def leading_defect(bundle):
    """|Pi_N of the closed map| / |free map|: zero when the null control
    annihilates the leading endpoint modes."""
    closed = closed_interval_map(bundle)
    return np.linalg.norm(closed[: bundle.N], 2) / np.linalg.norm(bundle.free_map, 2)


class TestClosedIntervalMap:
    def test_block_forward_matches_loop_reference(self, tg_bundle):
        got = closed_interval_map(tg_bundle)
        want = closed_interval_map_loop(tg_bundle, DEFAULT_PINV_RTOL)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_null_control_annihilates_leading_modes(self, tg_bundle):
        assert tg_bundle.N > 0 and tg_bundle.gramian_rank == tg_bundle.N
        assert leading_defect(tg_bundle) <= 1e-8

    def test_leading_defect_detects_shifted_input(self, tg_bundle, monkeypatch):
        forward = Propagator.forward

        def late_forward(self, w0, inputs=None):
            late = None if inputs is None else np.roll(inputs, 1, axis=0)
            return forward(self, w0, late)
        monkeypatch.setattr(Propagator, "forward", late_forward)
        assert leading_defect(tg_bundle) > 1e-6


def assert_matches_per_n_measurement(search):
    """Every cutoff the search measured has the M1 and, to 1e-11 relative,
    the per-interval factors of the per-N reference path."""
    cutoffs = sorted(N for N in search.measured if N)
    assert len(cutoffs) >= 3
    for N in cutoffs:
        rep, factors = search.measured[N]
        want_rep, want = cutoff_measure_per_n(search, N)
        assert rep["M1"] == want_rep["M1"]
        assert np.max(np.abs(np.array(factors) - want) / np.array(want)) <= 1e-11


class TestChooseN:
    def test_shared_sweep_matches_per_n_measurement(self, tg_search):
        search, _ = tg_search
        assert_matches_per_n_measurement(search)

    def test_shared_sweep_matches_per_n_on_the_cli_config(self, small_cfg):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        p.choice(cfg.control.lam)
        p.choice(p.lam_hat)
        assert_matches_per_n_measurement(p.search)

    def test_free_decay_suffices_for_small_lambda(self):
        space = build_space(nu=0.6, K=8, n=16)
        ref = zero_reference(space, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        choice = CutoffSearch(space, ref, chi, M_list=(8, 16), n_max=2,
                              dt=1.0 / 64).choose(1.0)
        assert choice.N == 0
        assert choice.contraction <= np.exp(-0.5)

    def test_huge_lambda_raises_resolution_error(self):
        space = build_space(nu=0.6, K=8, n=16)
        ref = zero_reference(space, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        search = CutoffSearch(space, ref, chi, M_list=(8, 16, 32), n_max=1, dt=1.0 / 64)
        with pytest.raises(ResolutionTooSmallError):
            search.choose(30.0)

    def test_taylor_green_choice_pinned(self, tg_instance):
        # regression values frozen after the first computation; the search is
        # deterministic so these reproduce exactly
        _, _, _, choice = tg_instance
        assert choice.N == 8
        assert choice.M1 == 32
        assert choice.contraction <= np.exp(-0.5)
        assert len(choice.per_interval) == 6
        assert set(choice.symbolic_threshold) == {"alpha_next", "e_lambda", "C_chi_prime"}

    def test_rejects_nonpositive_lambda(self):
        space = build_space(nu=0.6, K=4, n=16)
        ref = zero_reference(space, horizon=2.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        with pytest.raises(ValueError):
            CutoffSearch(space, ref, chi, M_list=(8,), n_max=1).choose(0.0)


def assert_matches_per_bundle(search, choice, v0):
    """The run equals the bundle-built reference: states to 1e-11 of each
    column's max, controls to 1e-11 relative."""
    run = stabilize(search, choice, v0)
    states, controls = stabilize_per_bundle(search, choice, v0)
    scale = np.max(np.abs(states), axis=0)
    assert np.all(np.abs(run.trajectory.states - states) <= 1e-11 * scale)
    for got, want in zip(run.controls, controls, strict=True):
        assert np.max(np.abs(got.values - want)) <= 1e-11 * np.max(np.abs(want))


class TestStabilize:
    def test_zero_state_zero_everything(self, tg_search):
        search, choice = tg_search
        run = stabilize(search, choice, np.zeros(search.space.K))
        assert np.allclose(run.trajectory.states, 0.0)
        assert all(np.allclose(c.values, 0.0) for c in run.controls)

    def test_free_mode_needs_no_control(self):
        space = build_space(nu=0.6, K=8, n=16)
        ref = zero_reference(space, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        search = CutoffSearch(space, ref, chi, M_list=(8, 16), n_max=3, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        run = stabilize(search, search.choose(1.0), v0)
        assert run.N == 0
        assert all(np.allclose(c.values, 0.0) for c in run.controls)
        want = np.exp(-space.alphas[0] * np.arange(4))
        assert np.allclose(run.integer_h_norms, want, rtol=1e-4)

    def test_integer_decay_chain_no_violations(self, tg_search, rng):
        search, choice = tg_search
        for _ in range(3):
            v0 = rng.standard_normal(search.space.K)
            run = stabilize(search, choice, v0)
            lhs = run.integer_h_norms[1:] ** 2
            rhs = np.exp(-np.arange(1, 7)) * run.integer_h_norms[0] ** 2
            assert np.all(lhs <= rhs)
            assert run.summary()["integer_decay_ok"]

    def test_projection_nulling(self, tg_search, rng):
        search, choice = tg_search
        v0 = rng.standard_normal(search.space.K)
        run = stabilize(search, choice, v0)
        assert np.max(run.projection_defects) <= 1e-8 * np.linalg.norm(v0)

    def test_projection_defect_detects_shifted_input(self, tg_search, rng,
                                                     monkeypatch):
        # the search's tables are built before the patch, so only the
        # run's own forward passes apply each input one step late
        search, choice = tg_search
        v0 = rng.standard_normal(search.space.K)
        forward = Propagator.forward

        def late_forward(self, w0, inputs=None):
            late = None if inputs is None else np.roll(inputs, 1, axis=0)
            return forward(self, w0, late)
        monkeypatch.setattr(Propagator, "forward", late_forward)
        run = stabilize(search, choice, v0)
        assert np.max(run.projection_defects) > 1e-6 * np.linalg.norm(v0)

    def test_matches_per_bundle_reference(self, tg_search, rng):
        search, choice = tg_search
        assert_matches_per_bundle(search, choice, rng.standard_normal(search.space.K))

    def test_matches_per_bundle_reference_on_the_cli_config(self, small_cfg):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choice = p.choice(p.lam_hat)
        assert choice.N > 0
        assert_matches_per_bundle(p.search, choice, p.rng.standard_normal(cfg.space.K))

    def test_endpoints_follow_the_search_tables(self, tg_search, rng):
        # v(n + 1) = A v(n) + E[:, :N] g with g = -G^+ (A v(n))[:N], G and E
        # the search's Gramian and endpoint responses of interval n
        search, choice = tg_search
        N = choice.N
        run = stabilize(search, choice, rng.standard_normal(search.space.K))
        gramians, endpoints = search.tables[choice.M1]
        nodes = run.trajectory.states[::search.propagators[0].n_steps]
        for i, prop in enumerate(search.propagators):
            free = prop.total @ nodes[i]
            Gp, _ = pinv_psd(gramians[i][:N, :N], search.pinv_rtol)
            want = free + endpoints[i][:, :N] @ (Gp @ -free[:N])
            assert np.linalg.norm(nodes[i + 1] - want) <= 1e-11 * np.linalg.norm(want)

    def test_pipeline_linearity(self, tg_search, rng):
        search, choice = tg_search
        v0 = rng.standard_normal(search.space.K)
        r1 = stabilize(search, choice, v0)
        r2 = stabilize(search, choice, 2.5 * v0)
        scale = np.max(np.abs(r2.trajectory.states))
        assert np.max(np.abs(r2.trajectory.states - 2.5 * r1.trajectory.states)) \
            <= 1e-9 * scale
        cscale = max(np.max(np.abs(c.values)) for c in r2.controls)
        for c1, c2 in zip(r1.controls, r2.controls):
            assert np.max(np.abs(c2.values - 2.5 * c1.values)) <= 1e-9 * cscale

    def test_trajectory_continuous_across_joints(self, tg_search, rng):
        search, choice = tg_search
        run = stabilize(search, choice, rng.standard_normal(search.space.K))
        t = run.trajectory.times
        assert np.allclose(np.diff(t), DT)
        assert len(t) == len(search.propagators) * 128 + 1

    def test_v_norm_decay_constant_finite(self, tg_search, rng):
        search, choice = tg_search
        space = search.space
        v0 = rng.standard_normal(space.K)
        run = stabilize(search, choice, v0)
        assert np.isfinite(run.kappa3) and run.kappa3 > 0
        assert np.isfinite(run.kappa3_smoothing)
        # the measured kappa3 realises the V-norm decay bound on t >= 1
        t = run.trajectory.times
        v2 = np.sum(space.alphas * run.trajectory.states**2, axis=1)
        v0_v2 = space.alphas @ v0**2
        late = t >= 1.0
        assert np.all(v2[late] <= run.kappa3 * v0_v2 * np.exp(-run.lam * t[late])
                      * (1 + 1e-12))


class TestWeightedControlNorm:
    def test_zero_control_zero_kappa2(self):
        space = build_space(nu=0.6, K=8, n=16)
        ref = zero_reference(space, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.0, rho=0.1)
        search = CutoffSearch(space, ref, chi, M_list=(8,), n_max=2, dt=1.0 / 64)
        v0 = np.zeros(space.K)
        v0[0] = 1.0
        run = stabilize(search, search.choose(1.0), v0)
        assert weighted_control_norm(run, 0.5) == 0.0

    def test_unweighted_is_plain_energy_ratio(self, tg_search, rng):
        search, choice = tg_search
        v0 = rng.standard_normal(search.space.K)
        run = stabilize(search, choice, v0)
        plain = sum(c.l2_norm_sq() for c in run.controls) / (v0 @ v0)
        assert weighted_control_norm(run, 0.0) == pytest.approx(plain, rel=1e-12)

    def test_grows_toward_lambda_and_respects_geometric_bound(self, tg_search, rng):
        search, choice = tg_search
        v0 = rng.standard_normal(search.space.K)
        run = stabilize(search, choice, v0)
        k2 = [weighted_control_norm(run, lt) for lt in (0.0, 0.3, 0.5, 0.8)]
        assert all(a < b for a, b in zip(k2, k2[1:]))
        d_m1 = choice.observability["D_table"][choice.M1]
        c_chi_prime = 4.0 * d_m1 * search.chi.sup_norm**2
        lam = run.lam
        for lt, val in zip((0.0, 0.3, 0.5, 0.8), k2):
            bound = c_chi_prime * np.exp(lt) / (1.0 - np.exp(lt - lam))
            assert val <= bound

    def test_rejects_rate_at_or_above_lambda(self, tg_search, rng):
        search, choice = tg_search
        run = stabilize(search, choice, rng.standard_normal(search.space.K))
        with pytest.raises(ValueError):
            weighted_control_norm(run, 1.0)
        with pytest.raises(ValueError):
            weighted_control_norm(run, -0.1)


class TestUniformControlBound:
    def test_control_energy_bounded_by_observability_constant(self, tg_instance, rng):
        # |eta*|^2 <= 4 D(M1) |w0|^2: the interval null control inherits the
        # truncated-observability constant uniformly over states
        space, ref, chi, choice = tg_instance
        act = build_actuator(space, chi, choice.M1)
        bundle = build_reachability(space, ref, 0.0, act, choice.N, DT)
        d_m1 = choice.observability["D_table"][choice.M1]
        for _ in range(10):
            w0 = rng.standard_normal(space.K)
            eta = min_norm_control(bundle, w0)
            assert eta.l2_norm_sq() <= 4.0 * d_m1 * (w0 @ w0) * (1 + 1e-6)
