"""Nonlinear closed loop: contraction probe, Duhamel identity, basin sweep."""

import tracemalloc

import numpy as np
import pytest

from nsstab import dynamics, nonlinear
from nsstab.dynamics import Propagator, Trajectory, bilinear_b, taylor_green_reference
from nsstab.errors import StepSolveError
from nsstab.feedback import closed_loop_linear, riccati_solve
from nsstab.nonlinear import (
    basin_sweep,
    closed_loop_steps,
    contraction_probe,
    decay_report,
    simulate_closed_loop,
    zlambda_norm,
)
from nsstab.spectral import ChiMask, build_actuator, build_space

from oracles import bilinear_oracle, duhamel_bound_check

DT = 1.0 / 128


@pytest.fixture(scope="module")
def loop_setup():
    space = build_space(nu=0.6, K=24, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=15.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    act = build_actuator(space, chi, M=32)
    law = riccati_solve(ref, lam=1.0, actuator=act, T_h=14.0, dt=DT)
    stepper = closed_loop_steps(law, 0.0, 6.0)
    return space, ref, law, stepper


@pytest.fixture(scope="module")
def short_stepper(loop_setup):
    space, ref, law, _ = loop_setup
    return closed_loop_steps(law, 0.0, 2.0)


def unit_v_direction(space, rng):
    d = rng.standard_normal(space.K)
    return d / np.sqrt(space.alphas @ d**2)


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def count_bilinear_calls(monkeypatch):
    calls = []

    def counted(space, cu, cv):
        calls.append(np.shape(cu))
        return bilinear_b(space, cu, cv)
    monkeypatch.setattr(nonlinear, "bilinear_b", counted)
    return calls


class TestZLambdaNorm:
    def test_zero_iff_zero(self, loop_setup):
        space, _, law, stepper = loop_setup
        z = Trajectory(times=stepper.times, states=np.zeros((stepper.n_steps + 1,
                                                             space.K)))
        assert zlambda_norm(space, z, law.lam) == 0.0

    def test_matches_loop_reference(self, loop_setup, rng):
        # decaying at rate lam, so every window competes for the sup
        space, _, law, stepper = loop_setup
        t = stepper.times - stepper.times[0]
        states = rng.standard_normal((stepper.n_steps + 1, space.K)) \
            * np.exp(-law.lam * t / 2.0)[:, None]
        z = Trajectory(times=stepper.times, states=states)
        dt = z.dt
        v2 = np.sum(space.alphas * states**2, axis=1)
        mids = 0.5 * (states[1:] + states[:-1])
        dl_mid = np.sum(space.alphas**2 * mids**2, axis=1)
        w_mid = np.exp(law.lam * (t[:-1] + 0.5 * dt))
        window = int(round(1.0 / dt))
        cum = np.concatenate([[0.0], np.cumsum(dt * w_mid * dl_mid)])
        n = len(t)
        best = 0.0
        for m in range(n):
            hi = min(m + window, n - 1)
            best = max(best, np.exp(law.lam * t[m]) * v2[m] + (cum[hi] - cum[m]))
        assert zlambda_norm(space, z, law.lam) == pytest.approx(np.sqrt(best),
                                                                rel=1e-14)

    def test_degree_one_homogeneity(self, loop_setup, rng):
        space, _, law, stepper = loop_setup
        states = rng.standard_normal((stepper.n_steps + 1, space.K))
        z = Trajectory(times=stepper.times, states=states)
        z3 = Trajectory(times=stepper.times, states=3.0 * states)
        assert zlambda_norm(space, z3, law.lam) == pytest.approx(
            3.0 * zlambda_norm(space, z, law.lam), rel=1e-12)


class TestSimulateClosedLoop:
    def test_zero_state_forever(self, loop_setup):
        space, ref, law, stepper = loop_setup
        tr, rep = simulate_closed_loop(stepper, np.zeros(space.K))
        assert np.allclose(tr.states, 0.0)
        assert rep["blowup_t"] is None

    def test_tiny_state_matches_linear_loop(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = 1e-6 * unit_v_direction(space, rng)
        nl, _ = simulate_closed_loop(stepper, v0)
        lin = stepper.run_linear(v0)
        assert np.max(np.abs(nl.states - lin.states)) <= 1e-9

    def test_decay_at_gate_scale(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        for _ in range(3):
            v0 = 2.0 * unit_v_direction(space, rng)
            tr, rep = simulate_closed_loop(stepper, v0, eps_gate=2.0, theta_cap=2.0)
            assert rep["inside_gate"]
            assert rep["decayed"]
            assert rep["theta"] <= 2.0

    def test_quadratic_consistency_slope(self, loop_setup, rng):
        # |nonlinear - linear| in C([0,1], H) scales like |v0|_V^2
        space, ref, law, _ = loop_setup
        st1 = closed_loop_steps(law, 0.0, 1.0)
        d = unit_v_direction(space, rng)
        scales = np.array([0.01, 0.03, 0.1, 0.3])
        gaps = []
        for s in scales:
            nl, _ = simulate_closed_loop(st1, s * d)
            lin = st1.run_linear(s * d)
            gaps.append(np.max(np.linalg.norm(nl.states - lin.states, axis=1)))
        slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_integrator_second_order(self, rng):
        # half versus full step converge to one trajectory at order two
        space = build_space(nu=0.6, K=8, n=16)
        ref = taylor_green_reference(space, a0=1.0, a1=0.5, omega=1.0, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=8)
        v0 = 0.5 * unit_v_direction(space, rng)
        ends = []
        for dt in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            law = riccati_solve(ref, lam=1.0, actuator=act, T_h=6.0, dt=dt)
            tr, _ = simulate_closed_loop(closed_loop_steps(law, 0.0, 2.0), v0)
            ends.append(tr.states[-1])
        d1 = np.linalg.norm(ends[0] - ends[1])
        d2 = np.linalg.norm(ends[1] - ends[2])
        assert d1 / d2 == pytest.approx(4.0, rel=0.5)


class TestXiMap:
    def test_zero_input_gives_linear_solution(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = 0.3 * unit_v_direction(space, rng)
        xi0 = stepper.run_xi(v0, np.zeros((stepper.n_steps + 1, space.K)))
        lin = stepper.run_linear(v0)
        assert np.allclose(xi0.states, lin.states, atol=1e-14)

    def test_zero_everything(self, loop_setup):
        space, ref, law, stepper = loop_setup
        out = stepper.run_xi(np.zeros(space.K), np.zeros((stepper.n_steps + 1, space.K)))
        assert np.allclose(out.states, 0.0)

    def test_fixed_point_is_nonlinear_trajectory(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = 0.5 * unit_v_direction(space, rng)
        probe = contraction_probe(stepper, v0, rng, pairs=0)
        nl, _ = simulate_closed_loop(stepper, v0)
        gap = zlambda_norm(space, Trajectory(times=nl.times,
                                             states=nl.states
                                             - probe["fixed_point"].states),
                           law.lam)
        assert gap <= 1e-8


class TestContractionProbe:
    def test_zero_state_zero_ratio(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        rep = contraction_probe(stepper, np.zeros(space.K), rng, pairs=0)
        assert rep["gamma_hat"] == 0.0
        assert rep["converged"]

    def test_geometric_convergence_below_one(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = 2.0 * unit_v_direction(space, rng)
        rep = contraction_probe(stepper, v0, rng, pairs=3)
        assert rep["converged"]
        assert 0.0 < rep["gamma_hat"] < 1.0
        assert rep["pairs_within_headroom"]

    def test_ratio_scales_linearly_with_amplitude(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        d = unit_v_direction(space, rng)
        scales = np.array([0.05, 0.2, 0.8])
        gammas = []
        for s in scales:
            rep = contraction_probe(stepper, s * d, rng, pairs=0)
            gammas.append(rep["gamma_hat"])
        slope = np.polyfit(np.log(scales), np.log(gammas), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.3)

    def test_fixed_point_independent_of_start(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = 0.5 * unit_v_direction(space, rng)
        probe = contraction_probe(stepper, v0, rng, pairs=0)
        a = Trajectory(times=stepper.times,
                       states=np.zeros((stepper.n_steps + 1, space.K)))
        for _ in range(30):
            a = stepper.run_xi(v0, a.states)
        gap = zlambda_norm(space, Trajectory(times=a.times,
                                             states=a.states
                                             - probe["fixed_point"].states),
                           law.lam)
        assert gap <= 1e-8


class TestSharedSteps:
    def test_linear_closed_loop_is_the_stepper_flow(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        v0 = rng.standard_normal(space.K)
        tr, _ = closed_loop_linear(closed_loop_steps(law, 0.0, 6.0), v0)
        assert np.array_equal(tr.states, stepper.run_linear(v0).states)

    def test_picard_cap_raises(self, loop_setup, rng, monkeypatch):
        space, _, _, stepper = loop_setup
        monkeypatch.setattr(nonlinear, "INNER_CAP", 1)
        with pytest.raises(StepSolveError, match="reduce time.dt or the initial "
                                                 "amplitude"):
            stepper.run_nonlinear(unit_v_direction(space, rng))


class TestBlockStepping:
    def test_block_rows_match_solo_runs(self, loop_setup, short_stepper, rng):
        space = loop_setup[0]
        V0 = np.array([s * unit_v_direction(space, rng)
                       for s in (0.0, 0.5, 2.0, 8.0, 64.0)])
        states, blowup_t = short_stepper.run_nonlinear_block(V0)
        assert states.shape == (short_stepper.n_steps + 1,) + V0.shape
        for i, v0 in enumerate(V0):
            solo, solo_blowup = short_stepper.run_nonlinear(v0)
            assert blowup_t[i] is None and solo_blowup is None
            if i == 0:
                assert np.array_equal(states[:, 0], solo.states)
            else:
                assert max_rel(states[:, i], solo.states) <= 1e-13

    def test_mixed_block_keeps_the_small_state(self, loop_setup, short_stepper, rng):
        # the far-out state leaves the block or fails to decay, and the
        # other state carries on exactly as it would alone
        space, _, law, _ = loop_setup
        st = short_stepper
        d = unit_v_direction(space, rng)
        states, blowup_t = st.run_nonlinear_block(np.array([1.0 * d, 3000.0 * d]))
        if blowup_t[1] is None:
            big = Trajectory(times=st.times, states=states[:, 1])
            assert not decay_report(space, law.lam, big, 4.0)["decayed"]
        else:
            assert np.isnan(states[-1, 1]).all()
        solo, _ = st.run_nonlinear(1.0 * d)
        assert blowup_t[0] is None
        assert max_rel(states[:, 0], solo.states) <= 1e-13

    def test_picard_cap_raises_from_block(self, loop_setup, short_stepper, rng,
                                          monkeypatch):
        space = loop_setup[0]
        monkeypatch.setattr(nonlinear, "INNER_CAP", 1)
        V0 = np.array([unit_v_direction(space, rng), np.zeros(space.K)])
        with pytest.raises(StepSolveError, match=r"at t=.*last increment"):
            short_stepper.run_nonlinear_block(V0)

    def test_basin_calls_do_not_grow_with_the_block(self, loop_setup, rng,
                                                    monkeypatch):
        # one stacked advection call per Picard iterate of the whole block,
        # so a step costs at most INNER_CAP calls whatever the block size
        space, ref, law, _ = loop_setup
        calls = count_bilinear_calls(monkeypatch)
        n_steps = int(round(1.0 / law.dt))
        rep = basin_sweep(closed_loop_steps(law, 0.0, 1.0),
                          scales=[0.25, 0.5, 1.0, 1.5, 2.0], directions=4, rng=rng,
                          theta_cap=4.0)
        assert len(rep["outcomes"]) * len(rep["scales"]) == 20
        assert len(calls) <= n_steps * nonlinear.INNER_CAP
        assert all(shape[0] <= 20 for shape in calls)

    def test_run_xi_makes_one_advection_call(self, loop_setup, rng, monkeypatch):
        space, _, _, stepper = loop_setup
        calls = count_bilinear_calls(monkeypatch)
        a = rng.standard_normal((stepper.n_steps + 1, space.K))
        stepper.run_xi(np.zeros(space.K), a)
        assert calls == [(stepper.n_steps, space.K)]


class TestBatchedAdvection:
    @pytest.mark.parametrize("K", [24, 23])
    def test_stacks_match_per_vector_calls(self, K, rng):
        space = build_space(nu=0.6, K=K, n=16)
        assert (space.K_pad != space.K) == (K % 2 == 1)
        for shape in ((5, K), (3, 4, K)):
            cu = rng.standard_normal(shape)
            cv = rng.standard_normal(shape)
            got = bilinear_b(space, cu, cv)
            want = np.array([bilinear_b(space, u, v) for u, v in
                             zip(cu.reshape(-1, K), cv.reshape(-1, K))])
            assert got.shape == shape
            assert max_rel(got.reshape(-1, K), want) <= 1e-13

    def test_long_block_runs_in_bounded_chunks(self, rng):
        # the probe's block, 768 midpoints, agrees with per-state calls and
        # never holds the grids of the whole block at once
        space = build_space(nu=0.6, K=24, n=16)
        cu, cv = rng.standard_normal((2, 768, space.K))
        want = np.array([bilinear_b(space, u, v) for u, v in zip(cu, cv)])

        def traced_peak(evaluate):
            tracemalloc.start()
            try:
                got = evaluate(space, cu, cv)
                return got, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        got, peak = traced_peak(bilinear_b)
        whole, whole_peak = traced_peak(dynamics._advection)
        assert max_rel(got, want) <= 1e-13 and max_rel(whole, want) <= 1e-13
        assert peak < whole_peak / 3

    def test_odd_truncation_matches_convolution_oracle(self, rng):
        space = build_space(nu=0.6, K=23, n=16)
        cu, cv = rng.standard_normal(23), rng.standard_normal(23)
        want = bilinear_oracle(space.modes, cu, cv)
        assert np.max(np.abs(bilinear_b(space, cu, cv) - want)) \
            <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestDuhamel:
    def test_zero_forcing_is_plain_decay(self, loop_setup):
        space, ref, law, stepper = loop_setup
        rep = duhamel_bound_check(stepper, [np.zeros((stepper.n_steps, space.K))])
        assert rep["identity_max_gap"] <= 1e-14
        assert rep["C1"] == 0.0

    def test_single_pulse_identity(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        f = np.zeros((stepper.n_steps, space.K))
        f[17] = rng.standard_normal(space.K)
        rep = duhamel_bound_check(stepper, [f])
        assert rep["identity_max_gap"] <= 1e-10

    def test_identity_detects_shifted_input(self, loop_setup, rng, monkeypatch):
        space, ref, law, stepper = loop_setup
        forward = Propagator.forward

        def late_forward(self, w0, inputs=None):
            late = None if inputs is None else np.roll(inputs, 1, axis=0)
            return forward(self, w0, late)
        monkeypatch.setattr(Propagator, "forward", late_forward)
        f = np.zeros((stepper.n_steps, space.K))
        f[17] = rng.standard_normal(space.K)
        rep = duhamel_bound_check(stepper, [f])
        assert rep["identity_max_gap"] > 1e-10

    def test_forced_constant_matches_loop_reference(self, loop_setup, rng):
        space, ref, law, stepper = loop_setup
        f = rng.standard_normal((stepper.n_steps, space.K))
        rep = duhamel_bound_check(stepper, [f])
        n, dt = stepper.n_steps, stepper.dt
        window = int(round(1.0 / dt))
        t_mid = dt * (np.arange(n) + 0.5)
        cum = np.concatenate([[0.0], np.cumsum(dt * np.exp(2.0 * law.lam * t_mid)
                                               * np.sum(f**2, axis=1))])
        sliding = max(cum[min(m + window, n)] - cum[m] for m in range(n))
        lhs = zlambda_norm(space, stepper.run_linear(np.zeros(space.K), f),
                           law.lam) ** 2
        assert rep["forced_response_constants"][0] == pytest.approx(
            lhs / sliding, rel=1e-14)

    def test_batch_constant_finite_and_stable(self, rng):
        # the forcing batch is a fixed smooth function of time, so its grid
        # sampling refines rather than changing its roughness
        space = build_space(nu=0.6, K=8, n=16)
        ref = taylor_green_reference(space, a0=1.0, a1=0.5, omega=1.0, horizon=7.0)
        chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
        act = build_actuator(space, chi, M=8)
        dirs = rng.standard_normal((3, space.K))
        freqs = rng.uniform(0.5, 3.0, 3)
        phases = rng.uniform(0, 2 * np.pi, 3)
        c1s = []
        for dt in (1.0 / 64, 1.0 / 128):
            law = riccati_solve(ref, lam=1.0, actuator=act, T_h=6.0, dt=dt)
            st = closed_loop_steps(law, 0.0, 4.0)
            t_mid = dt * (np.arange(st.n_steps) + 0.5)
            fs = [np.cos(w * t_mid + p)[:, None] * d[None, :]
                  for d, w, p in zip(dirs, freqs, phases)]
            rep = duhamel_bound_check(st, fs)
            assert np.isfinite(rep["C1"])
            c1s.append(rep["C1"])
        assert c1s[0] == pytest.approx(c1s[1], rel=0.1)


class TestBasinSweep:
    def test_scale_zero_decays(self, loop_setup, rng):
        space, ref, law, _ = loop_setup
        rep = basin_sweep(closed_loop_steps(law, 0.0, 3.0),
                          scales=[0.0, 1.0], directions=2, rng=rng, theta_cap=4.0)
        assert all(row[0] == "decay" for row in rep["outcomes"])

    def test_small_scales_all_decay(self, loop_setup, rng):
        space, ref, law, _ = loop_setup
        rep = basin_sweep(closed_loop_steps(law, 0.0, 3.0),
                          scales=[0.25, 0.5, 1.0], directions=3, rng=rng, theta_cap=4.0)
        assert rep["epsilon_hat"] >= 1.0
        assert all(o == "decay" for row in rep["outcomes"] for o in row)

    def test_extreme_amplitude_recorded_not_asserted(self, short_stepper, rng):
        # far outside the gate the integrator may leave its step bound; the
        # sweep records the outcome instead of failing
        rep = basin_sweep(short_stepper, scales=[1.0, 3000.0], directions=1,
                          rng=rng, theta_cap=4.0)
        assert rep["outcomes"][0][0] == "decay"
        assert rep["outcomes"][0][1] in ("no-decay", "blowup")
        assert rep["epsilon_hat"] == 1.0

    def test_reports_whether_an_edge_was_found(self, short_stepper, rng):
        inside = basin_sweep(short_stepper, scales=[0.5, 0.25], directions=1,
                             rng=rng, theta_cap=4.0)
        assert inside["edge_found"] is False
        assert inside["tested_up_to"] == inside["epsilon_hat"] == 0.5
        beyond = basin_sweep(short_stepper, scales=[1.0, 3000.0], directions=1,
                             rng=rng, theta_cap=4.0)
        assert beyond["edge_found"] is True
        assert beyond["tested_up_to"] == 3000.0

    def test_outcomes_follow_the_closed_loop_verdict(self, loop_setup, short_stepper):
        # the sweep judges each state with the closed-loop run's decay rule;
        # theta is 1 at t = 0 for a non-zero state, so a cap below 1 makes
        # that rule answer both ways
        space = loop_setup[0]
        scales = [0.0, 1.0]
        rep = basin_sweep(short_stepper, scales=scales, directions=2,
                          rng=np.random.default_rng(5), theta_cap=0.5)
        assert rep["outcomes"] == [["decay", "no-decay"]] * 2
        dirs = np.random.default_rng(5).standard_normal((2, space.K))
        for d, row in zip(dirs, rep["outcomes"]):
            d = d / np.sqrt(space.alphas @ d**2)
            for s, outcome in zip(scales, row):
                _, solo = simulate_closed_loop(short_stepper, s * d, theta_cap=0.5)
                assert outcome == ("decay" if solo["decayed"] else "no-decay")

    def test_advection_neutral_in_energy_and_enstrophy(self, loop_setup, rng):
        # on the 2D torus the truncated advection term is exactly neutral in
        # both the H and V inner products, which is why the swept basin has
        # no finite edge on this model
        space, *_ = loop_setup
        for _ in range(5):
            v = rng.standard_normal(space.K)
            b = bilinear_b(space, v, v)
            scale = np.linalg.norm(v) ** 3 + 1.0
            assert abs(b @ v) <= 1e-11 * scale
            assert abs((space.alphas * b) @ v) <= 1e-11 * scale * space.alphas[-1]


class TestBilinearEstimate:
    def test_advection_bound_constant_stable_across_truncation(self, rng):
        # |B(a)|_H <= C |a|_V |a|_DL with a constant that does not drift as
        # the truncation grows
        cs = []
        for K in (12, 24):
            space = build_space(nu=0.6, K=K, n=16)
            worst = 0.0
            for _ in range(20):
                a = rng.standard_normal(space.K)
                h, v, dl = space.norms(bilinear_b(space, a, a)), space.norms(a)[1], \
                    space.norms(a)[2]
                worst = max(worst, h[0] / (v * dl))
            cs.append(worst)
        assert cs[1] <= 2.0 * cs[0]
