"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
instances are the shipped desk-scale configurations: K <= 64 modes, grids
<= 64^2, dt = 1/128.
"""

import os

import numpy as np
import pytest

from nsstab.cli import run as cli_run
from nsstab.config import ExperimentConfig
from nsstab.dynamics import build_propagator, taylor_green_reference, zero_reference
from nsstab.feedback import (
    doubled_tail_value,
    dp_check,
    horizon_gate,
    lyapunov_check,
    optimal_cost_check,
    optimal_rollouts,
    riccati_residual,
    riccati_solve,
)
from nsstab.nonlinear import (
    closed_loop_steps,
    contraction_probe,
    simulate_closed_loop,
    zlambda_norm,
)
from nsstab.null_control import kkt_identity_check, min_norm_control
from nsstab.observability import full_constant, select_m1, truncated_constant
from nsstab.spectral import ChiMask, build_actuator, build_space
from nsstab.stabilizer import CutoffSearch, stabilize, weighted_control_norm
from nsstab.dynamics import Trajectory, bilinear_b

from oracles import (
    QuadraticProgram,
    bilinear_oracle,
    bundle_on,
    forms_on,
    heat_decay_O,
    heat_decay_R,
    scalar_are_root,
    solve_constrained_min,
    stacked_input_map,
    uniform_mask,
)

DT = 1.0 / 128
SEED = 20260808


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="module")
def stab_instance():
    """Criterion 4/5 instance: strong time-varying shear at K = 48..64."""
    space = build_space(nu=0.6, K=48, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.8, a1=0.9, omega=1.0, horizon=8.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    return space, ref, chi


@pytest.fixture(scope="module")
def fb_instance():
    """Criteria 7-12 instance: the default synthesis configuration.

    The control dimension comes from the observability selection at the
    cutoff chosen for the faster auxiliary rate 1.25*lambda.
    """
    space = build_space(nu=0.6, K=24, n=16, m_max=160)
    ref = taylor_green_reference(space, a0=1.2, a1=0.6, omega=0.5, horizon=60.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.8, rho=0.1)
    lam = 1.0
    choice = CutoffSearch(ref, chi, M_list=(8, 16, 32, 64, 96, 128),
                          n_max=4, dt=DT).choose(lam * 1.25)
    act = build_actuator(space, chi, choice.M1)
    law = riccati_solve(ref, lam, act, T_h=28.0, dt=DT)
    return space, ref, chi, act, law


def test_criterion_01_bilinear_oracle_equivalence(rng):
    space = build_space(nu=0.1, K=12, n=16)
    worst = 0.0
    for _ in range(50):
        cu = rng.standard_normal(space.K)
        cv = rng.standard_normal(space.K)
        got = bilinear_b(space, cu, cv)
        want = bilinear_oracle(space.modes, cu, cv)
        worst = max(worst, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))
    report(1, worst <= 1e-12,
           f"pseudospectral advection vs convolution oracle, max rel {worst:.2e} <= 1e-12")


def test_criterion_02_discrete_adjoint_exactness(rng):
    space = build_space(nu=0.2, K=16, n=16)
    ref = taylor_green_reference(space, a0=0.8, a1=0.4, omega=1.0, horizon=2.0)
    prop = build_propagator(space, ref, 0.0, DT)
    worst = 0.0
    for _ in range(50):
        w0 = rng.standard_normal(space.K)
        q1 = rng.standard_normal(space.K)
        lhs = prop.forward(w0)[-1] @ q1
        rhs = w0 @ prop.adjoint_block(q1)[0][0]
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    report(2, worst <= 1e-12,
           f"forward/adjoint duality over 50 pairs, max rel {worst:.2e} <= 1e-12")


def test_criterion_03_kkt_identities(rng):
    space = build_space(nu=0.2, K=16, n=16)
    ref = taylor_green_reference(space, a0=0.8, a1=0.4, omega=1.0, horizon=2.0)
    chi = ChiMask.bump(space, center=(np.pi, np.pi), radius=2.4, rho=0.1)
    act = build_actuator(space, chi, M=16)
    bundle = bundle_on(space, ref, 0.0, act, N=4, dt=DT)
    w0 = rng.standard_normal(space.K)
    worst_step, worst_id = 0.0, 0.0
    for eps in (1e-2, 1e-4, 1e-6):
        rep = kkt_identity_check(bundle, w0, eps)
        worst_step = max(worst_step, rep["stepwise_max_rel"])
        worst_id = max(worst_id, rep["identity_rel_gap"])
    report(3, worst_step <= 1e-9 and worst_id <= 1e-8,
           f"ridge optimality: stepwise {worst_step:.2e} <= 1e-9, "
           f"duality identity {worst_id:.2e} <= 1e-8")


def test_criterion_04_null_projection(stab_instance, rng):
    space, ref, chi = stab_instance
    N = 8
    forms = forms_on(space, ref, 0.0, chi, N, (8, 16, 32, 64, 96, 128), DT)
    m1 = select_m1(forms, slack=2.0)["M1"]
    act = build_actuator(space, chi, m1)
    bundle = bundle_on(space, ref, 0.0, act, N, DT)
    worst = 0.0
    for _ in range(20):
        w0 = rng.standard_normal(space.K)
        eta = min_norm_control(bundle, w0)
        end = bundle.propagator.forward(w0, eta.values @ act.mat.T)[-1]
        worst = max(worst, np.linalg.norm(end[:N]) / np.linalg.norm(w0))

    # oracle agreement at K = 16: generic QP on the stacked decision vector,
    # its endpoint map formed forward from every unit control
    space16 = build_space(nu=0.2, K=16, n=16)
    ref16 = taylor_green_reference(space16, a0=0.8, a1=0.4, omega=1.0, horizon=2.0)
    chi16 = ChiMask.bump(space16, center=(np.pi, np.pi), radius=2.4, rho=0.1)
    act16 = build_actuator(space16, chi16, M=8)
    b16 = bundle_on(space16, ref16, 0.0, act16, N=4, dt=1.0 / 64)
    w0 = rng.standard_normal(space16.K)
    B16 = stacked_input_map(b16)
    x, _ = solve_constrained_min(QuadraticProgram(
        np.eye(B16.shape[1]), B16, -(b16.propagator.total @ w0)[:4]))
    want = x.reshape(b16.propagator.n_steps, act16.M)
    got = min_norm_control(b16, w0).values
    qp_gap = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
    report(4, worst <= 1e-8 and qp_gap <= 1e-9,
           f"null projection at K=64-scale (N=8, M1={m1}): defect {worst:.2e} <= 1e-8; "
           f"QP oracle gap {qp_gap:.2e} <= 1e-9")


def test_criterion_05_integer_decay_chain(stab_instance, rng):
    space, ref, chi = stab_instance
    lam = 1.0
    search = CutoffSearch(ref, chi, M_list=(8, 16, 32, 64, 96, 128),
                          n_max=6, dt=DT)
    choice = search.choose(lam)
    violations = 0
    kappas = []
    for _ in range(10):
        v0 = rng.standard_normal(space.K)
        run_ = stabilize(search, choice, v0)
        lhs = run_.integer_h_norms[1:] ** 2
        rhs = np.exp(-lam * np.arange(1, 7)) * run_.integer_h_norms[0] ** 2
        violations += int(np.any(lhs > rhs))
        kappas.append((run_.kappa1, weighted_control_norm(run_, lam / 2.0),
                       run_.kappa3))
    k1, k2, k3 = np.max(kappas, axis=0)
    finite = np.isfinite([k1, k2, k3]).all()
    report(5, violations == 0 and finite,
           f"decay chain |v(n)|^2 <= e^(-n)|v0|^2 for n=1..6, N={choice.N}, "
           f"M1={choice.M1}: 0 violations in 10 runs; "
           f"kappa1={k1:.3f} kappa2={k2:.3f} kappa3={k3:.3f}")


def test_criterion_06_truncated_observability(stab_instance, rng):
    space, ref, chi = stab_instance
    N = 8
    forms = forms_on(space, ref, 0.0, chi, N, (8, 16, 32, 64, 96, 128), DT)
    rep = select_m1(forms, slack=2.0)
    m1 = rep["M1"]
    D = rep["D_table"][m1]
    O = forms.output_truncated(m1)
    worst = 0.0
    for _ in range(100):
        q1 = rng.standard_normal(N)
        q1 /= np.linalg.norm(q1)
        lhs = q1 @ forms.energy @ q1
        rhs = D * (q1 @ O @ q1)
        worst = max(worst, (lhs - rhs) / abs(rhs))
    ds = [truncated_constant(forms, M) for M in forms.M_list]
    monotone = all(a >= b * (1 - 1e-10) for a, b in zip(ds, ds[1:])
                   if np.isfinite(a) and np.isfinite(b))

    # closed-form heat-decay check at the scheme's dt
    s1 = build_space(nu=0.2, K=2, n=8)
    f1 = forms_on(s1, zero_reference(s1, 2.0), 0.0, uniform_mask(s1),
                  N=1, M_list=[8], dt=DT)
    a = s1.alphas[0]
    want = heat_decay_R(a) / heat_decay_O(a)
    got = full_constant(f1)
    scalar_gap = abs(got - want) / want
    report(6, worst <= 1e-8 and monotone and scalar_gap <= 1e-4,
           f"truncated observability at M1={m1}: max violation {worst:.2e} <= 1e-8; "
           f"D(M) nonincreasing; scalar heat oracle gap {scalar_gap:.2e} <= 1e-4")


def test_criterion_07_riccati_synthesis(fb_instance):
    # scalar limits against the algebraic closed form
    s4 = build_space(nu=1.0, K=4, n=16)
    r4 = zero_reference(s4, horizon=26.0)
    a4 = build_actuator(s4, uniform_mask(s4), M=8)
    law4 = riccati_solve(r4, lam=0.5, actuator=a4, T_h=12.0, dt=DT)
    scalar_gap = max(
        abs(law4.Q(0)[j, j] - scalar_are_root(0.25 - s4.alphas[j],
                                               a4.gram[j, j], s4.alphas[j]))
        / scalar_are_root(0.25 - s4.alphas[j], a4.gram[j, j], s4.alphas[j])
        for j in range(s4.K))

    space, ref, chi, act, law = fb_instance
    res = riccati_residual(law, [law.T_h / 8, law.T_h / 4,
                                 law.T_h / 2])["max_rel_residual"]
    min_eig = min(np.linalg.eigvalsh(law.Q(m)).min()
                  for m in range(0, law.n_steps + 1, 8))
    gate = horizon_gate(law, doubled_tail_value(ref, law.lam, act, law.T_h,
                                                 DT))["rel_change"]
    report(7, scalar_gap <= 1e-6 and res <= 1e-5 and min_eig >= -1e-10
           and gate <= 1e-6,
           f"scalar ARE gap {scalar_gap:.2e} <= 1e-6; interior residual "
           f"{res:.2e} <= 1e-5; min eig {min_eig:.1e} >= -1e-10; "
           f"horizon doubling gate {gate:.2e} <= 1e-6")


def test_criterion_08_dynamic_programming(fb_instance, rng):
    space, ref, chi, act, law = fb_instance
    v0 = rng.standard_normal(space.K)
    dp_rollout, cost_rollout = optimal_rollouts(law, [(0.0, v0), (1.0, v0)])
    rep = dp_check(dp_rollout, splits=[law.T_h / 4, law.T_h / 2])
    split_gap = max(s["rel_gap"] for s in rep["splits"])
    cost, _ = optimal_cost_check(cost_rollout)
    report(8, split_gap <= 1e-6 and cost["simulated_rel_gap"] <= 1e-4,
           f"cost splitting at T_h/4, T_h/2: gap {split_gap:.2e} <= 1e-6; "
           f"simulated optimal cost gap {cost['simulated_rel_gap']:.2e} <= 1e-4")


def test_criterion_09_feedback_decay(fb_instance, rng):
    space, ref, chi, act, law = fb_instance
    kappas = []
    for s in (0.0, 2.0):
        stepper = closed_loop_steps(law, s, 6.0)
        for _ in range(5):
            v0 = rng.standard_normal(space.K)
            tr = stepper.run_linear(v0)
            w = np.exp(law.lam * (tr.times - s))
            h2 = np.sum(tr.states**2, axis=1)
            kappas.append(float(np.max(w * h2) / (v0 @ v0)))
    kappas = np.array(kappas)
    med = np.median(kappas)
    dev = np.max(np.abs(kappas - med)) / med
    report(9, dev <= 0.10,
           f"weighted closed-loop energy bounded by kappa={med:.4f} with "
           f"max deviation {dev:.2%} <= 10% over 10 runs at two start times")


def test_criterion_10_lyapunov_monotonicity(fb_instance, rng):
    space, ref, chi, act, law = fb_instance
    worst = 0.0
    stepper = closed_loop_steps(law, 0.0, 6.0)
    for _ in range(5):
        rep = lyapunov_check(stepper.run_linear(rng.standard_normal(space.K)))
        assert rep["nonincreasing"]
        worst = max(worst, rep["max_increase_rel"])
    report(10, worst <= 1e-8,
           f"forward-Gramian functional nonincreasing along 5 closed-loop "
           f"runs, max relative increase {worst:.1e} <= 1e-8")


def test_criterion_11_nonlinear_decay(fb_instance, rng):
    space, ref, chi, act, law = fb_instance
    eps_star, theta_star = 2.0, 2.0          # shipped calibration
    stepper = closed_loop_steps(law, 0.0, 6.0)
    thetas = []
    for _ in range(10):
        d = rng.standard_normal(space.K)
        d /= np.sqrt(space.alphas @ d**2)
        _, rep = simulate_closed_loop(stepper, eps_star * d, eps_gate=eps_star,
                                      theta_cap=theta_star)
        assert rep["inside_gate"] and rep["decayed"]
        thetas.append(rep["theta"])

    # quadratic smallness: |nonlinear - linear| scales like |v0|_V^2
    st1 = closed_loop_steps(law, 0.0, 1.0)
    d = rng.standard_normal(space.K)
    d /= np.sqrt(space.alphas @ d**2)
    scales = np.array([0.01, 0.03, 0.1, 0.3])
    gaps = []
    for s in scales:
        nl, _ = simulate_closed_loop(st1, s * d)
        lin = st1.run_linear(s * d)
        gaps.append(np.max(np.linalg.norm(nl.states - lin.states, axis=1)))
    slope = float(np.polyfit(np.log(scales), np.log(gaps), 1)[0])
    ok = max(thetas) <= theta_star and abs(slope - 2.0) <= 0.3
    report(11, ok,
           f"nonlinear decay inside gate eps*={eps_star}: max theta "
           f"{max(thetas):.3f} <= {theta_star}; quadratic-consistency slope "
           f"{slope:.2f} within 2 +- 0.3")


def test_criterion_12_contraction(fb_instance, rng):
    space, ref, chi, act, law = fb_instance
    eps_star = 2.0
    stepper = closed_loop_steps(law, 0.0, 6.0)
    d = rng.standard_normal(space.K)
    d /= np.sqrt(space.alphas @ d**2)
    probe = contraction_probe(stepper, eps_star * d, rng, pairs=3)
    nl, _ = simulate_closed_loop(stepper, eps_star * d)
    fp_gap = zlambda_norm(space, Trajectory(
        times=nl.times, states=nl.states - probe["fixed_point"].states), law.lam)
    gammas = []
    scales = np.array([0.25, 1.0, 4.0])
    for s in scales:
        rep = contraction_probe(stepper, s * d, rng, pairs=0)
        gammas.append(rep["gamma_hat"])
    slope = float(np.polyfit(np.log(scales), np.log(gammas), 1)[0])
    ok = (probe["converged"] and 0 < probe["gamma_hat"] < 1
          and abs(slope - 1.0) <= 0.3 and fp_gap <= 1e-8)
    report(12, ok,
           f"Picard iterates converge with gamma={probe['gamma_hat']:.4f} < 1; "
           f"gamma-vs-amplitude slope {slope:.2f} within 1 +- 0.3; fixed point "
           f"matches direct simulation to {fp_gap:.1e} <= 1e-8")


def test_criterion_13_determinism(tmp_path):
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "default.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_run("all", cfg_path, str(out1)) == 0
    assert cli_run("all", cfg_path, str(out2)) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs, "the full run must produce CSV artifacts"
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in csvs)
    report(13, identical,
           f"two 'run all' invocations with the shipped seed produced "
           f"byte-identical CSVs ({len(csvs)} files)")
