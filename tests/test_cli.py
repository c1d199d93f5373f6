"""Config round-trip, CLI subcommands, exit codes, artifact schemas."""

import functools
import json
import os
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsstab import cli, feedback, nonlinear, observability, stabilizer
from nsstab.cli import Pipeline, main, run
from nsstab.config import ExperimentConfig
from nsstab.dynamics import Propagator, build_propagator
from nsstab.errors import ConfigError
from nsstab.feedback import optimal_cost_check, optimal_rollouts, riccati_solve
from nsstab.nonlinear import closed_loop_steps
from nsstab.plots import emit_plot
from nsstab.null_control import build_reachability
from nsstab.quadmin import pinv_psd
from nsstab.spectral import build_actuator
from nsstab.stabilizer import CutoffSearch

from oracles import bundle_on, forms_on, save_config

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"


class TestConfig:
    def test_roundtrip_bit_identical(self, small_cfg, tmp_path):
        cfg, path = small_cfg
        loaded = ExperimentConfig.load(path)
        assert loaded.canonical_json() == cfg.canonical_json()
        again = tmp_path / "again.json"
        save_config(loaded, again)
        assert again.read_text() == path.read_text()

    def test_hash_changes_with_content(self, small_cfg):
        cfg, _ = small_cfg
        h1 = cfg.config_hash()
        cfg.control.lam = 0.7
        assert cfg.config_hash() != h1

    def test_validation_reports_field_paths(self):
        cfg = ExperimentConfig()
        cfg.space.nu = -1.0
        with pytest.raises(ConfigError, match="space.nu"):
            cfg.validate()
        cfg = ExperimentConfig()
        cfg.time.dt = 0.3
        with pytest.raises(ConfigError, match="time.dt"):
            cfg.validate()
        cfg = ExperimentConfig()
        cfg.control.slack = 0.2
        with pytest.raises(ConfigError, match="control.slack"):
            cfg.validate()
        cfg = ExperimentConfig()
        cfg.time.n_max = int(cfg.reference.horizon) + 1
        with pytest.raises(ConfigError, match="time.n_max"):
            cfg.validate()
        cfg = ExperimentConfig()
        cfg.control.M_list = (8, cfg.space.m_max + 1)
        with pytest.raises(ConfigError, match="control.M_list"):
            cfg.validate()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"mystery": {}})

    def test_explicit_mode_reference(self, small_cfg):
        cfg, _ = small_cfg
        cfg.reference.preset = "modes"
        cfg.reference.modes = [{"k": [0, 1], "phase": "sin", "weight": 2.0,
                                "a0": 0.5, "a1": 0.1, "omega": 1.0}]
        cfg.validate()
        space = cfg.build_space()
        ref = cfg.build_reference(space)
        u = ref.u_at(0.0)
        j = space.modes.index((0, 1, 1))
        assert u[j] == pytest.approx(2.0 * 0.6)
        assert np.count_nonzero(u) == 1


class TestRun:
    def test_all_subcommands_produce_artifacts(self, small_cfg, tmp_path):
        _, path = small_cfg
        out = tmp_path / "out"
        assert run("all", str(path), str(out)) == 0
        produced = set(os.listdir(out))
        expected = {"manifest.json", "reference.csv", "observability.json",
                    "dm_table.csv", "null_control.json", "min_norm_control.csv",
                    "stabilize_decay.csv", "stabilize.json", "feedback.json",
                    "feedback_law.npz", "closed_loop.json", "basin.json",
                    "basin.svg", "stabilize_decay.svg", "dm_staircase.svg"}
        assert expected <= produced
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["versions"]["nsstab"]
        assert manifest["wall_time_s"] >= 0

    def test_determinism_byte_identical(self, small_cfg, tmp_path):
        _, path = small_cfg
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("all", str(path), str(out1)) == 0
        assert run("all", str(path), str(out2)) == 0
        for name in os.listdir(out1):
            if name == "manifest.json":
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_single_subcommand(self, small_cfg, tmp_path):
        _, path = small_cfg
        out = tmp_path / "obs"
        assert run("observability", str(path), str(out)) == 0
        rep = json.loads((out / "observability.json").read_text())
        assert set(rep) >= {"N", "M_list", "D_table", "D_inf", "M1", "C_h1l2"}
        ds = [rep["D_table"][str(m)] for m in rep["M_list"]]
        finite = [d for d in ds if np.isfinite(d)]
        assert all(a >= b * (1 - 1e-10) for a, b in zip(finite, finite[1:]))

    def test_feedback_law_artifact_holds_full_cost_operators(self, small_cfg, tmp_path,
                                                             monkeypatch):
        # the law stores packed triangles; the artifact keeps (K, K) matrices
        _, path = small_cfg
        laws = []

        def spy(*args, **kwargs):
            laws.append(riccati_solve(*args, **kwargs))
            return laws[-1]
        monkeypatch.setattr(cli, "riccati_solve", spy)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        law, = laws
        with np.load(tmp_path / "o" / "feedback_law.npz") as artifact:
            Qt, stride = artifact["Qt"], int(artifact["stride"])
        K = len(law.alphas)
        assert Qt.shape == (law.n_steps // stride + 1, K, K)
        assert np.array_equal(Qt, Qt.transpose(0, 2, 1))
        for j, m in enumerate(range(0, law.n_steps + 1, stride)):
            assert np.array_equal(Qt[j], law.Q(m)), m

    def test_seed_override_changes_artifacts(self, small_cfg, tmp_path):
        _, path = small_cfg
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("stabilize", str(path), str(out1), seed=1) == 0
        assert run("stabilize", str(path), str(out2), seed=2) == 0
        a = (out1 / "stabilize_decay.csv").read_bytes()
        b = (out2 / "stabilize_decay.csv").read_bytes()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": {"nu": -3}}')
        assert run("reference", str(bad), str(tmp_path / "o")) == 2

    def test_negative_seed_override_exit_code(self, small_cfg, tmp_path, capsys):
        _, path = small_cfg
        code = main(["reference", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert run("reference", str(tmp_path / "nope.json"), str(tmp_path)) == 2

    @pytest.mark.parametrize("subcommand, overrides, field", [
        # a chi ball that holds no grid point
        ("stabilize", {"chi.center": (3.3, 3.3), "chi.radius": 0.05}, "chi.radius"),
        # more control modes than the grid resolves
        ("reference", {"space.grid_n": 10, "space.m_max": 161,
                       "control.M_list": (8, 16)}, "space.m_max"),
        # the zero flow also runs the doubling gate on [0, 2 T_h]
        ("feedback", {"reference.preset": "zero", "reference.horizon": 20.0,
                      "time.T_h": 14.0}, "reference.horizon"),
    ])
    def test_config_mistake_exit_code_names_the_field(self, tmp_path, capsys,
                                                      subcommand, overrides, field):
        cfg = ExperimentConfig()
        for dotted, value in overrides.items():
            section, key = dotted.split(".")
            setattr(getattr(cfg, section), key, value)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert run(subcommand, str(path), str(tmp_path / "o")) == 2
        assert field in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, small_cfg, tmp_path):
        cfg, _ = small_cfg
        cfg.control.lam = 25.0        # unreachable decay rate at this K
        path = tmp_path / "hard.json"
        save_config(cfg, path)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 3

    def test_picard_cap_exit_code(self, small_cfg, tmp_path, monkeypatch):
        _, path = small_cfg
        monkeypatch.setattr(nonlinear, "INNER_CAP", 1)
        assert run("closed-loop", str(path), str(tmp_path / "o")) == 3

    def test_law_beyond_available_memory_exit_code(self, small_cfg, tmp_path,
                                                   monkeypatch, capsys):
        cfg, path = small_cfg
        K, n_T = cfg.space.K, round(cfg.time.T_h / cfg.time.dt)
        need = 8 * (n_T + 1) * (K * (K + 1) // 2)
        monkeypatch.setattr(feedback, "available_memory_bytes", lambda: need - 1)
        code = main(["feedback", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{need / 1e6:.1f} MB" in err
        assert all(field in err for field in ("space.K", "time.T_h", "time.dt"))

    def test_closed_loop_beyond_available_memory_exit_code(self, small_cfg, tmp_path,
                                                           monkeypatch, capsys):
        # the law fits but the closed loop's (n_steps, K, K) step stack does
        # not: refused before a step is built, naming what sizes the stack.
        # The law's guard reads the probe first (here: nothing readable),
        # the closed loop's second
        cfg, path = small_cfg
        n_steps = round(min(cfg.time.n_max, cfg.time.T_h - 1) / cfg.time.dt)
        need = 8 * n_steps * cfg.space.K**2
        stacks = []
        cn_steps = nonlinear.cn_steps
        monkeypatch.setattr(nonlinear, "cn_steps",
                            lambda *args: stacks.append(args) or cn_steps(*args))

        def probe(*readings):
            return functools.partial(next, iter(readings))
        monkeypatch.setattr(feedback, "available_memory_bytes", probe(None, need - 1))
        code = main(["feedback", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and stacks == []
        assert f"{need / 1e6:.1f} MB" in err
        assert all(field in err for field in
                   ("nonlinear.sim_units", "time.n_max", "space.K"))
        monkeypatch.setattr(feedback, "available_memory_bytes", probe(None, need))
        loop = Pipeline(cfg, np.random.default_rng(cfg.seed)).closed_loop(cfg.time.n_max)
        assert loop.phi.nbytes == need and len(stacks) == 1

    def test_broken_decay_chain_exit_code(self, controlled_cfg, tmp_path, monkeypatch,
                                          capsys):
        # a run whose H norm does not fall at the integer times fails the
        # decay-chain check, and no stabilize artifact is written
        _, path = controlled_cfg

        def stalled(*args, **kwargs):
            run_ = stabilizer.stabilize(*args, **kwargs)
            run_.integer_h_norms[1:] = run_.integer_h_norms[0]
            return run_
        monkeypatch.setattr(cli, "stabilize", stalled)
        out = tmp_path / "o"
        code = main(["stabilize", "--config", str(path), "--out", str(out)])
        assert code == 4
        assert "integer-time decay chain violated" in capsys.readouterr().err
        assert not (out / "stabilize.json").exists()

    def test_growth_inside_the_gate_exit_code(self, small_cfg, tmp_path, monkeypatch,
                                              capsys):
        # a nonlinear run that grows like e^t from data inside the shipped
        # gate is not decayed there, and the run fails
        _, path = small_cfg
        run_nonlinear = nonlinear.ClosedLoopStepper.run_nonlinear

        def growing(self, v0):
            trajectory, blowup_t = run_nonlinear(self, v0)
            t = trajectory.times - trajectory.times[0]
            trajectory.states = trajectory.states * np.exp(t)[:, None]
            return trajectory, blowup_t
        monkeypatch.setattr(nonlinear.ClosedLoopStepper, "run_nonlinear", growing)
        out = tmp_path / "o"
        code = main(["closed-loop", "--config", str(path), "--out", str(out)])
        assert code == 4
        assert "nonlinear decay violated inside the gate" in capsys.readouterr().err
        rep = json.loads((out / "closed_loop.json").read_text())
        assert rep["inside_gate"] and not rep["decayed"]

    def test_synthesis_horizon_leaves_a_closed_loop_step(self, small_cfg, tmp_path,
                                                         capsys):
        # the closed loop runs on [0, min(n, T_h - 1)], which holds one step
        # at T_h = 1 + dt
        cfg, _ = small_cfg
        path = tmp_path / "short.json"
        cfg.time.T_h = 1.0 + cfg.time.dt
        save_config(cfg, path)
        assert main(["feedback", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        cfg.time.T_h = np.nextafter(1.0 + cfg.time.dt, 0.0)
        save_config(cfg, path)
        assert main(["feedback", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "time.T_h" in capsys.readouterr().err

    def test_simulated_units_hold_a_closed_loop_step(self, small_cfg, tmp_path, capsys):
        cfg, _ = small_cfg
        path = tmp_path / "short.json"
        cfg.nonlinear.sim_units = cfg.time.dt
        save_config(cfg, path)
        assert main(["closed-loop", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        cfg.nonlinear.sim_units = np.nextafter(cfg.time.dt, 0.0)
        save_config(cfg, path)
        assert main(["closed-loop", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "nonlinear.sim_units" in capsys.readouterr().err

    def test_stabilize_report_carries_the_cutoff_measurements(self, controlled_cfg,
                                                              tmp_path):
        cfg, path = controlled_cfg
        assert run("stabilize", str(path), str(tmp_path / "o")) == 0
        rep = json.loads((tmp_path / "o" / "stabilize.json").read_text())
        assert rep["N"] > 0
        assert rep["contraction_target"] == np.exp(-cfg.control.lam / 2.0)
        assert rep["contraction"] == max(rep["per_interval"]) <= rep["contraction_target"]
        assert len(rep["per_interval"]) == cfg.time.n_max
        assert set(rep["symbolic_threshold"]) == {"alpha_next", "e_lambda", "C_chi_prime"}
        assert 0.0 < rep["kappa3_smoothing"] < np.inf
        # the null control leaves at most null_tol * |v0| of the leading modes,
        # and |v0| of a standard normal K = 12 vector is a few units
        assert 0.0 <= rep["projection_defect_max"] < 1e-7

    def test_main_entrypoint(self, small_cfg, tmp_path):
        _, path = small_cfg
        code = main(["reference", "--config", str(path),
                     "--out", str(tmp_path / "m")])
        assert code == 0
        assert (tmp_path / "m" / "reference.svg").exists()


def record_calls(monkeypatch, func):
    """Record the positional and keyword arguments of every call of func, at
    every nsstab module attribute that refers to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return func(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name == "nsstab" or name.startswith("nsstab."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture()
def controlled_cfg(small_cfg, tmp_path):
    """small_cfg at lambda = 1.25, where the stabilizing cutoff is N > 0 (at
    its own lambda the free flow contracts enough and N = 0)."""
    cfg, _ = small_cfg
    cfg.control.lam = 1.25
    path = tmp_path / "controlled.json"
    save_config(cfg, path)
    return cfg, path


class TestSharedIntervalWork:
    @pytest.mark.parametrize("subcommand", ["stabilize", "all"])
    def test_each_unit_interval_built_once(self, small_cfg, tmp_path, monkeypatch,
                                           subcommand):
        cfg, path = small_cfg
        builds = record_calls(monkeypatch, build_propagator)
        assert run(subcommand, str(path), str(tmp_path / "o")) == 0
        assert sorted(args[2] for args, _ in builds) == \
            [float(n) for n in range(cfg.time.n_max)]

    def test_one_adjoint_sweep_per_interval(self, small_cfg, monkeypatch):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        p.search
        sweeps = []
        adjoint_block = Propagator.adjoint_block

        def counted(self, Q1):
            sweeps.append(Q1.shape)
            return adjoint_block(self, Q1)
        monkeypatch.setattr(Propagator, "adjoint_block", counted)
        forms = record_calls(monkeypatch, observability.build_forms)
        # at lam the free flow already contracts enough (N = 0, no sweep)
        assert p.choice(p.lam_hat).N > 0
        assert len([N for N in p.search.measured if N]) >= 3
        assert sweeps == [(cfg.space.K, p.search.n_top)] * cfg.time.n_max
        assert len(forms) <= 1
        p.choice(cfg.control.lam)
        assert len(sweeps) == cfg.time.n_max and len(forms) <= 1

    def test_search_tables_own_their_data(self, small_cfg):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        p.choice(p.lam_hat)
        search, K = p.search, cfg.space.K
        arrays = [a for pair in search.tables.values() for a in pair]
        assert arrays and all(a.base is None for a in arrays)
        bound = (cfg.time.n_max * len(cfg.control.M_list)
                 * (search.n_top + K) * search.n_top * 8)
        assert sum(a.nbytes for a in arrays) <= bound

    def test_observability_constants_evaluated_once(self, small_cfg, tmp_path,
                                                    monkeypatch):
        # the search's sweep evaluates them, once per cutoff and at the
        # run's pinv_rtol; the subcommand reads the report at N_obs
        cfg, _ = small_cfg
        cfg.tolerances.pinv_rtol = 1e-11
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choice = p.choice(cfg.control.lam)
        full = record_calls(monkeypatch, observability.full_constant)
        ratio = record_calls(monkeypatch, observability.h1_l2_ratio)
        cli.cmd_observability(p, str(tmp_path))
        assert len(full) == len(ratio) <= p.search.n_top
        assert {rtol for (_, rtol), _ in full + ratio} <= {1e-11}
        evaluated = len(full)
        cli.cmd_observability(p, str(tmp_path))
        assert len(full) == len(ratio) == evaluated
        payload = json.loads((tmp_path / "observability.json").read_text())
        N_obs = min(max(choice.N, 4), p.search.n_top)
        rep = p.search.observability_report(N_obs)
        assert payload["N"] == N_obs and payload["M1"] == rep["M1"]
        forms = forms_on(
            p.space, p.reference, 0.0, p.chi, p.search.n_top, cfg.control.M_list,
            cfg.time.dt, propagator=p.search.propagators[0]).leading(N_obs)
        assert payload["D_inf"] == rep["D_inf"] \
            == observability.full_constant(forms, 1e-11)
        assert payload["C_h1l2"] == rep["C_h1l2"] \
            == observability.h1_l2_ratio(forms, 1e-11)
        assert payload["D_table"] == {str(m): d for m, d in rep["D_table"].items()}

    def test_all_sweeps_each_interval_once(self, small_cfg, tmp_path, monkeypatch):
        # the null-control bundle comes from the search's interval-0 sweep;
        # every other adjoint sweep is a single vector
        cfg, path = small_cfg
        blocks = []
        adjoint_block = Propagator.adjoint_block

        def counted(self, Q1):
            if Q1.ndim == 2:
                blocks.append(Q1.shape)
            return adjoint_block(self, Q1)
        monkeypatch.setattr(Propagator, "adjoint_block", counted)
        assert run("all", str(path), str(tmp_path / "o")) == 0
        assert len(blocks) == cfg.time.n_max

    def test_all_builds_each_actuator_once(self, small_cfg, tmp_path, monkeypatch):
        _, path = small_cfg
        builds = record_calls(monkeypatch, build_actuator)
        assert run("all", str(path), str(tmp_path / "o")) == 0
        dims = [args[2] for args, _ in builds]
        assert dims and len(dims) == len(set(dims))

    def test_search_reachability_matches_a_fresh_bundle(self, controlled_cfg):
        # for the chosen (N, M1) and for an M outside the search's tables
        cfg, _ = controlled_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choice = p.choice(cfg.control.lam)
        search = p.search
        other = next(M for M in cfg.control.M_list if M not in search.tables)
        assert choice.N > 0 and choice.M1 in search.tables
        for N, M in ((choice.N, choice.M1), (2, other)):
            got = search.reachability(N, M)
            want = bundle_on(p.space, p.reference, 0.0, build_actuator(p.space, p.chi, M),
                             N, cfg.time.dt, cfg.tolerances.pinv_rtol)
            assert (got.N, got.actuator.M, got.gramian_rank) == (N, M, want.gramian_rank)
            for name in ("input_rows", "gramian"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name
        assert search.reachability(choice.N, choice.M1).actuator \
            is search.actuator(choice.M1)
        with pytest.raises(ValueError, match="outside"):
            search.reachability(search.n_top + 1, choice.M1)

    def test_stabilize_builds_no_reachability_bundle(self, controlled_cfg, tmp_path,
                                                     monkeypatch):
        _, path = controlled_cfg
        bundles = record_calls(monkeypatch, build_reachability)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 0
        assert json.loads((tmp_path / "o" / "stabilize.json").read_text())["N"] > 0
        assert bundles == []

    def test_stabilize_sweeps_blocks_once_and_vectors_per_interval(
            self, controlled_cfg, tmp_path, monkeypatch):
        # n_max block sweeps by the search, and at most one single-vector
        # sweep per interval for the control
        cfg, path = controlled_cfg
        sweeps = []
        adjoint_block = Propagator.adjoint_block

        def counted(self, Q1):
            sweeps.append(Q1.shape)
            return adjoint_block(self, Q1)
        monkeypatch.setattr(Propagator, "adjoint_block", counted)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 0
        K, n_top = cfg.space.K, min(cfg.space.K, cfg.control.N_max)
        blocks = [s for s in sweeps if s != (K,)]
        assert blocks == [(K, n_top)] * cfg.time.n_max
        assert len(sweeps) - len(blocks) <= cfg.time.n_max

    def test_stabilize_reads_actuator_and_pseudoinverses_off_the_search(
            self, controlled_cfg, monkeypatch):
        # the search built the M1 actuator and the pinv of each G[:N, :N]
        # while measuring N; stabilize builds neither again
        cfg, _ = controlled_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choice = p.choice(cfg.control.lam)
        assert choice.N > 0
        actuators = record_calls(monkeypatch, build_actuator)
        pinvs = record_calls(monkeypatch, pinv_psd)
        run_ = stabilizer.stabilize(p.search, choice, p.rng.standard_normal(cfg.space.K))
        assert actuators == [] and pinvs == []
        assert np.max(run_.projection_defects) <= 1e-8 * run_.integer_h_norms[0]

    def test_all_builds_observability_forms_once(self, small_cfg, tmp_path,
                                                 monkeypatch):
        _, path = small_cfg
        forms = record_calls(monkeypatch, observability.build_forms)
        assert run("all", str(path), str(tmp_path / "o")) == 0
        assert len(forms) == 1

    def test_feedback_integrates_closed_loop_once(self, small_cfg, tmp_path,
                                                  monkeypatch):
        # one build for the decay run and its Lyapunov functional; the
        # optimal-cost simulation streams its steps instead
        _, path = small_cfg
        builds = record_calls(monkeypatch, closed_loop_steps)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        assert len(builds) == 1

    def test_rates_share_cutoff_measurements(self, small_cfg, monkeypatch):
        cfg, _ = small_cfg
        measured = []
        contraction = CutoffSearch._contraction

        def counted(self, N):
            measured.append(N)
            return contraction(self, N)
        monkeypatch.setattr(CutoffSearch, "_contraction", counted)
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choices = [p.choice(cfg.control.lam), p.choice(p.lam_hat)]
        assert len(measured) == len(set(measured))
        for lam, got in zip((cfg.control.lam, p.lam_hat), choices):
            want = CutoffSearch(p.reference, p.chi, cfg.control.M_list,
                                n_max=cfg.time.n_max, dt=cfg.time.dt,
                                slack=cfg.control.slack,
                                N_cap=cfg.control.N_max).choose(lam)
            assert (got.N, got.M1, got.per_interval) == (want.N, want.M1,
                                                         want.per_interval)

    def test_search_released_before_the_riccati_solve(self, small_cfg, monkeypatch):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        search = weakref.ref(p.search)
        alive = []

        def spy(*args, **kwargs):
            alive.append(search() is not None)
            return riccati_solve(*args, **kwargs)
        monkeypatch.setattr(cli, "riccati_solve", spy)
        p.law
        assert alive == [False]


class TestOneClosedLoop:
    def test_all_builds_the_closed_loop_once(self, small_cfg, tmp_path, monkeypatch):
        # feedback, closed-loop and basin share the (0, n) window
        cfg, path = small_cfg
        assert cfg.time.n_max == cfg.nonlinear.sim_units
        builds = record_calls(monkeypatch, closed_loop_steps)
        assert run("all", str(path), str(tmp_path / "o")) == 0
        assert [(args[1], args[2]) for args, _ in builds] == [(0.0, cfg.time.n_max)]

    def test_pipeline_holds_one_loop_per_window(self, small_cfg):
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        loop = p.closed_loop(3.0)
        assert p.closed_loop(3.0) is loop
        assert p.closed_loop(2.0) is not loop
        assert (loop.s, loop.n_steps, loop.lam) == (0.0, 3 * 128, p.law.lam)

    def test_optimal_cost_check_stores_no_step_stack(self, small_cfg):
        # the check stays far below one (n_steps, K, K) step stack, and the
        # rollout pass it reads, which holds its states and controls, far
        # below one (n_steps, M, K) gain stack
        cfg, _ = small_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        law, space = p.law, p.space
        w0 = p.rng.standard_normal(space.K)
        tracemalloc.start()
        try:
            (rollout,) = optimal_rollouts(law, [(1.0, w0)])
            held, pass_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            optimal_cost_check(rollout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < law.n_steps * space.K**2 * 8 / 4
        assert pass_peak < law.n_steps * law.M * space.K * 8 / 4


class TestControlDimension:
    def test_fallback_recorded_when_no_m1_selected(self, tmp_path):
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.control.lam = 0.2
        path = tmp_path / "low.json"
        save_config(cfg, path)
        choice = Pipeline(cfg, np.random.default_rng(cfg.seed)).choice(0.2)
        assert choice.N == 0 and choice.M1 is None
        out = tmp_path / "o"
        assert run("null-control", str(path), str(out)) == 0
        assert run("feedback", str(path), str(out)) == 0
        null = json.loads((out / "null_control.json").read_text())
        feedback = json.loads((out / "feedback.json").read_text())
        assert null["M_fallback"] is True and null["M"] == 8
        assert feedback["M_fallback"] is True and feedback["M"] == 8

    def test_observability_payload_at_cutoff_zero(self, tmp_path):
        # the chosen N is 0 (the M_fallback case): the payload is the
        # report of the leading N = 4 block
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.control.lam = 0.2
        path = tmp_path / "low.json"
        save_config(cfg, path)
        assert run("observability", str(path), str(tmp_path / "o")) == 0
        payload = json.loads((tmp_path / "o" / "observability.json").read_text())

        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        assert p.choice(cfg.control.lam).N == 0
        rep = p.search.observability_report(4)
        assert payload == {"N": 4, "M_list": list(cfg.control.M_list),
                           "D_table": {str(m): d for m, d in rep["D_table"].items()},
                           "D_inf": rep["D_inf"], "M1": rep["M1"],
                           "C_h1l2": rep["C_h1l2"]}
        assert payload["M1"] == 16
        assert payload["D_inf"] == pytest.approx(5.015354900430112, rel=1e-12)
        assert payload["C_h1l2"] == pytest.approx(3.5999054773458803, rel=1e-12)

    def test_fallback_past_m_max_is_a_config_error(self, tmp_path, capsys):
        # no M1 at lambda = 0.2, and the fallback max(M_list[0], 8) = 8 does
        # not fit a control table of m_max = 4 modes
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.space.m_max = 4
        cfg.control.M_list = (4,)
        cfg.control.lam = 0.2
        path = tmp_path / "narrow.json"
        save_config(cfg.validate(), path)
        code = main(["null-control", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "space.m_max" in capsys.readouterr().err

    @pytest.mark.parametrize("m_max", [160, 98])
    def test_unobserved_cutoff_names_the_extrapolated_m1(self, tmp_path, capsys,
                                                         m_max):
        # no M of (8, 16) observes the first 8 modes; select_m1 extrapolates
        # M1 = 99, and past space.m_max the table must grow to hold it
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.control.M_list = (8, 16)
        cfg.space.m_max = m_max
        path = tmp_path / "short.json"
        save_config(cfg.validate(), path)
        code = main(["stabilize", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "first 8 modes" in err and "M1 = 99 to control.M_list" in err
        assert ("raise space.m_max from 98 to 99" in err) == (m_max == 98)

    def test_selected_m1_is_not_a_fallback(self):
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        assert p.control_dim(cfg.control.lam) == (32, False)


class TestPlots:
    def test_decay_plot_with_bound_overlay(self, tmp_path):
        t = np.linspace(0, 3, 50)
        emit_plot("decay", (["t", "v_h", "bound_h"],
                            [t, np.exp(-t), 2 * np.exp(-0.8 * t)]),
                  tmp_path / "d.svg", "decay")
        text = (tmp_path / "d.svg").read_text()
        assert text.startswith("<svg")
        assert "stroke-dasharray" in text        # the bound is dashed
        assert text.count("polyline") >= 2

    def test_empty_data_gives_empty_axes(self, tmp_path):
        emit_plot("decay", (["t", "v_h"], [[], []]), tmp_path / "e.svg", "decay")
        assert "(no data)" in (tmp_path / "e.svg").read_text()
        # a D(M) table with no finite entry draws no staircase
        emit_plot("staircase", ([8, 16], [np.inf, np.inf]), tmp_path / "s.svg", "D(M)")
        assert "(no data)" in (tmp_path / "s.svg").read_text()

    def test_heatmap_from_basin_report(self, tmp_path):
        rep = {"scales": [0.5, 1.0], "epsilon_hat": 1.0,
               "outcomes": [["decay", "no-decay"], ["decay", "blowup"]]}
        emit_plot("heatmap", rep, tmp_path / "b.svg", "basin")
        text = (tmp_path / "b.svg").read_text()
        assert "epsilon_hat = 1" in text
        assert text.count("<rect") >= 4
