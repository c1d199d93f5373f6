"""Config round-trip, CLI subcommands, exit codes, artifact schemas."""

import functools
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsstab import cli, dynamics, feedback, nonlinear, observability, stabilizer
from nsstab.cli import Pipeline, main, run
from nsstab.config import ExperimentConfig
from nsstab.dynamics import Propagator, build_propagator
from nsstab.errors import ConfigError, RiccatiBlowupError, VerificationError
from nsstab.feedback import (
    closed_loop_linear,
    doubled_tail_value,
    horizon_gate,
    optimal_cost_check,
    optimal_rollouts,
    riccati_residual,
    riccati_solve,
    unpack_symmetric,
)
from nsstab.nonlinear import closed_loop_steps, simulate_closed_loop
from nsstab.plots import emit_plot
from nsstab.null_control import build_reachability
from nsstab.quadmin import pinv_psd
from nsstab.spectral import build_actuator
from nsstab.stabilizer import CutoffSearch

from oracles import bundle_on, forms_on, save_config

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"


class InProcessWorker:
    """cli.Worker's contract in this process: each submitted job's
    arguments cross a pickle round trip, and take() runs the job submitted
    last up to its next result, so its results come in order and its
    exception is raised at its turn."""

    def __init__(self):
        self.label, self.timings, self.peak_mb = None, {}, 0.0
        self._results = None

    def submit(self, label, fn, *args):
        self.label = label
        self._results = self._run(label, fn,
                                  pickle.loads(pickle.dumps(args, protocol=5)))

    def _run(self, label, fn, args):
        start = time.perf_counter()
        value = fn(*args)
        if isinstance(value, types.GeneratorType):
            value = yield from value
        self.timings[label] = {"worker_s": round(time.perf_counter() - start, 3),
                               "wait_s": 0.0}
        yield value

    def take(self):
        return next(self._results)

    def close(self):
        if self._results is not None:
            self._results.close()


@pytest.fixture()
def in_process_workers(monkeypatch):
    """Run every worker's job in this process (InProcessWorker), so a patch
    of the code a job runs reaches it."""
    monkeypatch.setattr(cli, "Worker", InProcessWorker)


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
        assert set(manifest["horizon_gate"]) == {"worker_s", "wait_s"}
        # the worker reports its own peak with its results
        peaks = manifest["peak_rss_mb"]
        assert set(peaks) == {"cli", "children"}
        assert peaks["cli"] > 0 and peaks["children"] > 0

    def test_peak_memory_of_a_run_without_children(self, small_cfg, tmp_path):
        _, path = small_cfg
        out = tmp_path / "o"
        assert cli_process("stabilize", path, out).returncode == 0
        peaks = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert peaks["cli"] > 0 and peaks["children"] == 0

    def test_worker_peak_is_its_own(self, small_cfg, tmp_path):
        # a process's ru_maxrss starts from the high-water mark of the
        # process that spawned it; the worker's figure must not: spawned
        # from a process that touched 96 MB, it reads far below that
        _, path = small_cfg
        block = np.ones(96 * 2**20 // 8)
        del block
        out = tmp_path / "o"
        assert run("feedback", str(path), str(out)) == 0
        peaks = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert peaks["cli"] >= 96
        assert 0 < peaks["children"] < peaks["cli"] - 48

    def test_wall_time_ignores_a_clock_step(self, small_cfg, tmp_path, monkeypatch):
        # the wall clock steps back by 1e9 s after its first read
        _, path = small_cfg
        reads = []

        def stepping_clock():
            reads.append(None)
            return 2e9 if len(reads) == 1 else 1e9
        monkeypatch.setattr(time, "time", stepping_clock)
        out = tmp_path / "o"
        assert run("reference", str(path), str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["wall_time_s"] >= 0

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
        # the law stores packed triangles; the artifact keeps (K, K) matrices.
        # The run restricts the law to its head later, so its full horizon
        # is captured as the sweep left it
        cfg, path = small_cfg
        sweeps = []

        def spy(*args, **kwargs):
            law = riccati_solve(*args, **kwargs)
            sweeps.append((law.n_steps, law.Q_packed.copy()))
            return law
        monkeypatch.setattr(cli, "riccati_solve", spy)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        (n_steps, Q_packed), = sweeps
        with np.load(tmp_path / "o" / "feedback_law.npz") as artifact:
            Qt, stride = artifact["Qt"], int(artifact["stride"])
        K = cfg.space.K
        assert Qt.shape == (n_steps // stride + 1, K, K)
        assert np.array_equal(Qt, Qt.transpose(0, 2, 1))
        for j, m in enumerate(range(0, n_steps + 1, stride)):
            assert np.array_equal(Qt[j], unpack_symmetric(Q_packed[m])), m

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
        # the extrapolated M1 divides by slack - 1
        ("stabilize", {"control.slack": 1.0}, "control.slack"),
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

    @pytest.mark.parametrize("section, key, value", [
        ("control", "M_list", 5),
        ("chi", "center", 3),
        ("space", "K", "24"),
        ("time", "dt", None),
        (None, "seed", "7"),
        ("nonlinear", "basin_scales", [1, "x"]),
    ])
    def test_config_value_of_wrong_type_exit_code_names_the_field(
            self, tmp_path, capsys, section, key, value):
        data = json.loads(DEFAULT_CONFIG.read_text())
        (data[section] if section else data)[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run("basin", str(path), str(tmp_path / "o")) == 2
        assert ".".join(filter(None, (section, key))) in capsys.readouterr().err

    def test_config_not_an_object_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert run("reference", str(bad), str(tmp_path / "o")) == 2
        assert "top level: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("k", [0, 1.5]),
        ("weight", "x"),
        ("a0", None),
        ("a1", [0.1]),
        ("omega", True),
    ])
    def test_reference_mode_of_wrong_type_exit_code_names_the_field(
            self, tmp_path, capsys, key, value):
        data = json.loads(DEFAULT_CONFIG.read_text())
        mode = {"k": [0, 1], "phase": "sin", "weight": 2.0, "a0": 0.5, "a1": 0.1,
                "omega": 1.0}
        data["reference"].update(preset="modes", modes=[dict(mode, **{key: value})])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run("reference", str(path), str(tmp_path / "o")) == 2
        assert f"reference.modes[0].{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("reference", "a0"),
        ("time", "T_h"),
        ("tolerances", "riccati_cap"),
        ("reference", "modes"),
    ])
    def test_integer_beyond_float_range_exit_code_names_the_field(
            self, tmp_path, capsys, section, key):
        # JSON integers are unbounded; a float field refuses one that no
        # float holds
        data = json.loads(DEFAULT_CONFIG.read_text())
        if key == "modes":
            data["reference"].update(preset="modes", modes=[
                {"k": [0, 1], "phase": "sin", "weight": 10**400, "a0": 0.5}])
            field = "reference.modes[0].weight"
        else:
            data[section][key] = 10**400
            field = f"{section}.{key}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run("reference", str(path), str(tmp_path / "o")) == 2
        assert f"{field}: must lie within float range" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, small_cfg, tmp_path):
        cfg, _ = small_cfg
        cfg.control.lam = 25.0        # unreachable decay rate at this K
        path = tmp_path / "hard.json"
        save_config(cfg, path)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 3

    def test_picard_cap_exit_code(self, small_cfg, tmp_path, monkeypatch,
                                  in_process_workers):
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
                                                           monkeypatch, capsys,
                                                           in_process_workers):
        # the law fits but the closed loop's (n_steps, K, K) step stack does
        # not: refused before a step is built, naming what sizes the stack.
        # The law's guard reads the probe first (here: nothing readable),
        # the closed loop's second
        cfg, path = small_cfg
        n_steps = round(min(cfg.time.n_max, cfg.time.T_h - 1) / cfg.time.dt)
        need = 8 * n_steps * cfg.space.K**2
        stacks = []             # the closed loops' step stacks
        monkeypatch.setattr(nonlinear, "cn_steps",
                            lambda *args: stacks.append(dynamics.cn_steps(*args))
                            or stacks[-1])

        def probe(*readings):
            return functools.partial(next, iter(readings))
        monkeypatch.setattr(feedback, "available_memory_bytes", probe(None, need - 1))
        code = main(["feedback", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and stacks == []
        assert f"{need / 1e6:.1f} MB" in err
        assert all(field in err for field in
                   ("nonlinear.sim_units", "time.n_max", "space.K"))
        # at exactly the stack's size the run builds it, once, and the decay
        # run reads it in place
        loops, decays = [], record_calls(monkeypatch, closed_loop_linear)
        monkeypatch.setattr(cli, "closed_loop_steps",
                            lambda *args: loops.append(closed_loop_steps(*args))
                            or loops[-1])
        monkeypatch.setattr(feedback, "available_memory_bytes", probe(None, need))
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        (loop,) = loops
        assert loop.phi.nbytes == need and len(stacks) == 1 and loop.phi is stacks[0]
        assert np.shares_memory(decays[0][0][0].phi, stacks[0])

    @pytest.mark.parametrize("refine_tol", [dynamics.REFINE_TOL, 0.0])
    def test_feedback_report_counts_step_inverses(self, small_cfg, tmp_path,
                                                  monkeypatch, refine_tol):
        # feedback.json counts how the law's sweep, the rollout pass from 0
        # and the cost check from 1 obtained each step inverse; each solves
        # only its first.  Where no residual passes, every one is solved
        cfg, path = small_cfg
        monkeypatch.setattr(dynamics, "REFINE_TOL", refine_tol)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        rep = json.loads((tmp_path / "o" / "feedback.json").read_text())
        counts = rep["step_inverses"]
        n_T, n_unit = round(cfg.time.T_h / cfg.time.dt), round(1.0 / cfg.time.dt)
        assert set(counts) == {"one", "two", "solved"}
        assert sum(counts.values()) == 3 * n_T - n_unit
        assert counts["solved"] == (3 if refine_tol else 3 * n_T - n_unit)
        assert rep["optimal_cost"]["step_inverses"]["solved"] == (
            1 if refine_tol else n_T - n_unit)

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
                                              capsys, in_process_workers):
        # a nonlinear run that grows like e^t from data inside the shipped
        # gate is not decayed there, and the run fails
        _, path = small_cfg
        grow_nonlinear_runs(monkeypatch)
        out = tmp_path / "o"
        code = main(["closed-loop", "--config", str(path), "--out", str(out)])
        assert code == 4
        assert "nonlinear decay violated inside the gate" in capsys.readouterr().err
        rep = json.loads((out / "closed_loop.json").read_text())
        assert rep["inside_gate"] and not rep["decayed"]

    def test_decay_violation_in_all_keeps_the_feedback_report(
            self, small_cfg, tmp_path, monkeypatch, capsys, in_process_workers):
        # the closed-loop job stops at the failure, which is raised at
        # closed-loop's turn, after feedback.json is written
        _, path = small_cfg
        grow_nonlinear_runs(monkeypatch)
        out = tmp_path / "o"
        assert run("all", str(path), str(out)) == 4
        assert "nonlinear decay violated inside the gate" in capsys.readouterr().err
        assert json.loads((out / "feedback.json").read_text())["horizon_gate"]
        assert not json.loads((out / "closed_loop.json").read_text())["decayed"]
        assert not (out / "basin.json").exists()

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

    def test_stabilize_reports_the_regularity_of_the_first_interval(
            self, controlled_cfg, tmp_path, monkeypatch):
        # the smoothing constants come from the search's interval-0
        # propagator and a generator of their own, seeded from the config
        # seed: the run's generator is left as a run without the report
        # leaves it, so no later draw moves
        cfg, path = controlled_cfg
        out = tmp_path / "o"
        assert run("stabilize", str(path), str(out)) == 0
        rep = json.loads((out / "stabilize.json").read_text())["regularity"]
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        own = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        want = dynamics.regularity_diagnostics(p.space, p.search.propagators[0],
                                               cli.REGULARITY_RUNS, own)
        assert rep == want
        assert rep["runs"] == cli.REGULARITY_RUNS and rep["all_finite"]
        states = []
        for report in (cli.regularity_diagnostics, lambda *args: {}):
            monkeypatch.setattr(cli, "regularity_diagnostics", report)
            p = Pipeline(cfg, np.random.default_rng(cfg.seed))
            cli.cmd_stabilize(p, str(tmp_path))
            states.append(p.rng.bit_generator.state)
        assert states[0] == states[1]

    @pytest.mark.parametrize("lam, N, M1", [(1.5, 18, 64), (2.7, 28, 96)])
    def test_stabilize_picks_the_smallest_passing_cutoff(self, tmp_path, lam, N, M1):
        # the interval instance: its contraction is not monotone in N (0.752
        # at N = 16, 0.430 at 18, 0.258 at 28, 0.266 at 32), so a doubling
        # scan with bisection picks N = 26 at lambda = 1.5 and none at 2.7
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.space.K, cfg.time.n_max, cfg.control.lam = 48, 12, lam
        path = tmp_path / "interval.json"
        save_config(cfg.validate(), path)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 0
        rep = json.loads((tmp_path / "o" / "stabilize.json").read_text())
        assert (rep["N"], rep["M1"]) == (N, M1)
        assert rep["contraction"] <= rep["contraction_target"]
        tried = rep["tried_cutoffs"]
        assert [n for n, _ in tried] == list(range(N + 1))
        assert all(f > rep["contraction_target"] for _, f in tried[:-1])
        assert tried[-1][1] == rep["contraction"]

    def test_main_entrypoint(self, small_cfg, tmp_path):
        _, path = small_cfg
        code = main(["reference", "--config", str(path),
                     "--out", str(tmp_path / "m")])
        assert code == 0
        assert (tmp_path / "m" / "reference.svg").exists()


def spawned(monkeypatch):
    """The list of every process started through subprocess.Popen from now
    on, each recorded as it starts."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs


def assert_no_child_left(procs):
    """Every recorded process was waited for, and this process has no child,
    running or unreaped."""
    assert all(p.returncode is not None for p in procs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a worker that takes its job and then never answers
SILENT_WORKER = "import sys, time\nsys.stdin.buffer.read()\ntime.sleep(600)\n"


def failing(error):
    def fail(*args, **kwargs):
        raise error("injected failure")
    return fail


def grow_nonlinear_runs(monkeypatch):
    """Make every nonlinear run grow like e^t from its start."""
    run_nonlinear = nonlinear.ClosedLoopStepper.run_nonlinear

    def growing(self, v0):
        trajectory, blowup_t = run_nonlinear(self, v0)
        t = trajectory.times - trajectory.times[0]
        trajectory.states = trajectory.states * np.exp(t)[:, None]
        return trajectory, blowup_t
    monkeypatch.setattr(nonlinear.ClosedLoopStepper, "run_nonlinear", growing)


def submitted(monkeypatch):
    """The list of the labels of every job submitted to a cli.Worker from
    now on, in order."""
    labels = []
    submit = cli.Worker.submit

    def recorded(self, label, fn, *args):
        labels.append(label)
        return submit(self, label, fn, *args)
    monkeypatch.setattr(cli.Worker, "submit", recorded)
    return labels


class TestHorizonGateWorker:
    @pytest.mark.parametrize("subcommand, gated", [
        ("feedback", True), ("stabilize", False), ("closed-loop", False),
        ("basin", False), ("all", True)])
    def test_only_the_feedback_report_starts_the_gate(self, small_cfg, tmp_path,
                                                      monkeypatch, subcommand, gated):
        # the gate's D is the in-process sweep's, bit for bit, so its report
        # is too, and the manifest carries the gate job's timings;
        # closed-loop builds the law but sweeps no doubled horizon.  A run
        # that reads the law starts one worker: the gate's job first, then
        # the closed loop's, whose timings the manifest carries too
        cfg, path = small_cfg
        procs = spawned(monkeypatch)
        jobs = submitted(monkeypatch)
        out = tmp_path / "o"
        assert run(subcommand, str(path), str(out)) == 0
        looped = subcommand != "stabilize"
        assert len(procs) == looped
        assert jobs == ["horizon-gate"] * gated + ["closed-loop"] * looped
        assert_no_child_left(procs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert ("horizon_gate" in manifest) == gated
        assert ("closed_loop_worker" in manifest) == looped
        for key in {"horizon_gate", "closed_loop_worker"} & set(manifest):
            timings = manifest[key]
            assert set(timings) == {"worker_s", "wait_s"}
            assert timings["worker_s"] > 0 and timings["wait_s"] >= 0
        if not gated:
            return
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        cap = cfg.tolerances.riccati_cap
        want = horizon_gate(p.law, doubled_tail_value(
            p.reference, cfg.control.lam, p.actuator, cfg.time.T_h, cfg.time.dt,
            cap), cap)
        assert json.loads((out / "feedback.json").read_text())["horizon_gate"] == want

    def test_gate_beyond_the_cap_exits_3(self, small_cfg, tmp_path, monkeypatch,
                                         capsys):
        # at T_h = 2 the law's cost operators stay below 1.19 in the
        # inf-norm, the tail value D's below 1.10, and the doubled
        # synthesis's reach 1.55, at node 0: the cap between passes both
        # sweeps and stops the gate the CLI forms from D, before the closed
        # loop's job is submitted.  A worker that sent every result exits by
        # itself once its stdin closes, however long its exit takes: it is
        # waited for, not killed
        cfg, _ = small_cfg
        cfg.time.T_h, cfg.tolerances.riccati_cap = 2.0, 1.35
        path = tmp_path / "capped.json"
        save_config(cfg.validate(), path)
        monkeypatch.setattr(cli, "WORKER", cli.WORKER + "time.sleep(0.5)\n")
        procs = spawned(monkeypatch)
        jobs = submitted(monkeypatch)
        out = tmp_path / "o"
        assert run("feedback", str(path), str(out)) == 3
        assert "cost operator exceeded cap 1.4e+00" in capsys.readouterr().err
        assert not (out / "feedback.json").exists()
        assert len(procs) == 1 and jobs == ["horizon-gate"]
        assert procs[0].returncode == 0
        assert_no_child_left(procs)

    def test_law_failure_does_not_wait_for_the_gate(self, small_cfg, tmp_path,
                                                    monkeypatch):
        _, path = small_cfg
        monkeypatch.setattr(cli, "WORKER", SILENT_WORKER)
        monkeypatch.setattr(cli, "riccati_solve", failing(RiccatiBlowupError))
        procs = spawned(monkeypatch)
        jobs = submitted(monkeypatch)
        started = time.perf_counter()
        assert run("feedback", str(path), str(tmp_path / "o")) == 3
        assert time.perf_counter() - started < 60
        assert len(procs) == 1 and jobs == ["horizon-gate"]
        assert procs[0].returncode == -signal.SIGKILL
        assert_no_child_left(procs)

    def test_worker_killed_from_outside_exits_3(self, small_cfg, tmp_path,
                                                monkeypatch, capsys):
        _, path = small_cfg
        procs = spawned(monkeypatch)

        def kill_then_solve(*args, **kwargs):
            os.kill(procs[0].pid, signal.SIGKILL)
            return riccati_solve(*args, **kwargs)
        monkeypatch.setattr(cli, "riccati_solve", kill_then_solve)
        out = tmp_path / "o"
        assert run("feedback", str(path), str(out)) == 3
        err = capsys.readouterr().err
        assert f"horizon-gate worker ended without a result (exit code " \
               f"{-signal.SIGKILL})" in err
        assert not (out / "feedback.json").exists()
        assert_no_child_left(procs)

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_no_child_outlives_the_run(self, small_cfg, tmp_path, monkeypatch, code):
        # each exit after the gate's job was submitted: success, the law
        # refused for memory, the law's sweep failing (neither submits the
        # closed loop's job) and a check failing before the closed loop's
        # results are taken
        _, path = small_cfg
        if code == 2:
            monkeypatch.setattr(feedback, "available_memory_bytes", lambda: 0)
        if code == 3:
            monkeypatch.setattr(cli, "riccati_solve", failing(RiccatiBlowupError))
        if code == 4:
            monkeypatch.setattr(cli, "dp_check", failing(VerificationError))
        procs = spawned(monkeypatch)
        jobs = submitted(monkeypatch)
        assert run("feedback", str(path), str(tmp_path / "o")) == code
        started = ["horizon-gate"] if code in (2, 3) else ["horizon-gate", "closed-loop"]
        assert len(procs) == 1 and jobs == started
        assert_no_child_left(procs)

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_all_reaps_both_workers(self, small_cfg, tmp_path, monkeypatch, code):
        # every exit of all after its worker started: success, a config
        # error and a check failing in this process after both jobs were
        # submitted, and the doubled synthesis past the cap, refused before
        # the closed loop's job is submitted
        cfg, path = small_cfg
        if code == 2:
            monkeypatch.setattr(cli, "riccati_residual", failing(ConfigError))
        if code == 3:
            cfg.time.T_h, cfg.tolerances.riccati_cap = 2.0, 1.35
            save_config(cfg.validate(), path)
        if code == 4:
            monkeypatch.setattr(cli, "dp_check", failing(VerificationError))
        procs = spawned(monkeypatch)
        jobs = submitted(monkeypatch)
        assert run("all", str(path), str(tmp_path / "o")) == code
        started = ["horizon-gate"] if code == 3 else ["horizon-gate", "closed-loop"]
        assert len(procs) == 1 and jobs == started
        assert_no_child_left(procs)

    def test_closed_loop_worker_killed_from_outside_exits_3(self, small_cfg, tmp_path,
                                                            monkeypatch, capsys):
        _, path = small_cfg
        procs = []

        class KilledAtStart(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                procs.append(self)
                self.kill()
        monkeypatch.setattr(subprocess, "Popen", KilledAtStart)
        out = tmp_path / "o"
        assert run("closed-loop", str(path), str(out)) == 3
        assert f"the closed-loop worker ended without a result (exit code " \
               f"{-signal.SIGKILL})" in capsys.readouterr().err
        assert not (out / "closed_loop.json").exists()
        assert len(procs) == 1
        assert_no_child_left(procs)

    def test_job_arrays_are_not_copied(self, monkeypatch):
        # a job's arrays are written to the worker from their own memory:
        # starting a job on 8 MB allocates far less than 8 MB here, and the
        # worker computes on the bytes it was sent
        procs = spawned(monkeypatch)
        block = np.arange(2**20, dtype=float).reshape(1024, 1024)
        tracemalloc.start()
        try:
            worker = cli.Worker()
            worker.submit("test", feedback.pack_symmetric, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert np.array_equal(worker.take(), feedback.pack_symmetric(block))
        finally:
            worker.close()
        assert peak < block.nbytes / 8
        assert worker.timings["test"]["worker_s"] >= 0 and worker.peak_mb > 0
        assert_no_child_left(procs)

    def test_one_worker_runs_its_jobs_in_turn(self, monkeypatch):
        # a job's error ends that job, not the worker: the next job runs in
        # the same process.  No job is submitted while a result of the one
        # before is still to be taken, and a worker whose every job ended
        # exits by itself once its stdin closes
        procs = spawned(monkeypatch)
        block = np.arange(16, dtype=float).reshape(4, 4)
        worker = cli.Worker()
        try:
            worker.submit("first", feedback.pack_symmetric, np.zeros(3))
            with pytest.raises(IndexError) as info:
                worker.take()
            assert any("in the first worker" in note for note in info.value.__notes__)
            worker.submit("second", feedback.pack_symmetric, block)
            with pytest.raises(RuntimeError, match="the second job has results"):
                worker.submit("third", feedback.pack_symmetric, block)
            assert np.array_equal(worker.take(), feedback.pack_symmetric(block))
        finally:
            worker.close()
        assert len(procs) == 1 and procs[0].returncode == 0
        assert set(worker.timings) == {"second"}
        assert_no_child_left(procs)

    @pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
    def test_worker_blas_runs_one_thread_unless_the_caller_sets_it(self, monkeypatch,
                                                                   caller):
        # the worker's pool is pinned to one thread where the caller's
        # environment names no count, and a count the caller sets wins
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in pins:
            monkeypatch.delenv(name, raising=False)
        for name, value in caller.items():
            monkeypatch.setenv(name, value)
        procs, envs = [], []

        class Spied(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                envs.append(kwargs["env"])
                super().__init__(*args, **kwargs)
                procs.append(self)
        monkeypatch.setattr(subprocess, "Popen", Spied)
        worker = cli.Worker()
        try:
            worker.submit("env", os.getenv, "OPENBLAS_NUM_THREADS")
            seen = worker.take()
        finally:
            worker.close()
        (env,) = envs
        assert {name: env[name] for name in pins} == {name: caller.get(name, "1")
                                                      for name in pins}
        assert seen == caller.get("OPENBLAS_NUM_THREADS", "1")
        assert_no_child_left(procs)

    def test_closed_loop_runs_under_a_profile_hook(self, small_cfg, tmp_path):
        # a profiler's hook holds references to the frames it sees
        _, path = small_cfg
        sys.setprofile(lambda *args: None)
        try:
            code = run("closed-loop", str(path), str(tmp_path / "o"))
        finally:
            sys.setprofile(None)
        assert code == 0

    def test_run_under_cprofile(self, small_cfg, tmp_path):
        # under python -m cProfile -m nsstab.cli, __main__ is neither the
        # CLI's module nor cProfile's, and each worker still finds its job
        _, path = small_cfg
        out = tmp_path / "o"
        proc = cli_process("all", path, out, "-m", "cProfile", "-o",
                           str(tmp_path / "all.prof"))
        assert proc.returncode == 0 and proc.stderr == ""
        assert set(json.loads((out / "manifest.json").read_text())) >= {
            "horizon_gate", "closed_loop_worker"}

    def test_closed_loop_leaves_the_generator_as_in_process(self, small_cfg, tmp_path,
                                                            monkeypatch):
        # the worker continues the run's generator and hands its state back:
        # the state and the artifacts are those of the body run in process
        cfg, path = small_cfg
        pipelines = []

        class Recorded(Pipeline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pipelines.append(self)
        monkeypatch.setattr(cli, "Pipeline", Recorded)
        out, here = tmp_path / "o", tmp_path / "here"
        assert run("closed-loop", str(path), str(out)) == 0
        here.mkdir()
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        loop = closed_loop_steps(p.law, 0.0, min(cfg.nonlinear.sim_units,
                                                 cfg.time.T_h - 1.0))
        artifacts = cli.closed_loop_body(loop, cfg, p.rng, str(here))
        state = pipelines[0].rng.bit_generator.state
        assert state == p.rng.bit_generator.state
        assert state != np.random.default_rng(cfg.seed).bit_generator.state
        assert "closed_loop.csv" in artifacts
        for name in artifacts:
            assert (out / name).read_bytes() == (here / name).read_bytes(), name

    def test_dev_mode_run_leaves_no_resource_warning(self, small_cfg, tmp_path):
        # an unclosed pipe or a worker never waited for is a ResourceWarning,
        # an error under -W error::ResourceWarning
        _, path = small_cfg
        for subcommand in ("feedback", "all", "closed-loop", "basin"):
            proc = cli_process(subcommand, path, tmp_path / subcommand, "-X", "dev",
                               "-W", "error::ResourceWarning")
            assert proc.returncode == 0, subcommand
            assert proc.stderr == "", subcommand


def cli_process(subcommand, config, out, *flags):
    """nsstab.cli subcommand run as its own Python process with the
    interpreter flags given, this checkout's package first on its path."""
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *flags, "-m", "nsstab.cli", subcommand,
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600)


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
            rtol = cfg.tolerances.pinv_rtol
            assert (got.N, got.actuator.M) == (N, M)
            assert pinv_psd(got.gramian, rtol)[1] == pinv_psd(want.gramian, rtol)[1]
            for name in ("stages", "gramian"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name
        assert search.reachability(choice.N, choice.M1).actuator \
            is search.actuator(choice.M1)
        with pytest.raises(ValueError, match="outside"):
            search.reachability(search.n_top + 1, choice.M1)

    def test_search_reachability_is_a_view_of_the_sweep(self, controlled_cfg):
        cfg, _ = controlled_cfg
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        choice = p.choice(cfg.control.lam)
        bundle = p.search.reachability(choice.N, choice.M1)
        assert bundle.N == choice.N
        assert np.shares_memory(bundle.stages, p.search._stages0)

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
                                                  monkeypatch, in_process_workers):
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
    def test_all_builds_the_closed_loop_once(self, small_cfg, tmp_path, monkeypatch,
                                             in_process_workers):
        # feedback, closed-loop and basin share the (0, n) window
        cfg, path = small_cfg
        assert cfg.time.n_max == cfg.nonlinear.sim_units
        builds = record_calls(monkeypatch, closed_loop_steps)
        assert run("all", str(path), str(tmp_path / "o")) == 0
        assert [(args[1], args[2]) for args, _ in builds] == [(0.0, cfg.time.n_max)]

    def test_one_stack_holds_every_window(self, small_cfg):
        # the loop on the longer window starts with the shorter one's steps,
        # bit for bit, and the closed loop's job gets the head of the
        # windows it reads
        cfg, _ = small_cfg
        cfg.nonlinear.sim_units = 2.0
        p = Pipeline(cfg, np.random.default_rng(cfg.seed), ["closed-loop"])
        assert [cli.window_steps(cfg, units) for units in
                (cfg.time.n_max, cfg.nonlinear.sim_units)] == [3 * 128, 2 * 128]
        head = p.closed_loop_head(decay=True)
        assert head.head == 3 * 128 and np.shares_memory(head.Q_packed, p.law.Q_packed)
        assert p.closed_loop_head(decay=False).head == 2 * 128
        loop = closed_loop_steps(head, 0.0, head.head * head.dt)
        assert (loop.s, loop.n_steps, loop.lam) == (0.0, 3 * 128, p.law.lam)
        short = closed_loop_steps(p.law, 0.0, 2.0)
        assert short is not loop and short.n_steps == 2 * 128
        assert np.array_equal(loop.phi[:short.n_steps], short.phi)

    @pytest.mark.parametrize("sim_units", [2.0, 4.0])
    def test_all_reads_one_stack_for_unequal_windows(self, small_cfg, tmp_path,
                                                     monkeypatch, in_process_workers,
                                                     sim_units):
        # with sim_units below or above n_max, all builds one stack on the
        # longer window; the decay run reads the first n_max units of it, the
        # nonlinear run, the probe and the basin sweep the first sim_units,
        # each in place, and the artifacts are those of a stack built for
        # each window on its own
        cfg, _ = small_cfg
        cfg.nonlinear.sim_units = sim_units
        path = tmp_path / "windows.json"
        save_config(cfg, path)
        loops = []

        def spy(*args):
            loops.append(closed_loop_steps(*args))
            return loops[-1]
        monkeypatch.setattr(cli, "closed_loop_steps", spy)
        readers = {name: record_calls(monkeypatch, func) for name, func in
                   (("decay", closed_loop_linear), ("nonlinear", simulate_closed_loop),
                    ("probe", nonlinear.contraction_probe),
                    ("basin", nonlinear.basin_sweep))}
        out = tmp_path / "one"
        assert run("all", str(path), str(out)) == 0
        (loop,) = loops
        steps = {"decay": 3 * 128, "nonlinear": int(sim_units) * 128}
        assert loop.n_steps == max(steps.values())
        for name, calls in readers.items():
            (((reader, *_), _),) = calls
            assert reader.n_steps == steps.get(name, steps["nonlinear"]), name
            assert np.shares_memory(reader.phi, loop.phi), name

        def per_window(cfg, rng, head, v0, out, commands):
            # one stack built on each window alone
            def built(units):
                return cli.closed_loop_steps(head, 0.0, min(units, cfg.time.T_h - 1.0))
            yield cli.feedback_decay(built(cfg.time.n_max), out, v0)
            for name in commands:
                yield cli.CLOSED_LOOP_BODIES[name](built(cfg.nonlinear.sim_units),
                                                   cfg, rng, out)
            return rng.bit_generator.state
        monkeypatch.setattr(cli, "closed_loop_job", per_window)
        loops.clear()
        apart = tmp_path / "apart"
        assert run("all", str(path), str(apart)) == 0
        assert [stack.n_steps for stack in loops] == [3 * 128] + [
            int(sim_units) * 128] * 2
        for name in ("feedback_decay.csv", "closed_loop.csv", "closed_loop.json",
                     "basin.json"):
            assert (out / name).read_bytes() == (apart / name).read_bytes(), name

    def test_feedback_alone_sends_the_decay_window(self, small_cfg, tmp_path,
                                                   monkeypatch, in_process_workers):
        # feedback reads no nonlinear window, so a longer sim_units does not
        # lengthen the head its closed-loop job gets
        cfg, _ = small_cfg
        cfg.nonlinear.sim_units = 4.0
        path = tmp_path / "longer.json"
        save_config(cfg, path)
        rows = []

        def spy(law, s, n_units):
            rows.append(law.Q_packed.shape[0])
            return closed_loop_steps(law, s, n_units)
        monkeypatch.setattr(cli, "closed_loop_steps", spy)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        assert rows == [round(cfg.time.n_max / cfg.time.dt) + 1]

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

    @pytest.mark.parametrize("subcommand", ["feedback", "closed-loop"])
    def test_closed_loop_is_built_from_the_law_head(self, small_cfg, tmp_path,
                                                    monkeypatch, subcommand,
                                                    in_process_workers):
        # no closed-loop step is built from the law's full horizon: the
        # closed loop's job holds [0, min(units, T_h - 1)], units the longest
        # window it reads (here n_max = sim_units)
        cfg, path = small_cfg
        rows = []

        def spy(law, s, n_units):
            rows.append(law.Q_packed.shape[0])
            return closed_loop_steps(law, s, n_units)
        monkeypatch.setattr(cli, "closed_loop_steps", spy)
        assert run(subcommand, str(path), str(tmp_path / "o")) == 0
        head = min(max(cfg.time.n_max, cfg.nonlinear.sim_units), cfg.time.T_h - 1.0)
        assert rows == [round(head / cfg.time.dt) + 1]
        assert rows[0] < round(cfg.time.T_h / cfg.time.dt) + 1

    def test_reports_keep_the_full_horizon(self, small_cfg, tmp_path):
        # the readers of the whole law report on its full horizon
        cfg, path = small_cfg
        out = tmp_path / "o"
        assert run("feedback", str(path), str(out)) == 0
        rep = json.loads((out / "feedback.json").read_text())
        assert rep["T_h"] == rep["horizon_gate"]["T_h"] == cfg.time.T_h
        law = Pipeline(cfg, np.random.default_rng(cfg.seed)).law
        assert rep["max_gain_norm"] == law.max_gain_norm()
        assert rep["riccati_residual"] == riccati_residual(
            law, [cfg.time.T_h / 8, cfg.time.T_h / 4, cfg.time.T_h / 2])


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

    @pytest.mark.parametrize("m_max", [160, 86])
    def test_unobserved_cutoff_names_the_extrapolated_m1(self, tmp_path, capsys,
                                                         m_max):
        # cutoffs are tried in order, and N = 5 is the first that no M of
        # (8, 16) observes; select_m1 extrapolates M1 = 87, and past
        # space.m_max the table must grow to hold it
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.control.M_list = (8, 16)
        cfg.space.m_max = m_max
        path = tmp_path / "short.json"
        save_config(cfg.validate(), path)
        code = main(["stabilize", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "first 5 modes" in err and "M1 = 87 to control.M_list" in err
        assert ("raise space.m_max from 86 to 87" in err) == (m_max == 86)

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
