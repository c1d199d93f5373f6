"""Config round-trip, CLI subcommands, exit codes, artifact schemas."""

import json
import os
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsstab import cli, nonlinear, observability
from nsstab.cli import Pipeline, main, run, write_csv
from nsstab.config import ExperimentConfig
from nsstab.dynamics import Propagator, build_propagator
from nsstab.errors import ConfigError, SchemaError
from nsstab.feedback import closed_loop_steps, riccati_solve
from nsstab.plots import emit_plot
from nsstab.stabilizer import CutoffSearch, choose_n

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"


class TestConfig:
    def test_roundtrip_bit_identical(self, small_cfg, tmp_path):
        cfg, path = small_cfg
        loaded = ExperimentConfig.load(path)
        assert loaded.canonical_json() == cfg.canonical_json()
        again = tmp_path / "again.json"
        loaded.save(again)
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

    def test_missing_config_exit_code(self, tmp_path):
        assert run("reference", str(tmp_path / "nope.json"), str(tmp_path)) == 2

    def test_numerical_failure_exit_code(self, small_cfg, tmp_path):
        cfg, _ = small_cfg
        cfg.control.lam = 25.0        # unreachable decay rate at this K
        path = tmp_path / "hard.json"
        cfg.save(path)
        assert run("stabilize", str(path), str(tmp_path / "o")) == 3

    def test_picard_cap_exit_code(self, small_cfg, tmp_path, monkeypatch):
        _, path = small_cfg
        monkeypatch.setattr(nonlinear, "INNER_CAP", 1)
        assert run("closed-loop", str(path), str(tmp_path / "o")) == 3

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
        cfg, _ = small_cfg
        cfg.tolerances.pinv_rtol = 1e-11
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        p.choice(cfg.control.lam)
        full = record_calls(monkeypatch, observability.full_constant)
        ratio = record_calls(monkeypatch, observability.h1_l2_ratio)
        cli.cmd_observability(p, str(tmp_path))
        assert len(full) == 1 and len(ratio) == 1
        (_, rtol), _ = ratio[0]
        assert rtol == 1e-11
        payload = json.loads((tmp_path / "observability.json").read_text())
        forms = full[0][0][0]
        assert payload["D_inf"] == observability.full_constant(forms, 1e-11)
        assert payload["C_h1l2"] == observability.h1_l2_ratio(forms, 1e-11)

    def test_feedback_integrates_closed_loop_once(self, small_cfg, tmp_path,
                                                  monkeypatch):
        # one build for the decay run and its Lyapunov functional, one for
        # the optimal-cost simulation
        _, path = small_cfg
        builds = record_calls(monkeypatch, closed_loop_steps)
        assert run("feedback", str(path), str(tmp_path / "o")) == 0
        assert len(builds) == 2

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
            want = choose_n(p.space, p.reference, p.chi, lam, cfg.control.M_list,
                            n_max=cfg.time.n_max, dt=cfg.time.dt,
                            slack=cfg.control.slack, N_cap=cfg.control.N_max)
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


class TestControlDimension:
    def test_fallback_recorded_when_no_m1_selected(self, tmp_path):
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        cfg.control.lam = 0.2
        path = tmp_path / "low.json"
        cfg.save(path)
        choice = Pipeline(cfg, np.random.default_rng(cfg.seed)).choice(0.2)
        assert choice.N == 0 and choice.M1 is None
        out = tmp_path / "o"
        assert run("null-control", str(path), str(out)) == 0
        assert run("feedback", str(path), str(out)) == 0
        null = json.loads((out / "null_control.json").read_text())
        feedback = json.loads((out / "feedback.json").read_text())
        assert null["M_fallback"] is True and null["M"] == 8
        assert feedback["M_fallback"] is True and feedback["M"] == 8

    def test_selected_m1_is_not_a_fallback(self):
        cfg = ExperimentConfig.load(DEFAULT_CONFIG)
        p = Pipeline(cfg, np.random.default_rng(cfg.seed))
        assert p.control_dim(cfg.control.lam) == (32, False)


class TestPlots:
    def test_decay_plot_with_bound_overlay(self, tmp_path):
        csv = tmp_path / "d.csv"
        t = np.linspace(0, 3, 50)
        write_csv(csv, ["t", "v_h", "bound_h"],
                  np.column_stack([t, np.exp(-t), 2 * np.exp(-0.8 * t)]))
        out = emit_plot(csv, "decay", tmp_path / "d.svg")
        text = (tmp_path / "d.svg").read_text()
        assert text.startswith("<svg")
        assert "stroke-dasharray" in text        # the bound is dashed
        assert text.count("polyline") >= 2

    def test_empty_csv_gives_empty_axes(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("t,v_h\n")
        emit_plot(csv, "decay", tmp_path / "e.svg")
        assert "(no data)" in (tmp_path / "e.svg").read_text()

    def test_schema_mismatch_raises(self, tmp_path):
        csv = tmp_path / "s.csv"
        write_csv(csv, ["a", "b"], [(1.0, 2.0)])
        with pytest.raises(SchemaError):
            emit_plot(csv, "staircase", tmp_path / "s.svg")
        with pytest.raises(SchemaError):
            emit_plot(csv, "nonsense", tmp_path / "s.svg")

    def test_heatmap_from_basin_report(self, tmp_path):
        rep = {"scales": [0.5, 1.0], "epsilon_hat": 1.0,
               "outcomes": [["decay", "no-decay"], ["decay", "blowup"]]}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(rep))
        emit_plot(path, "heatmap", tmp_path / "b.svg")
        text = (tmp_path / "b.svg").read_text()
        assert "epsilon_hat = 1" in text
        assert text.count("<rect") >= 4
