"""Tests of the benchmark itself: its output checks can fail, its span
analysis computes what it claims, and BENCHMARK.json names what it reports.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
from checks import check_outputs, compare_digests, csv_digests
from tracer import EXACT, PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, workload_config


@pytest.fixture(scope="module")
def desk_outputs(tmp_path_factory):
    """One real `nsstab all` run of the desk workload."""
    base = tmp_path_factory.mktemp("desk")
    config = base / "config.json"
    config.write_text(json.dumps(workload_config("desk", 7)))
    out = base / "out"
    proc = subprocess.run([sys.executable, "-m", "nsstab.cli", "all", "--config",
                           str(config), "--seed", "7", "--out", str(out)],
                          env=run.child_env(), capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def _corrupt_json(src, dst, name, edit):
    shutil.copytree(src, dst)
    path = dst / name
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return dst


def test_recorded_outputs_pass(desk_outputs):
    assert check_outputs(str(desk_outputs), "desk") == []


@pytest.mark.parametrize("name, edit", [
    ("stabilize.json", lambda d: d.update(N=d["N"] + 1)),
    ("stabilize.json", lambda d: d.update(N=d["N"] - 1)),
    ("stabilize.json", lambda d: d.update(M1=d["M1"] * 2)),
    ("stabilize.json", lambda d: d.update(integer_decay_ok=False)),
    ("feedback.json", lambda d: d["dp"]["splits"][0].update(rel_gap=1e-3)),
    ("feedback.json", lambda d: d["dp"].update(total_vs_value_rel=float("nan"))),
    ("feedback.json", lambda d: d["optimal_cost"].update(rollout_rel_gap=1e-5)),
    ("feedback.json", lambda d: d["optimal_cost"].update(simulated_rel_gap=2e-4)),
    ("feedback.json", lambda d: d["horizon_gate"].update(rel_change=1e-5)),
    ("feedback.json", lambda d: d["lyapunov"].update(nonincreasing=False)),
    ("null_control.json", lambda d: d["kkt_checks"][1].update(identity_rel_gap=1e-7)),
    ("null_control.json", lambda d: d["kkt_checks"][2].update(stepwise_max_rel=1e-8)),
    ("closed_loop.json", lambda d: d.update(decayed=False)),
    ("manifest.json", lambda d: d["artifacts"].remove("basin.json")),
])
def test_corrupted_output_is_rejected(desk_outputs, tmp_path, name, edit):
    bad = _corrupt_json(desk_outputs, tmp_path / "bad", name, edit)
    assert check_outputs(str(bad), "desk")


def test_missing_artifact_is_rejected(desk_outputs, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(desk_outputs, bad)
    (bad / "closed_loop.json").unlink()
    assert check_outputs(str(bad), "desk")


def test_perturbed_csv_byte_is_rejected(desk_outputs, tmp_path):
    bad = tmp_path / "bad"
    shutil.copytree(desk_outputs, bad)
    path = bad / "stabilize_decay.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("1") if data[-3] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    good = csv_digests(str(desk_outputs))
    assert compare_digests(good, good) == []
    assert compare_digests(good, csv_digests(str(bad))) == [
        "stabilize_decay.csv differs from the first run"]


def test_pinned_values_are_per_workload(desk_outputs):
    # The interval workload pins other integers, so desk outputs fail there.
    assert any("pinned" in p for p in check_outputs(str(desk_outputs), "interval"))


class _Law:
    def __init__(self, n_steps):
        self.n_steps = n_steps
        self.Qt = np.zeros((n_steps + 1, 2, 2))


class _Stepper:
    s, dt = 0.0, 0.5


class _Trajectory:
    states = np.zeros((5, 3))       # four steps advanced


def test_layer_metrics_from_synthetic_spans(tmp_path):
    tr = Tracer()
    bilinear = tr.wrap("dynamics.bilinear_b", lambda: time.sleep(0.002))

    def riccati(n, gate):
        law = _Law(n)
        if gate:
            riccati_traced(2 * n, False)
        return law
    riccati_traced = tr.wrap("feedback.riccati_solve", riccati, "law")

    def run_nonlinear(stepper):
        for _ in range(6):
            bilinear()
        return _Trajectory(), None
    run_traced = tr.wrap("nonlinear.run_nonlinear", run_nonlinear, "steps")
    bmat = tr.wrap("dynamics.bmat_at", lambda self, t: None, "t")

    law = riccati_traced(10, True)
    run_traced(_Stepper())
    bilinear()                                  # outside any run_nonlinear
    for t in (0.5, 1.5, 0.5, 2.5):
        bmat(None, t)
    path = tmp_path / "spans.npz"
    tr.save(path)
    m = layer_metrics(path)

    assert m["feedback.riccati_solve.calls"] == 2
    assert m["feedback.riccati_steps_ratio"] == 3.0     # (10 + 20) / 10
    assert m["feedback.law_bytes"] == law.Qt.nbytes
    assert m["dynamics.bilinear_b.calls"] == 7
    assert m["nonlinear.picard_inner_per_step"] == 6 / 4
    assert m["dynamics.bmat_at.distinct_ratio"] == 3 / 4
    # Self time of run_nonlinear excludes the 6 sleeping children.
    assert m["nonlinear.run_nonlinear.self_s"] < 0.002
    assert m["dynamics.bilinear_b.self_s"] >= 7 * 0.002
    assert m["cli.basin.s"] == 0.0


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(x) for x in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "setup_s", "peak_rss_mb"}
    assert set(EXACT) <= {name for name, *_ in PER_LAYER}


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_config_is_generated_from_the_seed():
    a, b = workload_config("scaled", 1), workload_config("scaled", 2)
    assert (a["space"]["K"], a["space"]["grid_n"], a["seed"]) == (96, 22, 1)
    assert {**a, "seed": 2} == b


def test_every_target_exists_in_the_library(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import nsstab.cli  # noqa: F401
    from tracer import IO_TARGETS, TARGETS, find_target
    missing = [p for _, m, p, _ in TARGETS if find_target(m, p)[1] is None]
    missing += [a for m, a, _ in IO_TARGETS if find_target(m, a)[1] is None]
    assert missing == []
