"""Output checks for one benchmark run of the nsstab CLI.

Each check returns a list of problems; an empty list means the run's
outputs are correct.  Tolerances are the acceptance suite's
(tests/test_acceptance.py); the criterion each one comes from is named.
"""

import hashlib
import json
import os

from workloads import ARTIFACTS, WORKLOADS

TOLERANCES = {
    "kkt_stepwise": 1e-9,        # criterion 3
    "kkt_identity": 1e-8,        # criterion 3
    "horizon_gate": 1e-6,        # criterion 7
    "dp_split": 1e-6,            # criterion 8
    "rollout": 1e-6,             # criterion 8 (the DP tolerance)
    "simulated_cost": 1e-4,      # criterion 8
    "lyapunov_increase": 1e-8,   # criterion 10
}


def _within(problems, label, value, tol):
    # Written as "not <=" so that NaN and None fail.
    if not (isinstance(value, (int, float)) and value <= tol):
        problems.append(f"{label} = {value!r} exceeds {tol:g}")


def _load(out_dir, name, problems):
    try:
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{name}: {exc}")
        return None


def check_outputs(out_dir: str, workload: str) -> list[str]:
    """Pinned integers, acceptance gaps and artifact set of one run."""
    spec = WORKLOADS[workload]
    problems = []
    manifest = _load(out_dir, "manifest.json", problems)
    if manifest is not None:
        missing = sorted(set(ARTIFACTS[spec["subcommand"]])
                         - set(manifest.get("artifacts", [])))
        if missing:
            problems.append(f"manifest lacks artifacts {missing}")
    for name in ARTIFACTS[spec["subcommand"]]:
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"missing artifact {name}")

    stab = _load(out_dir, "stabilize.json", problems)
    if stab is not None:
        for key, want in spec["pinned"].items():
            if stab.get(key) != want:
                problems.append(f"stabilize.json {key} = {stab.get(key)!r}, "
                                f"pinned {want}")
        if stab.get("integer_decay_ok") is not True:
            problems.append("stabilize.json integer_decay_ok is not true")

    if spec["subcommand"] == "all":
        problems += _check_full_run(out_dir)
    return problems


def _check_full_run(out_dir: str) -> list[str]:
    problems = []
    tol = TOLERANCES
    null = _load(out_dir, "null_control.json", problems)
    if null is not None:
        checks = null.get("kkt_checks") or []
        if not checks:
            problems.append("null_control.json has no kkt_checks")
        for c in checks:
            _within(problems, f"kkt stepwise_max_rel (eps={c.get('eps')})",
                    c.get("stepwise_max_rel"), tol["kkt_stepwise"])
            _within(problems, f"kkt identity_rel_gap (eps={c.get('eps')})",
                    c.get("identity_rel_gap"), tol["kkt_identity"])

    fb = _load(out_dir, "feedback.json", problems)
    if fb is not None:
        dp = fb.get("dp") or {}
        cost = fb.get("optimal_cost") or {}
        splits = dp.get("splits") or []
        if not splits:
            problems.append("feedback.json has no dp splits")
        for s in splits:
            _within(problems, f"dp split rel_gap (t={s.get('t')})",
                    s.get("rel_gap"), tol["dp_split"])
        _within(problems, "dp total_vs_value_rel",
                dp.get("total_vs_value_rel"), tol["rollout"])
        _within(problems, "optimal_cost rollout_rel_gap",
                cost.get("rollout_rel_gap"), tol["rollout"])
        _within(problems, "optimal_cost simulated_rel_gap",
                cost.get("simulated_rel_gap"), tol["simulated_cost"])
        _within(problems, "horizon_gate rel_change",
                (fb.get("horizon_gate") or {}).get("rel_change"),
                tol["horizon_gate"])
        lyap = fb.get("lyapunov") or {}
        if lyap.get("nonincreasing") is not True:
            problems.append("feedback.json lyapunov is not nonincreasing")
        _within(problems, "lyapunov max_increase_rel",
                lyap.get("max_increase_rel"), tol["lyapunov_increase"])

    loop = _load(out_dir, "closed_loop.json", problems)
    if loop is not None and loop.get("decayed") is not True:
        problems.append("closed_loop.json decayed is not true")
    return problems


def csv_digests(out_dir: str) -> dict:
    """SHA-256 of every CSV the run wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def compare_digests(reference: dict, other: dict) -> list[str]:
    """CSVs of two runs at one seed must be byte-identical."""
    if set(reference) != set(other):
        return [f"CSV sets differ: {sorted(set(reference) ^ set(other))}"]
    return [f"{name} differs from the first run"
            for name in sorted(reference) if reference[name] != other[name]]
