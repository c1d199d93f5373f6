"""Configuration-driven experiment runner.

    nsstab <subcommand> --config <path> [--out <dir>] [--seed <int>]

Subcommands: reference, observability, null-control, stabilize, feedback,
closed-loop, basin, all.  Every run writes a manifest with the config hash,
library versions, seed, and wall time.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 assertion failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, NsstabError, VerificationError
from .feedback import (
    closed_loop_linear,
    dp_check,
    lyapunov_check,
    optimal_cost_check,
    optimal_rollouts,
    riccati_residual,
    riccati_solve,
)
from .nonlinear import basin_sweep, closed_loop_steps, contraction_probe, simulate_closed_loop
from .null_control import epsilon_limit_study, kkt_identity_check, min_norm_control
from .plots import emit_plot
from .stabilizer import CutoffSearch, stabilize, weighted_control_norm


def _atomic_write(path, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_decay(out, name, trajectory, space, kappa, lam, title):
    """name.csv, the rows (t, |v|_H, |v|_V, bound) of trajectory against
    its decay bound sqrt(kappa) |v(t0)|_H e^{-lam (t - t0)/2}, and its plot
    name.svg; returns the two artifact names."""
    t = trajectory.times
    bound = np.sqrt(kappa) * np.linalg.norm(trajectory.states[0]) \
        * np.exp(-lam * (t - t[0]) / 2.0)
    header = ["t", "v_h", "v_v", "bound_h"]
    table = np.column_stack([trajectory.norm_table(space)[:, :3], bound])
    write_csv(os.path.join(out, f"{name}.csv"), header, table)
    emit_plot("decay", (header, table.T), os.path.join(out, f"{name}.svg"), title)
    return [f"{name}.csv", f"{name}.svg"]


class Pipeline:
    """Lazily built shared state for the subcommands of one run."""

    def __init__(self, cfg: ExperimentConfig, rng):
        self.cfg = cfg
        self.rng = rng
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def space(self):
        return self._get("space", self.cfg.build_space)

    @property
    def reference(self):
        return self._get("reference", lambda: self.cfg.build_reference(self.space))

    @property
    def chi(self):
        return self._get("chi", lambda: self.cfg.build_chi(self.space))

    @property
    def search(self):
        """The run's one cutoff search; its unit-interval propagators on
        [0, n_max] and its block sweeps serve every interval solver of the
        run."""
        c = self.cfg
        return self._get("search", lambda: CutoffSearch(
            self.reference, self.chi, c.control.M_list,
            n_max=c.time.n_max, dt=c.time.dt, slack=c.control.slack,
            pinv_rtol=c.tolerances.pinv_rtol, N_cap=c.control.N_max))

    def choice(self, lam):
        return self._get(("choice", round(lam, 12)), lambda: self.search.choose(lam))

    def control_dim(self, lam):
        """(M, M_fallback): the selected M1 at lam, or the fallback
        max(M_list[0], 8) when no M1 was selected.  A fallback past the
        control table (space.m_max) is a config error."""
        M1 = self.choice(lam).M1
        if M1:
            return M1, False
        M = max(self.cfg.control.M_list[0], 8)
        if M > self.cfg.space.m_max:
            raise ConfigError(
                f"space.m_max: no control dimension was selected at lambda={lam}, "
                f"and the fallback max(control.M_list[0], 8) = {M} exceeds "
                f"space.m_max = {self.cfg.space.m_max}; raise space.m_max to {M}")
        return M, True

    @property
    def lam_hat(self):
        return self.cfg.control.lam * self.cfg.control.lambda_hat_factor

    @property
    def law(self):
        c = self.cfg

        def build():
            M, _ = self.control_dim(self.lam_hat)
            act = self.search.actuator(M)
            # the last cutoff is chosen: free the search's propagators and
            # sweep before the law is allocated
            self._cache.pop("search", None)
            return riccati_solve(self.reference, c.control.lam, act, c.time.T_h,
                                 c.time.dt, cap=c.tolerances.riccati_cap,
                                 verify_horizon=True)
        return self._get("law", build)

    def closed_loop(self, n_units):
        """The law's closed loop on [0, min(n_units, T_h - 1)], one unit clear
        of the terminal layer; built once per window and shared by the
        linear decay run, the nonlinear run, the probe and the basin sweep."""
        n_units = min(n_units, self.law.T_h - 1.0)
        return self._get(("closed_loop", round(n_units, 12)), lambda: closed_loop_steps(
            self.law, 0.0, n_units))


def cmd_reference(p: Pipeline, out):
    ref, space = p.reference, p.space
    ts = np.linspace(0.0, min(ref.horizon, 8.0), 129)
    header = ["t", "u_h", "u_v", "forcing_h"]
    table = np.array([(t, *space.norms(ref.u_at(t))[:2],
                       np.linalg.norm(ref.forcing_at(t))) for t in ts])
    write_csv(os.path.join(out, "reference.csv"), header, table)
    write_json(os.path.join(out, "reference.json"),
               {"w_norm": ref.w_norm, "horizon": ref.horizon,
                "preset": p.cfg.reference.preset})
    emit_plot("line", (header, table.T), os.path.join(out, "reference.svg"),
              "reference norms")
    return ["reference.csv", "reference.json", "reference.svg"]


def cmd_observability(p: Pipeline, out):
    c = p.cfg
    choice = p.choice(c.control.lam)
    N = min(max(choice.N, 4), p.search.n_top)
    rep = p.search.observability_report(N)
    D_table = rep["D_table"]
    payload = {"N": N, "M_list": list(D_table),
               "D_table": {str(m): d for m, d in D_table.items()},
               "D_inf": rep["D_inf"], "M1": rep["M1"], "C_h1l2": rep["C_h1l2"]}
    write_json(os.path.join(out, "observability.json"), payload)
    write_csv(os.path.join(out, "dm_table.csv"), ["M", "D"],
              [(m, d) for m, d in D_table.items() if np.isfinite(d)])
    emit_plot("staircase", (list(D_table), list(D_table.values())),
              os.path.join(out, "dm_staircase.svg"), "truncated observability constant")
    return ["observability.json", "dm_table.csv", "dm_staircase.svg"]


def cmd_null_control(p: Pipeline, out):
    c = p.cfg
    choice = p.choice(c.control.lam)
    N = min(max(choice.N, 2), p.search.n_top)
    M, M_fallback = p.control_dim(c.control.lam)
    bundle = p.search.reachability(N, M)
    w0 = p.rng.standard_normal(p.space.K)
    control = min_norm_control(bundle, w0, c.tolerances.null_tol)
    kkt = [kkt_identity_check(bundle, w0, eps) for eps in (1e-2, 1e-4, 1e-6)]
    study = epsilon_limit_study(bundle, w0, np.logspace(-2, -8, 7))
    write_json(os.path.join(out, "null_control.json"),
               {"N": N, "M": M, "M_fallback": M_fallback, "kkt_checks": kkt,
                "epsilon_study": study,
                "min_norm_l2": control.l2_norm()})
    csv_path = os.path.join(out, "min_norm_control.csv")
    write_csv(csv_path, ["t"] + [f"eta_{i}" for i in range(M)], control.table())
    return ["null_control.json", "min_norm_control.csv"]


def cmd_stabilize(p: Pipeline, out):
    c = p.cfg
    choice = p.choice(c.control.lam)
    v0 = p.rng.standard_normal(p.space.K)
    run = stabilize(p.search, choice, v0, c.tolerances.null_tol)
    summary = run.summary()
    summary["kappa2"] = weighted_control_norm(run, c.control.lam / 2.0)
    summary.update(contraction=choice.contraction,
                   contraction_target=float(np.exp(-choice.lam / 2.0)),
                   per_interval=choice.per_interval,
                   symbolic_threshold=choice.symbolic_threshold)
    if not summary["integer_decay_ok"]:
        raise VerificationError("integer-time decay chain violated")
    write_json(os.path.join(out, "stabilize.json"), summary)
    return ["stabilize.json"] + write_decay(
        out, "stabilize_decay", run.trajectory, p.space, run.kappa1, c.control.lam,
        "stabilized decay")


def cmd_feedback(p: Pipeline, out):
    c = p.cfg
    law = p.law
    stride = max(1, law.n_steps // 64)
    nodes = range(0, law.n_steps + 1, stride)
    np.savez_compressed(os.path.join(out, "feedback_law.npz"),
                        times=law.times[::stride],
                        Qt=np.stack([law.Q(m) for m in nodes]),
                        lam=law.lam, M=law.M, T_h=law.T_h, stride=stride)
    v0 = p.rng.standard_normal(p.space.K)
    interior = [law.T_h / 8, law.T_h / 4, law.T_h / 2]
    sim, cl_rep = closed_loop_linear(p.closed_loop(c.time.n_max), v0)
    # one rollout pass serves both checks: the DP check's from s = 0 and
    # the cost check's from s = 1, the same v0
    dp_rollout, cost_rollout = optimal_rollouts(law, [(0.0, v0), (1.0, v0)])
    report = {
        "lambda": law.lam, "M": law.M, "M_fallback": p.control_dim(p.lam_hat)[1],
        "T_h": law.T_h,
        "horizon_gate": law.horizon_gate,
        "max_gain_norm": law.max_gain_norm(),
        "dp": dp_check(dp_rollout, splits=[law.T_h / 4, law.T_h / 2]),
        "optimal_cost": optimal_cost_check(cost_rollout),
        "riccati_residual": riccati_residual(law, interior),
        "lyapunov": lyapunov_check(sim),
        "closed_loop": cl_rep,
    }
    write_json(os.path.join(out, "feedback.json"), report)
    return ["feedback_law.npz", "feedback.json"] + write_decay(
        out, "feedback_decay", sim, p.space, max(cl_rep["kappa_h"], 1.0), law.lam,
        "feedback closed-loop decay")


def cmd_closed_loop(p: Pipeline, out):
    c = p.cfg
    d = p.rng.standard_normal(p.space.K)
    d /= np.sqrt(p.space.alphas @ d**2)
    v0 = c.nonlinear.eps_star * d
    stepper = p.closed_loop(c.nonlinear.sim_units)
    trajectory, rep = simulate_closed_loop(stepper, v0, eps_gate=c.nonlinear.eps_star,
                                           theta_cap=c.nonlinear.theta_star)
    probe = contraction_probe(stepper, v0, p.rng, pairs=2)
    rep["contraction"] = {k: probe[k] for k in
                          ("gamma_hat", "iterations", "converged",
                           "pair_ratios", "pairs_within_headroom")}
    write_json(os.path.join(out, "closed_loop.json"), rep)
    if rep["inside_gate"] and not rep["decayed"]:
        raise VerificationError("nonlinear decay violated inside the gate")
    if trajectory is not None:
        header = ["t", "v_h", "v_v", "v_dl"]
        table = trajectory.norm_table(p.space)
        write_csv(os.path.join(out, "closed_loop.csv"), header, table)
        emit_plot("decay", (header, table.T), os.path.join(out, "closed_loop.svg"),
                  "nonlinear closed loop")
        return ["closed_loop.json", "closed_loop.csv", "closed_loop.svg"]
    return ["closed_loop.json"]


def cmd_basin(p: Pipeline, out):
    c = p.cfg
    rep = basin_sweep(p.closed_loop(c.nonlinear.sim_units), c.nonlinear.basin_scales,
                      c.nonlinear.basin_directions, p.rng,
                      theta_cap=c.nonlinear.theta_star * 10.0)
    rep["directions"] = c.nonlinear.basin_directions
    write_json(os.path.join(out, "basin.json"), rep)
    emit_plot("heatmap", rep, os.path.join(out, "basin.svg"),
              "basin of attraction sweep")
    return ["basin.json", "basin.svg"]


COMMANDS = {
    "reference": cmd_reference,
    "observability": cmd_observability,
    "null-control": cmd_null_control,
    "stabilize": cmd_stabilize,
    "feedback": cmd_feedback,
    "closed-loop": cmd_closed_loop,
    "basin": cmd_basin,
}


def run(subcommand: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    started = time.time()
    try:
        cfg = ExperimentConfig.load(config_path)
        if seed is not None:
            cfg.seed = seed
            cfg.validate()
        out = out_dir or cfg.output_dir
        os.makedirs(out, exist_ok=True)
        rng = np.random.default_rng(cfg.seed)
        pipeline = Pipeline(cfg, rng)
        names = ([subcommand] if subcommand != "all" else list(COMMANDS))
        artifacts = []
        for name in names:
            artifacts += COMMANDS[name](pipeline, out)
        write_json(os.path.join(out, "manifest.json"), {
            "subcommand": subcommand,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "versions": {"nsstab": __version__,
                         "numpy": np.__version__,
                         "python": sys.version.split()[0]},
            "wall_time_s": round(time.time() - started, 3),
            "artifacts": sorted(artifacts),
        })
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 4
    except NsstabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsstab",
        description="stabilization experiments on the truncated flow model")
    parser.add_argument("subcommand", choices=list(COMMANDS) + ["all"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
