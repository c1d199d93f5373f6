"""Configuration-driven experiment runner.

    nsstab <subcommand> --config <path> [--out <dir>] [--seed <int>]

Subcommands: reference, observability, null-control, stabilize, feedback,
closed-loop, basin, all.  A run that reads the feedback law starts one
worker process (Worker), which runs the run's jobs in turn: the horizon
gate's sweep of [T_h, 2 T_h] beside this process's law sweep, then the
closed loop (closed_loop_job), built once on the law's head and read by
each closed-loop run as a prefix of its steps.  Every run writes a
manifest with the config hash, library versions, seed, wall time and
peak memory (its own and the worker's), plus the timings of each job the
worker ran.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 assertion failure.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import regularity_diagnostics
from .errors import ConfigError, NsstabError, VerificationError
from .feedback import (
    closed_loop_linear,
    doubled_tail_value,
    dp_check,
    horizon_gate,
    lyapunov_check,
    optimal_cost_check,
    optimal_rollouts,
    peak_rss_mb,
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


# the random (r0, f) batches of stabilize.json's regularity report
REGULARITY_RUNS = 4


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


# A worker runs jobs in turn until its stdin ends.  A job is a module-level
# function, named by the __spec__ of its defining module and its qualified
# name, and the function's arguments.  It comes on stdin as a count of parts,
# their sizes and the parts: the job's label, a pickle (protocol 5) and the
# array buffers it holds out of band.  The worker reads all of its first job
# before it imports anything, so the parent's write never waits on an import,
# and unpickles the arrays in place over the buffers it read.  It writes back
# one pickle per result: ("part", item) for each item the function yields, if
# it returns a generator, then ("value", the value or the generator's return
# value, seconds of the job, its own peak resident set in MB), or ("error",
# the exception raised, the worker-side traceback attached as a note naming
# the job's label).  It reads the next job only after it has sent every
# result of the one before, and the parent submits a job only after it has
# taken every result of the one before, so neither ever writes into a full
# pipe that the other is not reading.
WORKER = f"""\
import sys
stdin = sys.stdin.buffer
def read(n, between_jobs=False):
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = stdin.readinto(view[got:])
        if not k:
            if between_jobs and not got:
                return None
            sys.exit("the job ended early")
        got += k
    return buf
def next_job():
    head = read(8, between_jobs=True)
    if head is None:
        return None
    count = memoryview(head).cast("Q")[0]
    return [read(n) for n in memoryview(read(8 * count)).cast("Q")]
parts = next_job()
import importlib
import pickle
import time
import traceback
import types
def send(*message):
    sys.stdout.buffer.write(pickle.dumps(message, protocol=5))
    sys.stdout.buffer.flush()
while parts is not None:
    label = parts[0].decode()
    try:
        module, name, args = pickle.loads(parts[1], buffers=parts[2:])
        from {peak_rss_mb.__module__} import {peak_rss_mb.__name__} as peak
        job = getattr(importlib.import_module(module), name)
        start = time.perf_counter()
        value = job(*args)
        while isinstance(value, types.GeneratorType):
            try:
                send("part", next(value))
            except StopIteration as stop:
                value = stop.value
        send("value", value, time.perf_counter() - start, peak())
    except Exception as exc:
        exc.add_note(f"in the {{label}} worker:\\n" + traceback.format_exc())
        send("error", exc)
    # the job's arguments and results go before the next job is read
    parts = args = value = None
    parts = next_job()
"""


class Worker:
    """A Python process, started here at the first job, that runs jobs in
    turn and imports this process's own nsstab (see WORKER).  Its BLAS
    runs one thread, beside this process's own pool, unless the caller's
    environment sets a thread count.  submit() sends it a job, fn(*args)
    with fn a module-level function, under a label that names it in the
    job's errors.  The job's arrays are written
    to the worker straight from their memory, so no pickled copy of them is
    made.

    take() reads the current job's results in order: each item of a
    generator job, then its return value (a plain function's value alone).
    Each value brings the job's timings, kept in timings under its label,
    and the worker's own peak resident set so far.  A job is submitted only
    once every result of the one before was taken.  close() ends the
    process.
    """

    def __init__(self):
        self.label = None       # the job submitted last
        self.timings = {}       # {label: {"worker_s", "wait_s"}}, once its value is read
        self.peak_mb = 0.0      # the worker's own, as its last value reported it
        self._wait_s = 0.0
        self._ended = True      # every submitted job's value or error was read
        self._proc = None

    def submit(self, label: str, fn, *args):
        """Send the job fn(*args) under label, starting the process at the
        first job.  Raises RuntimeError while a result of the job before is
        still to be taken."""
        import pickle
        import struct
        import subprocess

        if not self._ended:
            raise RuntimeError(f"the {self.label} job has results still to be taken")
        if self._proc is None:
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
            # one BLAS thread, unless the caller set a count
            env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", **os.environ, "PYTHONPATH": path}
            self._proc = subprocess.Popen([sys.executable, "-c", WORKER],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          env=env)
        self.label, self._wait_s, self._ended = label, 0.0, False
        buffers = []
        job = pickle.dumps((fn.__globals__["__spec__"].name, fn.__qualname__, args),
                           protocol=5, buffer_callback=buffers.append)
        parts = ([memoryview(label.encode()), memoryview(job)]
                 + [b.raw() for b in buffers])
        try:
            pipe = self._proc.stdin
            pipe.write(struct.pack(f"{len(parts) + 1}Q", len(parts),
                                   *(part.nbytes for part in parts)))
            for part in parts:
                pipe.write(part)
            pipe.flush()
        except BrokenPipeError:
            pass                # the worker is gone: take() names its exit code

    def take(self):
        """The current job's next result; blocks until it arrives.
        Re-raises the exception the job raised.  A worker that ends before
        its next result raises NsstabError naming the job and the exit
        code."""
        import pickle

        start = time.perf_counter()
        try:
            kind, *message = pickle.load(self._proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise NsstabError(f"the {self.label} worker ended without a result "
                              f"(exit code {self._proc.wait()})") from None
        finally:
            self._wait_s += time.perf_counter() - start
        self._ended = kind != "part"
        if kind == "error":
            raise message[0]
        if kind == "value":
            value, worker_s, self.peak_mb = message
            self.timings[self.label] = {"worker_s": round(worker_s, 3),
                                        "wait_s": round(self._wait_s, 3)}
            return value
        return message[0]

    def close(self):
        """End the worker, if it was started: where every submitted job's
        value or error was read, its stdin is closed and it exits by
        itself; otherwise it is killed.  Either way it is waited for."""
        if self._proc is None:
            return
        if not self._ended:
            self._proc.kill()
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        self._proc.wait()
        self._proc.stdout.close()


class Pipeline:
    """Lazily built shared state of this process for the subcommands of
    one run.

    It owns the run's one worker, which starts at its first job (the
    horizon gate's in cmd_feedback, or the closed loop's); close() ends
    it.  commands names the run's subcommands: the closed-loop ones among
    them run in the worker's closed-loop job (closed_loop_job).
    """

    def __init__(self, cfg: ExperimentConfig, rng, commands=()):
        self.cfg = cfg
        self.rng = rng
        self.closed_loop_commands = [c for c in commands if c in CLOSED_LOOP_BODIES]
        self._cache = {}
        self.worker = Worker()
        self._turns = 0         # closed-loop results not yet taken

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
    def actuator(self):
        def build():
            M, _ = self.control_dim(self.lam_hat)
            act = self.search.actuator(M)
            # the last cutoff is chosen: free the search's propagators and
            # sweep before the law is allocated
            self._cache.pop("search", None)
            return act
        return self._get("actuator", build)

    @property
    def law(self):
        c = self.cfg
        return self._get("law", lambda: riccati_solve(
            self.reference, c.control.lam, self.actuator, c.time.T_h, c.time.dt,
            cap=c.tolerances.riccati_cap))

    def start_closed_loop(self, out, v0=None):
        """Submit the closed-loop half of the run (closed_loop_job) on the
        law's head: feedback's decay run from v0 where v0 is given, then
        each closed-loop command's body.  It continues this run's generator
        from its state now; closed_loop_turn takes its results."""
        self._turns = (v0 is not None) + len(self.closed_loop_commands)
        self.worker.submit("closed-loop", closed_loop_job, self.cfg, self.rng,
                           self.closed_loop_head(v0 is not None), v0, out,
                           self.closed_loop_commands)

    def closed_loop_turn(self, out):
        """The closed-loop job's next result, the job submitted here if it
        is not yet: the decay run's, then each closed-loop command's in
        turn; an exception the job raised is raised at its turn.  After the
        last result the run's generator takes the state the job left it
        in."""
        if self.worker.label != "closed-loop":
            self.start_closed_loop(out)
        result = self.worker.take()
        self._turns -= 1
        if not self._turns:
            self.rng.bit_generator.state = self.worker.take()
        return result

    def close(self):
        self.worker.close()

    def closed_loop_head(self, decay: bool):
        """The law on the head that holds every window the closed-loop job
        reads (window_steps): the decay run's, time.n_max units, where
        decay is true, and the nonlinear runs', nonlinear.sim_units, where
        the run has a closed-loop command.  A view of the law's cost
        operators, so nothing is copied; it keeps the law's horizon, and a
        read past its head raises ValueError."""
        c = self.cfg
        units = [c.time.n_max] * decay
        if self.closed_loop_commands:
            units.append(c.nonlinear.sim_units)
        k = window_steps(c, max(units))
        return dataclasses.replace(self.law, Q_packed=self.law.Q_packed[:k + 1])


def window_steps(cfg, units) -> int:
    """The steps of the closed-loop window [0, units], held one unit clear
    of the law's terminal layer: [0, min(units, T_h - 1)]."""
    return int(round(min(units, cfg.time.T_h - 1.0) / cfg.time.dt))


def closed_loop_job(cfg, rng, head, v0, out, commands):
    """The closed-loop half of a run, the worker's closed-loop job: the
    law's closed loop on the whole head it was sent, built once, and on
    the first steps of it, feedback's decay run from v0 (time.n_max units)
    where v0 is given, then the body of each named command in order
    (nonlinear.sim_units), each writing its own artifacts.  Yields each
    one's result as it ends, and returns the state rng is left in."""
    loop = closed_loop_steps(head, 0.0, head.head * head.dt)

    def window(units):
        # the loop's first steps: one causal path, so they are the steps a
        # loop on the window alone would build, bit for bit; a view
        return dataclasses.replace(loop, phi=loop.phi[:window_steps(cfg, units)])

    if v0 is not None:
        yield feedback_decay(window(cfg.time.n_max), out, v0)
    for name in commands:
        yield CLOSED_LOOP_BODIES[name](window(cfg.nonlinear.sim_units), cfg, rng, out)
    return rng.bit_generator.state


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
    study = epsilon_limit_study(bundle, w0, np.logspace(-2, -8, 7), control)
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
                   symbolic_threshold=choice.symbolic_threshold,
                   tried_cutoffs=[[N, max(p.search.measured[N][1])]
                                  for N in range(choice.N + 1)])
    # the smoothing constants of the linearized flow on the search's first
    # interval, from data of their own stream, so no draw of p.rng moves
    summary["regularity"] = regularity_diagnostics(
        p.space, p.search.propagators[0], REGULARITY_RUNS,
        np.random.default_rng(np.random.SeedSequence(c.seed).spawn(1)[0]))
    if not summary["integer_decay_ok"]:
        raise VerificationError("integer-time decay chain violated")
    write_json(os.path.join(out, "stabilize.json"), summary)
    return ["stabilize.json"] + write_decay(
        out, "stabilize_decay", run.trajectory, p.space, run.kappa1, c.control.lam,
        "stabilized decay")


def cmd_feedback(p: Pipeline, out):
    # the horizon gate's job, the sweep of [T_h, 2 T_h] (doubled_tail_value),
    # runs in the worker while the law is built; its one result is D
    c = p.cfg
    p.worker.submit("horizon-gate", doubled_tail_value, p.reference, c.control.lam,
                    p.actuator, c.time.T_h, c.time.dt, c.tolerances.riccati_cap)
    law = p.law
    v0 = p.rng.standard_normal(p.space.K)
    gate = horizon_gate(law, p.worker.take(), c.tolerances.riccati_cap)
    # the decay run, and the run's closed-loop commands after it, run on the
    # law's head in the worker beside the readers of the whole law
    p.start_closed_loop(out, v0)
    stride = max(1, law.n_steps // 64)
    # the sampled nodes, unpacked into one array and written uncompressed
    times = law.times[::stride]
    Qt = np.empty((len(times), p.space.K, p.space.K))
    for i in range(len(times)):
        Qt[i] = law.Q(i * stride)
    np.savez(os.path.join(out, "feedback_law.npz"), times=times, Qt=Qt,
             lam=law.lam, M=law.M, T_h=law.T_h, stride=stride)
    del Qt                  # before the rollout pass allocates its blocks
    interior = [law.T_h / 8, law.T_h / 4, law.T_h / 2]
    # one rollout pass serves both checks: the DP check's from s = 0 and
    # the cost check's from s = 1, the same v0
    dp_rollout, cost_rollout = optimal_rollouts(law, [(0.0, v0), (1.0, v0)])
    cost = optimal_cost_check(cost_rollout)
    # how the law's sweep, the rollout pass and the cost check obtained
    # their step inverses: one update, two, or a solve
    passes = (law.step_inverses, dp_rollout.step_inverses, cost["step_inverses"])
    report = {
        "lambda": law.lam, "M": law.M, "M_fallback": p.control_dim(p.lam_hat)[1],
        "T_h": law.T_h,
        "max_gain_norm": law.max_gain_norm(),
        "dp": dp_check(dp_rollout, splits=[law.T_h / 4, law.T_h / 2]),
        "optimal_cost": cost,
        "riccati_residual": riccati_residual(law, interior),
        "step_inverses": {k: sum(c[k] for c in passes) for k in passes[0]},
        "horizon_gate": gate,
    }
    decay, artifacts = p.closed_loop_turn(out)
    report.update(decay)
    write_json(os.path.join(out, "feedback.json"), report)
    return ["feedback_law.npz", "feedback.json"] + artifacts


def feedback_decay(loop, out, v0):
    """feedback's decay run from v0 on the law's closed loop: its reports
    for feedback.json, and the artifacts it writes."""
    sim, cl_rep = closed_loop_linear(loop, v0)
    artifacts = write_decay(out, "feedback_decay", sim, loop.space,
                            max(cl_rep["kappa_h"], 1.0), loop.lam,
                            "feedback closed-loop decay")
    return {"lyapunov": lyapunov_check(sim), "closed_loop": cl_rep}, artifacts


def closed_loop_body(loop, cfg, rng, out):
    space = loop.space
    d = rng.standard_normal(space.K)
    d /= np.sqrt(space.alphas @ d**2)
    v0 = cfg.nonlinear.eps_star * d
    trajectory, rep = simulate_closed_loop(loop, v0, eps_gate=cfg.nonlinear.eps_star,
                                           theta_cap=cfg.nonlinear.theta_star)
    probe = contraction_probe(loop, v0, rng, pairs=2)
    rep["contraction"] = {k: probe[k] for k in
                          ("gamma_hat", "iterations", "converged",
                           "pair_ratios", "pairs_within_headroom")}
    write_json(os.path.join(out, "closed_loop.json"), rep)
    if rep["inside_gate"] and not rep["decayed"]:
        raise VerificationError("nonlinear decay violated inside the gate")
    if trajectory is not None:
        header = ["t", "v_h", "v_v", "v_dl"]
        table = trajectory.norm_table(space)
        write_csv(os.path.join(out, "closed_loop.csv"), header, table)
        emit_plot("decay", (header, table.T), os.path.join(out, "closed_loop.svg"),
                  "nonlinear closed loop")
        return ["closed_loop.json", "closed_loop.csv", "closed_loop.svg"]
    return ["closed_loop.json"]


def basin_body(loop, cfg, rng, out):
    c = cfg.nonlinear
    rep = basin_sweep(loop, c.basin_scales, c.basin_directions, rng,
                      theta_cap=c.theta_star * 10.0)
    rep["directions"] = c.basin_directions
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
    # run in the worker's closed-loop job: each takes its result at its turn
    "closed-loop": Pipeline.closed_loop_turn,
    "basin": Pipeline.closed_loop_turn,
}

# The bodies of the closed-loop commands, run by the worker's closed-loop
# job: the CLI process takes each one's result at the command's turn.
CLOSED_LOOP_BODIES = {
    "closed-loop": closed_loop_body,
    "basin": basin_body,
}

# The manifest entry of each worker job's timings, by the job's label.
JOB_ENTRIES = {"horizon-gate": "horizon_gate", "closed-loop": "closed_loop_worker"}


def run(subcommand: str, config_path: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    started = time.perf_counter()
    pipeline = None
    try:
        cfg = ExperimentConfig.load(config_path)
        if seed is not None:
            cfg.seed = seed
            cfg.validate()
        out = out_dir or cfg.output_dir
        os.makedirs(out, exist_ok=True)
        rng = np.random.default_rng(cfg.seed)
        names = ([subcommand] if subcommand != "all" else list(COMMANDS))
        pipeline = Pipeline(cfg, rng, names)
        artifacts = []
        for name in names:
            artifacts += COMMANDS[name](pipeline, out)
        worker = pipeline.worker
        manifest = {
            "subcommand": subcommand,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "versions": {"nsstab": __version__,
                         "numpy": np.__version__,
                         "python": sys.version.split()[0]},
            "wall_time_s": round(time.perf_counter() - started, 3),
            # the worker's own peak, sent with its last value
            "peak_rss_mb": {"cli": peak_rss_mb(), "children": worker.peak_mb},
            "artifacts": sorted(artifacts),
        }
        for label, timings in worker.timings.items():
            manifest[JOB_ENTRIES[label]] = timings
        write_json(os.path.join(out, "manifest.json"), manifest)
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
    finally:
        if pipeline is not None:
            pipeline.close()


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
