"""Spans around the calls into nsstab's public functions, from the outside.

`Tracer.install` replaces each listed function at every module attribute of
the `nsstab` package that refers to it (for example `riccati_solve` is also
looked up as `nsstab.cli.riccati_solve`), and each listed method on its
class.  Every call records one span: name, start, end and the id of the
enclosing span.  A few spans also carry numeric notes (the time a step
matrix was built at, the bytes an artifact took).  Spans stay in memory and
are written once, by `Tracer.save`, as a numpy archive.

`layer_metrics` turns a saved archive into the per-layer metrics, named
`<module>.<function>.<calls|self_s>`, where self time is a span's duration
minus the time its child spans cover.  No file of the library is changed.
"""

import functools
import os
import sys
import time

import numpy as np

# (metric prefix, module, attribute path, note)
TARGETS = [
    ("spectral.synthesize", "nsstab.spectral", "SpectralSpace.synthesize", None),
    ("spectral.analyze", "nsstab.spectral", "SpectralSpace.analyze", None),
    ("spectral.build_actuator", "nsstab.spectral", "build_actuator", None),
    ("dynamics.bilinear_b", "nsstab.dynamics", "bilinear_b", None),
    ("dynamics.bmat_at", "nsstab.dynamics", "ReferenceTrajectory.bmat_at", "t"),
    ("dynamics.build_propagator", "nsstab.dynamics", "build_propagator", "tau"),
    ("dynamics.Propagator.forward", "nsstab.dynamics", "Propagator.forward", None),
    ("dynamics.Propagator.adjoint_block", "nsstab.dynamics",
     "Propagator.adjoint_block", None),
    ("quadmin.pinv_psd", "nsstab.quadmin", "pinv_psd", None),
    ("null_control.build_reachability", "nsstab.null_control",
     "build_reachability", None),
    ("null_control.min_norm_control", "nsstab.null_control",
     "min_norm_control", None),
    ("observability.build_forms", "nsstab.observability", "build_forms", None),
    ("observability.select_m1", "nsstab.observability", "select_m1", None),
    ("stabilizer.choose_n", "nsstab.stabilizer", "choose_n", None),
    ("stabilizer.closed_interval_map", "nsstab.stabilizer",
     "closed_interval_map", None),
    ("stabilizer.stabilize", "nsstab.stabilizer", "stabilize", None),
    ("feedback.riccati_solve", "nsstab.feedback", "riccati_solve", "law"),
    ("feedback.closed_loop_linear", "nsstab.feedback", "closed_loop_linear", None),
    ("feedback.optimal_cost_check", "nsstab.feedback", "optimal_cost_check", None),
    ("nonlinear.build_stepper", "nsstab.nonlinear", "build_stepper", None),
    ("nonlinear.run_nonlinear", "nsstab.nonlinear",
     "ClosedLoopStepper.run_nonlinear", "steps"),
    ("nonlinear.run_xi", "nsstab.nonlinear", "ClosedLoopStepper.run_xi", None),
    ("nonlinear.basin_sweep", "nsstab.nonlinear", "basin_sweep", None),
    ("nonlinear.contraction_probe", "nsstab.nonlinear", "contraction_probe", None),
]

# Artifact writers, all recorded as "cli.io" spans: (module, attribute, path arg).
IO_TARGETS = [
    ("nsstab.cli", "write_csv", 0),
    ("nsstab.cli", "write_json", 0),
    ("nsstab.plots", "emit_plot", 2),
    ("numpy", "savez_compressed", 0),
]

# The subcommands of nsstab.cli.COMMANDS, each one "cli.<name>" span.
SUBCOMMANDS = ["reference", "observability", "null-control", "stabilize",
               "feedback", "closed-loop", "basin"]

# Counts that must repeat exactly between two traced runs at one seed.
RATIOS = ["dynamics.bmat_at.distinct_ratio",
          "dynamics.build_propagator.distinct_ratio",
          "feedback.riccati_steps_ratio", "nonlinear.picard_inner_per_step"]
EXACT = ([f"{p}.calls" for p, *_ in TARGETS] + RATIOS + ["feedback.law_bytes"])

# Every per-layer metric, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = (
    [(f"{p}.{kind}", unit, "lower") for p, *_ in TARGETS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("dynamics.bmat_at.distinct_ratio", "ratio", "higher"),
       ("dynamics.build_propagator.distinct_ratio", "ratio", "higher"),
       ("feedback.riccati_steps_ratio", "ratio", "lower"),
       ("feedback.law_bytes", "B", "lower"),
       ("nonlinear.picard_inner_per_step", "ratio", "lower")]
    + [(f"cli.{s}.s", "s", "lower") for s in SUBCOMMANDS]
    + [("cli.io.self_s", "s", "lower"), ("cli.io.bytes", "B", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def find_target(mod_name, path):
    """(owner, function) for a dotted attribute path, or (owner, None)."""
    owner = sys.modules.get(mod_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    return owner, getattr(owner, attr, None)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _law_nbytes(law) -> int:
    return int(sum(v.nbytes for v in vars(law).values()
                   if isinstance(v, np.ndarray)))


def _notes(kind, args, kwargs, result):
    """Numeric facts of one call, as (key, value) pairs."""
    if kind == "t":                       # bmat_at(self, t)
        return [("t", float(_arg(args, kwargs, 1, "t")))]
    if kind == "tau":                     # build_propagator(space, traj, tau, dt)
        return [("tau", float(_arg(args, kwargs, 2, "tau")))]
    if kind == "law":
        return [("steps", result.n_steps), ("bytes", _law_nbytes(result))]
    if kind == "steps":                   # run_nonlinear -> (trajectory, blowup_t)
        trajectory, blowup_t = result
        stepper = args[0]
        if trajectory is not None:
            return [("steps", trajectory.states.shape[0] - 1)]
        return [("steps", round((blowup_t - stepper.s) / stepper.dt))]
    if isinstance(kind, int):             # an artifact writer's path argument
        path = args[kind] if len(args) > kind else None
        if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
            return [("bytes", os.path.getsize(path))]
    return []


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names, self._name_ids = [], {}
        self.keys, self._key_ids = [], {}
        self.span_name, self.start, self.end, self.parent = [], [], [], []
        self.note_span, self.note_key, self.note_value = [], [], []
        self._stack = [-1]

    def _intern(self, table, ids, text):
        if text not in ids:
            ids[text] = len(table)
            table.append(text)
        return ids[text]

    def wrap(self, name, fn, note=None):
        name_id = self._intern(self.names, self._name_ids, name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if note is not None:
                for key, value in _notes(note, args, kwargs, result):
                    self.note_span.append(sid)
                    self.note_key.append(self._intern(self.keys, self._key_ids, key))
                    self.note_value.append(float(value))
            return result
        return traced

    @staticmethod
    def _patch_everywhere(orig, wrapped):
        """Replace `orig` at every nsstab module attribute that refers to it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nsstab" and not mod_name.startswith("nsstab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every target for the rest of this process's life.

        A target the library no longer has is skipped, so its layer reports
        0 calls instead of failing the run.
        """
        import nsstab.cli  # noqa: F401  (imports every traced module)
        for prefix, mod_name, path, note in TARGETS:
            owner, orig = find_target(mod_name, path)
            if orig is None:
                continue
            *cls_path, attr = path.split(".")
            wrapped = self.wrap(prefix, orig, note)
            if cls_path:
                setattr(owner, attr, wrapped)
            else:
                self._patch_everywhere(orig, wrapped)
        for mod_name, attr, path_arg in IO_TARGETS:
            owner, orig = find_target(mod_name, attr)
            if orig is None:
                continue
            wrapped = self.wrap("cli.io", orig, path_arg)
            if mod_name == "numpy":
                setattr(owner, attr, wrapped)
            else:
                self._patch_everywhere(orig, wrapped)
        commands = sys.modules["nsstab.cli"].COMMANDS
        for sub in SUBCOMMANDS:
            orig = commands.get(sub)
            if orig is None:
                continue
            wrapped = self.wrap(f"cli.{sub}", orig)
            self._patch_everywhere(orig, wrapped)
            commands[sub] = wrapped

    def save(self, path):
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), keys=np.array(self.keys),
                     span_name=np.array(self.span_name, np.int32),
                     start=np.array(self.start), end=np.array(self.end),
                     parent=np.array(self.parent, np.int64),
                     note_span=np.array(self.note_span, np.int64),
                     note_key=np.array(self.note_key, np.int32),
                     note_value=np.array(self.note_value))


def layer_metrics(path) -> dict:
    """Per-layer metrics of one saved trace (every PER_LAYER name but the
    overhead, which needs the untraced runs)."""
    with np.load(path) as z:
        names, keys = list(z["names"]), list(z["keys"])
        span_name, parent = z["span_name"], z["parent"]
        dur = z["end"] - z["start"]
        note_span, note_key, note_value = z["note_span"], z["note_key"], z["note_value"]
    n = len(span_name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    name_of = {s: i for i, s in enumerate(names)}

    def spans(name):
        return span_name == name_of.get(name, -1)

    def notes(name, key):
        """(span ids, values) of one note key on the spans of one name."""
        sel = (note_key == (keys.index(key) if key in keys else -1)) \
            & spans(name)[note_span]
        return note_span[sel], note_value[sel]

    def under(ancestor):
        """Spans with an enclosing span named `ancestor` (ids grow on entry,
        so every parent id is smaller than its child's)."""
        target = name_of.get(ancestor, -1)
        flag = np.zeros(n, bool)
        for i in range(n):
            p = parent[i]
            flag[i] = p >= 0 and (flag[p] or span_name[p] == target)
        return flag

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    out = {}
    for prefix, *_ in TARGETS:
        sel = spans(prefix)
        out[f"{prefix}.calls"] = int(sel.sum())
        out[f"{prefix}.self_s"] = float(self_time[sel].sum())
    for prefix, key in (("dynamics.bmat_at", "t"), ("dynamics.build_propagator", "tau")):
        _, values = notes(prefix, key)
        out[f"{prefix}.distinct_ratio"] = ratio(len(np.unique(values)),
                                                out[f"{prefix}.calls"])

    ids, steps = notes("feedback.riccati_solve", "steps")
    bytes_ids, law_bytes = notes("feedback.riccati_solve", "bytes")
    nested = under("feedback.riccati_solve")
    out["feedback.riccati_steps_ratio"] = ratio(steps.sum(), steps[~nested[ids]].sum())
    out["feedback.law_bytes"] = int(law_bytes[~nested[bytes_ids]].sum())

    _, advanced = notes("nonlinear.run_nonlinear", "steps")
    inner = spans("dynamics.bilinear_b") & under("nonlinear.run_nonlinear")
    out["nonlinear.picard_inner_per_step"] = ratio(inner.sum(), advanced.sum())

    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = float(dur[spans(f"cli.{sub}")].sum())
    out["cli.io.self_s"] = float(self_time[spans("cli.io")].sum())
    out["cli.io.bytes"] = int(notes("cli.io", "bytes")[1].sum())
    return out
