"""Benchmark of the nsstab CLI: one workload per invocation.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn

Run from anywhere; the program is imported from the `src/` directory next to
this one.  For the chosen workload the benchmark writes the generated config,
times set-up in fresh processes, then runs the CLI as a child process again
and again for about `--seconds` seconds, checking every run's outputs.  With
`--trace 0` the last stdout line reports the end-to-end metrics (medians over
the runs); with `--trace 1` it adds two traced runs and reports the
per-layer metrics instead.  The line before it is a JSON record of the
environment and of every run.  Exit code 0 means a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from checks import check_outputs, compare_digests, csv_digests
from workloads import DEFAULT_SEED, WORKLOADS, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 11        # set-up processes before, and again after, the CLI runs
BLAS_THREADS = 1          # fixed, and never more than nproc
DEADLINE_S = 170.0        # no child may run past this point of an invocation
TRACED_RUNS = 2


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, log_path, timeout_s):
    """Spawn one process and wait for it: (wall_s, peak_rss_mb, exit code).

    A child still running after `timeout_s` is killed (exit code -9).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(config_path, remaining_s):
    """Set-up records of SETUP_REPEATS fresh processes."""
    records = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"),
                                   config_path], capture_output=True, text=True,
                                  env=child_env(), cwd=ROOT, timeout=remaining_s())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(record["nsstab_file"]).startswith(SRC + os.sep):
            raise BenchError(f"nsstab imported from {record['nsstab_file']}, "
                             f"not from {SRC}")
        records.append(record)
    return records


def code_digest() -> str:
    """Hash of the library and benchmark sources, keying cross-run state."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def environment(setup_record, seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": setup_record["numpy"], "python": setup_record["python"],
            "blas": setup_record["blas"],
            "blas_threads": setup_record["blas_threads"],
            "blas_threads_requested": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


class StateFile:
    """Results of earlier runs at one (workload, seed, code) in this checkout,
    so that CSVs and traced counts are also compared across invocations."""

    def __init__(self, workload, seed):
        os.makedirs(os.path.join(WORK, "state"), exist_ok=True)
        self.path = os.path.join(WORK, "state",
                                 f"{workload}-{seed}-{code_digest()}.json")
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def compare_or_store(self, key, value) -> bool:
        """True if `value` matches the stored one (or none was stored)."""
        if key in self.data:
            return self.data[key] == value
        self.data[key] = value
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, sort_keys=True)
        os.replace(tmp, self.path)
        return True


def run_workload(name, seed, seconds, trace, started) -> dict:
    spec = WORKLOADS[name]
    remaining = lambda: DEADLINE_S - (time.perf_counter() - started)  # noqa: E731
    work = os.path.join(WORK, f"run-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w") as fh:
            json.dump(workload_config(name, seed), fh, indent=2, sort_keys=True)
        setups = measure_setup(config_path, remaining)
        state = StateFile(name, seed)

        def cli(argv_head, tag):
            """One CLI process: (wall_s, peak_rss_mb, problems, CSV digests)."""
            out = os.path.join(work, tag)
            argv = argv_head + [spec["subcommand"], "--config", config_path,
                                "--seed", str(seed), "--out", out]
            wall, rss, code = run_child(argv, os.path.join(work, f"{tag}.log"),
                                        remaining())
            if code != 0:
                with open(os.path.join(work, f"{tag}.log"), errors="replace") as fh:
                    tail = fh.read()[-400:]
                return wall, rss, [f"exit code {code}: {tail}"], None
            return wall, rss, check_outputs(out, name), csv_digests(out)

        runs, first_csv = [], None
        loop_start = time.perf_counter()
        while True:
            wall, rss, problems, digests = cli([sys.executable, "-m", "nsstab.cli"],
                                               f"out{len(runs)}")
            if digests is not None:
                if first_csv is None:
                    first_csv = digests
                    if not state.compare_or_store("csv", digests):
                        problems.append("CSVs differ from an earlier run at this seed")
                problems += compare_digests(first_csv, digests)
            runs.append({"wall_s": wall, "peak_rss_mb": rss, "problems": problems})
            # Stop before a run that would likely end past `seconds`.
            typical = statistics.median(r["wall_s"] for r in runs)
            elapsed = time.perf_counter() - loop_start
            if elapsed + typical > seconds or remaining() < 3.0 * typical:
                break

        # A second batch samples the machine at the other end of the runs.
        setups += measure_setup(config_path, remaining)
        walls = [r["wall_s"] for r in runs]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        if trace:
            metrics = traced_metrics(cli, runs, first_csv, state, statistics.median(walls))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if r["problems"])
    return {
        "record": {"workload": name, "subcommand": spec["subcommand"],
                   "seconds": seconds, "trace": int(trace),
                   "env": environment(setups[0], seed),
                   "setup_s": [s["setup_s"] for s in setups], "runs": runs},
        "result": {"correct": failed == 0, "attempted": len(runs), "failed": failed,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
    }


def traced_metrics(cli, runs, first_csv, state, untraced_median) -> dict:
    """Per-layer metrics from TRACED_RUNS traced runs; appends them to runs."""
    from tracer import EXACT, PER_LAYER, layer_metrics

    layers = []
    for k in range(TRACED_RUNS):
        spans = os.path.join(WORK, f"spans-{os.getpid()}-{k}.npz")
        try:
            wall, rss, problems, digests = cli(
                [sys.executable, os.path.join(HERE, "trace_child.py"), spans],
                f"trace{k}")
            if digests is not None:
                problems += compare_digests(first_csv or digests, digests)
                layers.append(layer_metrics(spans))
                layers[-1]["trace.overhead_s"] = wall - untraced_median
        finally:
            if os.path.exists(spans):
                os.remove(spans)
        runs.append({"wall_s": wall, "peak_rss_mb": rss, "traced": True,
                     "problems": problems})
    if len(layers) == TRACED_RUNS:
        counts = [{k: m[k] for k in EXACT} for m in layers]
        changed = sorted(k for k in EXACT if counts[0][k] != counts[-1][k])
        if changed:
            runs[-1]["problems"].append(f"traced counts differ between runs: {changed}")
        if not state.compare_or_store("counts", counts[0]):
            runs[-1]["problems"].append("traced counts differ from an earlier run")
    first = layers[0] if layers else {}
    return {name: (first.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "nsstab", "cli.py")):
        print(f"perfbench: no nsstab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        if args.workload == "all":
            started = time.perf_counter()
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace, started)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in out["result"]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(out["record"], sort_keys=True))
        results.append((name, out["result"]))

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
