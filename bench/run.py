"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload eta-solve|mc-validate|geometry \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Every workload process is a fresh
``python3 bench/worker.py`` with BLAS/OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics: ``setup_s`` is the median over
SETUP_REPEATS fresh processes that import vinetail and build round 0's
inputs (the measuring process included); the rest come from the measuring
process.

Times are reported at reference machine speed.  The machines this runs on
are shared, and their speed drifts by tens of percent over minutes, so the
worker times a fixed probe job (which never calls vinetail) between ops
and after every set-up, and each time is multiplied by probe_ref_s / probe
time.  A change to the program moves the scaled times as it moves the raw
ones; a slow spell of the machine moves the probe too and mostly cancels
out.  The raw figures are printed beside the scaled ones.

--trace 1 runs the same inputs untraced and then traced, and prints the
per-layer metrics of the traced run together with ``trace.overhead_frac``,
the traced over the untraced op time on the ops both runs completed, minus
one.

Human-readable lines, failing inputs and a provenance record come first;
the last line of stdout is the JSON result.  Raw worker results (and the
traced spans) are kept under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from worker import probe_ref_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_work", "results")
WORKLOADS = ("eta-solve", "mc-validate", "geometry")
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "VINETAIL_THREADS")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workers:
    """Starts worker processes, each waited for, under one overall deadline."""

    def __init__(self, args):
        self.args = args
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _run(self, extra) -> str:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed)] + extra
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline passed before all workers ran")
        # subprocess.run kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
        return proc.stdout

    def setup(self) -> dict:
        return json.loads(self._run(["--setup-only"]).strip().splitlines()[-1])

    def measure(self, trace: int) -> dict:
        os.makedirs(RESULTS, exist_ok=True)
        out = os.path.join(RESULTS, f"{self.args.workload}-seed{self.args.seed}-trace{trace}.json")
        self._run(["--seconds", str(self.args.seconds), "--trace", str(trace), "--out", out])
        with open(out) as fh:
            return json.load(fh)


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile, as numpy.percentile computes it."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def op_seconds(result: dict, scaled: bool) -> list:
    if not scaled:
        return [r["seconds"] for r in result["ops"]]
    ref = probe_ref_s(result["workload"])
    return [r["seconds"] * ref / r["probe_s"] for r in result["ops"]]


def end_to_end(result: dict, setups: list, scaled: bool = True) -> dict:
    times = op_seconds(result, scaled)
    ref = probe_ref_s(result["workload"])
    return {
        "setup_s": statistics.median(s["setup_s"] * (ref / s["probe_s"] if scaled else 1.0)
                                     for s in setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * quantile(times, 0.5),
        "op_p90_ms": 1e3 * quantile(times, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def overhead_frac(base: dict, traced: dict) -> float:
    m = min(len(base["ops"]), len(traced["ops"]))
    return sum(op_seconds(traced, True)[:m]) / sum(op_seconds(base, True)[:m]) - 1.0


def scaled_layers(result: dict, declared: list) -> dict:
    """The traced run's layer metrics, with times at reference speed."""
    scale = probe_ref_s(result["workload"]) / statistics.median(r["probe_s"] for r in result["ops"])
    factor = {"s": scale, "1/s": 1.0 / scale}
    layers = result["layers"]
    return {m["name"]: layers[m["name"]] * factor[m["unit"]] if m["unit"] in factor else layers[m["name"]]
            for m in declared if m["name"] in layers}


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "vinetail")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def provenance(args, result, setups) -> dict:
    env = worker_env()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "setup_repeats": len(setups),
        "probe_ref_s": probe_ref_s(args.workload),
        "probe_median_s": statistics.median(r["probe_s"] for r in result["ops"]),
        "rounds": result["rounds"],
        "ops": len(result["ops"]),
        "input_sizes": result["input_sizes"],
    }


def report(args, result, metrics, raw, setups, units) -> dict:
    ops = result["ops"]
    failures = [r for r in ops if r["problems"]]
    n = len(ops)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {n} ops in "
          f"{result['rounds']} rounds, {len(failures)} failed")
    for r in failures:
        line = f"FAIL {r['label']}: {' | '.join(r['problems'])}".replace("\n", " ")
        print(line)
        sys.stderr.write(line + "\n")
    times = op_seconds(result, True)
    beyond = sum(1e3 * t > metrics.get("op_p90_ms", float("inf")) for t in times)
    notes = {"setup_s": f"median of {len(setups)}", "op_p50_ms": f"n={n}",
             "op_p90_ms": f"n={n}, {beyond} beyond"}
    for name, value in metrics.items():
        extra = [f"raw {raw[name]:.6g}"] if name in raw and name != "peak_rss_mb" else []
        extra += [notes[name]] if name in notes else []
        print(f"{name} {value:.6g} {units[name]}" + (f" ({', '.join(extra)})" if extra else ""))
    if args.trace == 0:
        print(f"fail_frac {len(failures) / n:.6g} fraction ({len(failures)}/{n})")
    print("provenance " + json.dumps(provenance(args, result, setups), sort_keys=True))
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vinetail", "__init__.py")):
        sys.stderr.write(f"no program source at {SRC}/vinetail; run from a vinetail checkout\n")
        return 2
    bench = load_benchmark()
    workers = Workers(args)
    try:
        if args.trace == 0:
            setups = [workers.setup() for _ in range(SETUP_REPEATS - 1)]
            result = workers.measure(0)
            setups.append({"setup_s": result["setup_s"], "probe_s": result["setup_probe_s"]})
            measured = end_to_end(result, setups)
            raw = end_to_end(result, setups, scaled=False)
            declared = bench["end_to_end"]
        else:
            setups, raw = [], {}
            base = workers.measure(0)
            result = workers.measure(1)
            declared = bench["per_layer"]
            measured = scaled_layers(result, declared)
            measured["trace.overhead_frac"] = overhead_frac(base, result)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    metrics = {m["name"]: measured[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps(report(args, result, metrics, raw, setups, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
