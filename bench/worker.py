"""One workload in one fresh process: set up, run the closed loop, check
every op, and write the raw result as JSON.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE
    python3 bench/worker.py --workload W --seed N --setup-only

Set-up is timed from before ``import vinetail`` (through ``workloads``) to
the end of building round 0's specs, spec files and gauges.  After one
untimed warm-up run of the first op, the loop is a closed loop with one
client: ops run back to back, each timed on its own, and checks and machine
probes run between them outside the timed spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WALL_LIMIT_S = 60.0  # stop starting rounds after this much wall time (two workers fit the deadline)
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.05
PROBE_MAX = 15  # probes per flush, one per PROBE_EVERY_S of elapsed time
PROBE_REF_S = 1.2e-3  # the probe's typical time during runs on a 2-vCPU VM (Python 3.11, numpy 2.4)
VECTOR_PROBE_REF_S = 3.0e-4  # its vectorised half's, on the same VM
# mc-validate's ops are vectorised over arrays of 1e5 to 3e5 rows.  Timed in
# turn with a 1e5-row sample_vine on that VM, the probe's interpreter-bound
# half varied twice as much as the op did (CV 0.24 against 0.12); scaled by
# the vectorised half alone the op varied by 0.08, by the whole probe by 0.11.
VECTOR_PROBE_WORKLOADS = {"mc-validate"}
MIN_ROUNDS = 2  # mc-validate runs only these: its 5-d vine alternates between rounds


def probe_ref_s(workload: str) -> float:
    """The probe time at reference speed for the probe this workload uses."""
    return VECTOR_PROBE_REF_S if workload in VECTOR_PROBE_WORKLOADS else PROBE_REF_S


def machine_probe(np, data, buf, small, vector_only=False) -> float:
    """Seconds for a fixed job that does not touch vinetail (best of
    PROBE_REPEATS); tracks how fast the machine runs right now.  It has an
    interpreter-bound half (small-array checks, as in single-point gauge
    calls) and a vectorised half (transcendentals on 64k points, written
    into a preallocated buffer, as in the h-function cascade)."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(0 if vector_only else 50):
            x = np.asarray(small, dtype=float)
            if np.any(np.isnan(x)) or np.any(x < 0.0):
                raise ValueError("probe input changed")
            acc += float(np.max(x)) + min(x.tolist())
        np.negative(data, out=buf)
        np.log1p(buf, out=buf)
        np.multiply(buf, 1.7, out=buf)
        np.expm1(buf, out=buf)
        buf.sum()
        best = min(best, time.perf_counter() - t0)
    return best


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out")
    return p.parse_args(argv)


def run_loop(workloads, ops, args, workdir, tracer, probe):
    """Run whole rounds, at least MIN_ROUNDS, until the op time scaled to
    reference speed reaches --seconds; return per-op records and the number
    of rounds.  Stopping on scaled time keeps the number of rounds, and so
    the mix, the same when the machine slows down.

    The machine probe runs outside the timed spans, after an op once
    PROBE_EVERY_S has passed since the last probe, once per PROBE_EVERY_S
    elapsed (up to PROBE_MAX times, median taken); each op records the mean
    of the probe figures on either side of it."""
    records, pending = [], []
    scaled_time = 0.0
    round_ = 0
    wall0 = time.perf_counter()
    before, probed_at = probe(), time.perf_counter()

    def flush():
        nonlocal before, probed_at, scaled_time
        # after long ops, the median of more probes: a single probe varies
        # more than an op of seconds does
        n = min(PROBE_MAX, max(1, int((time.perf_counter() - probed_at) / PROBE_EVERY_S)))
        after = statistics.median(probe() for _ in range(n))
        for record in pending:
            record["probe_s"] = 0.5 * (before + after)
            scaled_time += record["seconds"] * probe_ref_s(args.workload) / record["probe_s"]
        pending.clear()
        before, probed_at = after, time.perf_counter()

    while True:
        for op in ops:
            err = None
            t0 = time.perf_counter()
            root = tracer.begin_op(len(records)) if tracer else None
            try:
                out = op.run()
            except Exception as exc:  # a raised error is a failed op, not a crashed run
                err = exc
            finally:
                if tracer:
                    tracer.end_op(root)
            dt = time.perf_counter() - t0
            record = {"kind": type(op).__name__, "seconds": dt, "label": op.label}
            failure = err
            if err is None:
                try:
                    record["problems"] = op.check(out)
                except Exception as exc:  # a check that raises fails the op too
                    failure = exc
                if tracer is not None:
                    workloads.record_query(tracer, op, out)
            if failure is not None:
                what = "raised" if failure is err else "check raised"
                record["problems"] = [f"{what} " + "".join(traceback.format_exception_only(failure)).strip()]
                record["traceback"] = "".join(traceback.format_exception(failure))
            records.append(record)
            pending.append(record)
            if time.perf_counter() - probed_at >= PROBE_EVERY_S:
                flush()
        round_ += 1
        if pending:
            flush()
        if round_ >= MIN_ROUNDS and scaled_time >= args.seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
            return records, round_
        ops = workloads.prepare(args.workload, args.seed, round_, workdir)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        import workloads  # imports numpy, scipy and vinetail

        ops = workloads.prepare(args.workload, args.seed, 0, workdir)
        setup_s = time.perf_counter() - t0

        import numpy

        data = numpy.linspace(0.01, 0.99, 65536)
        buf = numpy.empty_like(data)
        small = numpy.array([0.3, 1.2, 0.7])

        def probe():
            return machine_probe(numpy, data, buf, small, args.workload in VECTOR_PROBE_WORKLOADS)

        setup_probe_s = statistics.median(probe() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
            return 0

        # one untimed run of the first op: the first large sample_vine in a
        # process takes about 1.5 times as long as later ones, and the op
        # loop measures the steady state
        try:
            ops[0].run()
        except Exception:  # the timed loop runs this op again and reports the error
            pass

        tracer = None
        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            workloads.install_tracing(tracer)
        records, rounds = run_loop(workloads, ops, args, workdir, tracer, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import scipy

        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "setup_s": setup_s,
            "setup_probe_s": setup_probe_s,
            "rounds": rounds,
            "ops": records,
            "peak_rss_mb": peak_rss_mb,
            "input_sizes": workloads.input_sizes(args.workload),
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__},
        }
        if tracer is not None:
            op_wall = sum(r["seconds"] for r in records)
            result["layers"] = workloads.layer_metrics(tracer, op_wall)
            spans_path = os.path.splitext(args.out)[0] + ".spans.csv.gz"
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
