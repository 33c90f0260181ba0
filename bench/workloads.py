"""The program-facing half of the benchmark: building inputs, the timed ops,
their correctness checks, tracing hooks and per-layer metrics.

Each op is an object with ``run()``, the timed call into the program, and
``check(output)``, which runs outside the timed span and returns a list of
problems (empty when the output is correct).  Importing this module imports
numpy and vinetail, so the worker times the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from vinetail import cli, empirical, eta, gauges, simulate
from vinetail.copulas import PairCopula
from vinetail.gauges import Gauge
from vinetail.measures import Logistic
from vinetail.simulate import SampleCloud
from vinetail.vines import VineSpec, expected_edges

import inputs
import tracer as tr

ETA_TOL = 1e-6           # closed/root route vs eta_numeric, g(argmin) * eta
REF_BUDGET = {"n_starts": 16, "maxfev": 20000}  # eta_numeric reference, when the default one disagrees
BOUNDARY_TOL = 1e-10     # |g(boundary) - 1| on contour rows
PROJECT_TOL = 1e-6       # pair projection vs the IEV margin gauge
MC_ETA_TOL = 0.05        # |eta_hat - eta|, as in the acceptance suite
MC_COVERAGE = 0.99       # coverage at slack 0.15, as in the acceptance suite
MC_SLACK = 0.15


def build_spec(desc: dict) -> VineSpec:
    labels = expected_edges(desc["structure"], desc["d"])
    edges = {label: PairCopula(fam, Logistic(a))
             for label, fam, a in zip(labels, desc["families"], desc["alphas"])}
    return VineSpec(desc["d"], desc["structure"], edges)


def spec_gauge(spec: VineSpec) -> Gauge:
    """The gauge the CLI evaluates for a spec."""
    if spec.d == 3:
        return gauges.gauge_trivariate(spec)
    if spec.structure == "dvine":
        return gauges.gauge_dvine(spec)
    return gauges.gauge_cvine(spec)


def tree1_pairs(spec: VineSpec) -> set:
    return {e.pair for e in spec.edges if not e.cond}


def describe(desc: dict) -> str:
    if "builtin" in desc:
        return "builtin " + ":".join(str(p) for p in desc["builtin"] if p is not None)
    s = desc["spec"]
    fams = "".join("i" if f == "iev" else "e" for f in s["families"])
    return f"{s['structure']}(d={s['d']}, fams={fams}, alphas={s['alphas']})"


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _parse_set(argv, d) -> tuple:
    if "--set" not in argv:
        return tuple(range(1, d + 1))
    return tuple(int(c) for c in argv[argv.index("--set") + 1].replace(",", ""))


# ---------------------------------------------------------------------------
# eta-solve
# ---------------------------------------------------------------------------

class EtaOp:
    """`vinetail eta --spec FILE [--set C] [--method numeric]` in-process."""

    def __init__(self, desc, workdir, i):
        self.desc = desc
        self.spec = build_spec(desc["spec"])
        self.path = os.path.join(workdir, f"spec-{i}.json")
        with open(self.path, "w") as fh:
            fh.write(self.spec.to_json())
        self.argv = desc["argv"][:1] + ["--spec", self.path] + desc["argv"][1:]
        self.C = _parse_set(desc["argv"], self.spec.d)
        self.label = f"{' '.join(desc['argv'])} on {describe(desc)}"

    def run(self):
        return _cli(self.argv)

    def check(self, out) -> list[str]:
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}: {text.strip()}"]
        doc = json.loads(text)
        value, argmin, method = doc["eta"], np.array(doc["argmin"], dtype=float), doc["method"]
        problems = []
        if not 0.0 < value <= 1.0 + 1e-9:
            problems.append(f"eta {value} outside (0, 1]")
        cons = [c - 1 for c in self.C]
        if argmin.shape != (self.spec.d,) or np.any(argmin < 0.0) or np.any(argmin[cons] < 1.0 - 1e-9):
            problems.append(f"argmin {argmin.tolist()} infeasible for C={self.C}")
        else:
            g = spec_gauge(self.spec)
            if abs(g(argmin) * value - 1.0) > ETA_TOL:
                problems.append(f"g(argmin) = {g(argmin)!r} but 1/eta = {1.0 / value!r}")
        ref = self._reference(method, value)
        if ref is not None and abs(value - ref) > ETA_TOL:
            problems.append(f"{method} eta {value!r} vs reference {ref!r}")
        if method == eta.NUMERIC and ref is None and self.spec.all_iev():
            # eta_C' >= eta_C for C' inside C; the full set has a closed form
            full = (eta.eta_dvine if self.spec.structure == "dvine" else eta.eta_cvine)(self.spec)
            if value < full - ETA_TOL:
                problems.append(f"eta_C {value!r} below eta of the full set {full!r}")
        return problems

    def _reference(self, method, value):
        """An independent route to the same eta, where one exists."""
        if method in (eta.CLOSED, eta.ROOT):
            g = spec_gauge(self.spec)
            ref = eta.eta_numeric(g, self.C).eta
            if abs(value - ref) > ETA_TOL:
                # with its default budget, eta_numeric can stop short of a
                # minimum on the boundary x_c = 1 of {x_C >= 1} by up to 2e-2
                ref = eta.eta_numeric(g, self.C, **REF_BUDGET).eta
            return ref
        if self.spec.d == 3:
            res = eta.eta_mixed_trivariate(self.spec, self.C)
            return None if res.method == eta.NUMERIC else res.eta
        if len(self.C) == self.spec.d:
            fn = eta.eta_dvine if self.spec.structure == "dvine" else eta.eta_cvine
            return fn(self.spec)
        return None


# ---------------------------------------------------------------------------
# mc-validate
# ---------------------------------------------------------------------------

class McOp:
    """Sample a cloud, roundtrip it through the binary format (and once per
    run through CSV), scale it, and run the tail estimators on it."""

    def __init__(self, desc, workdir, i):
        self.desc = desc
        self.spec = build_spec(desc["spec"])
        self.gauge = spec_gauge(self.spec)
        self.C = tuple(range(1, self.spec.d + 1))
        self.bin_path = os.path.join(workdir, "cloud.bin")
        self.csv_path = os.path.join(workdir, "cloud.csv") if desc["csv"] else None
        self.label = f"sample n={desc['n']} seed={desc['sample_seed']} on {describe(desc)}"

    def run(self):
        d = self.desc
        cloud = simulate.sample_vine(self.spec, d["n"], d["sample_seed"])
        cloud.to_binary(self.bin_path)
        back = SampleCloud.from_binary(self.bin_path)
        if self.csv_path:
            cloud.to_csv(self.csv_path)
        scaled = simulate.scale_cloud(cloud)
        u = empirical.threshold_at(cloud, self.C, d["percentile"])
        chi = empirical.chi_hat(cloud, self.C, u)
        est = empirical.eta_hat(cloud, self.C, u)
        coverage = empirical.cloud_coverage(scaled, self.gauge, MC_SLACK)
        return cloud, back, scaled, chi, est, coverage

    def check(self, out) -> list[str]:
        cloud, back, scaled, chi, est, coverage = out
        problems = []
        if cloud.values.shape != (self.desc["n"], self.spec.d):
            problems.append(f"cloud shape {cloud.values.shape}")
        if (back.values.tobytes() != cloud.values.tobytes()
                or (back.seed, back.scale) != (cloud.seed, cloud.scale)):
            problems.append("binary roundtrip is not bit-exact")
        if self.csv_path and not self._csv_matches(cloud):
            problems.append("CSV roundtrip does not reproduce the cloud")
        if scaled.scale != math.log(cloud.n):
            problems.append(f"scale {scaled.scale!r} is not ln(n)")
        if not (math.isfinite(chi.estimate) and chi.estimate >= 0.0):
            problems.append(f"chi_hat {chi.estimate!r}")
        ref = self._eta()
        if not abs(est.estimate - ref) < MC_ETA_TOL:
            problems.append(f"eta_hat {est.estimate:.4f} vs eta {ref:.4f} (tolerance {MC_ETA_TOL})")
        if not coverage >= MC_COVERAGE:
            problems.append(f"coverage {coverage:.4f} at slack {MC_SLACK} below {MC_COVERAGE}")
        return problems

    def _csv_matches(self, cloud) -> bool:
        # line by line, so that the check adds nothing to the peak memory
        with open(self.csv_path) as fh:
            if fh.readline().strip() != ",".join(f"x{k}" for k in range(1, cloud.d + 1)):
                return False
            n = 0
            for row, line in zip(cloud.values, fh):
                if [float(v) for v in line.split(",")] != row.tolist():
                    return False
                n += 1
            return n == cloud.n and fh.readline() == ""

    def _eta(self) -> float:
        if self.spec.d == 3:
            return eta.eta_mixed_trivariate(self.spec, self.C).eta
        return (eta.eta_dvine if self.spec.structure == "dvine" else eta.eta_cvine)(self.spec)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _builtin_gauge(name, param) -> Gauge:
    if name == "independence":
        return gauges.independence_gauge()
    if name == "gaussian":
        return gauges.gaussian_gauge(param)
    if name == "ilog":
        return gauges.inverted_ev_gauge(Logistic(param))
    if name == "logistic":
        return gauges.bev_gauge_from_measure(Logistic(param))
    return gauges.asymmetric_logistic_gauge(param)


class ContourOp:
    """`vinetail contour (--builtin B | --spec FILE) --resolution R --out CSV`."""

    def __init__(self, desc, workdir, i):
        self.desc = desc
        self.out = os.path.join(workdir, "contour.csv")
        argv = list(desc["argv"])
        if "spec" in desc:
            self.spec = build_spec(desc["spec"])
            path = os.path.join(workdir, f"spec-{i}.json")
            with open(path, "w") as fh:
                fh.write(self.spec.to_json())
            argv += ["--spec", path]
        else:
            self.spec = None
        self.argv = argv + ["--out", self.out]
        self.label = f"{' '.join(desc['argv'])} on {describe(desc)}"

    def run(self):
        return _cli(self.argv)

    def check(self, out) -> list[str]:
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}: {text.strip()}"]
        g = spec_gauge(self.spec) if self.spec else _builtin_gauge(*self.desc["builtin"])
        with open(self.out) as fh:
            fh.readline()
            rows = np.array([[float(v) for v in line.split(",")] for line in fh])
        dirs = gauges.simplex_directions(inputs.CONTOUR_RESOLUTION, g.dim)
        expected = int(np.sum(np.any(dirs > 0, axis=1)))
        if rows.shape != (expected, 2 * g.dim + 1):
            return [f"contour has shape {rows.shape}, expected ({expected}, {2 * g.dim + 1})"]
        worst = max(abs(g(b) - 1.0) for b in rows[:, g.dim:2 * g.dim])
        if not worst < BOUNDARY_TOL:
            return [f"max |g(boundary) - 1| = {worst:.3e}"]
        return []


class ProjectOp:
    """gauge_project onto a pair, evaluated at one point."""

    def __init__(self, desc, workdir, i):
        self.desc = desc
        self.spec = build_spec(desc["spec"])
        self.keep = tuple(desc["keep"])
        self.point = np.array(desc["point"], dtype=float)
        self.label = f"project keep={self.keep} at {desc['point']} on {describe(desc)}"

    def run(self):
        g = spec_gauge(self.spec)
        return gauges.gauge_project(g, self.keep)(self.point)

    def check(self, value) -> list[str]:
        if self.keep in tree1_pairs(self.spec):
            ref = gauges.inverted_ev_gauge(self.spec.copula(*self.keep).measure)(self.point)
            if abs(value - ref) > PROJECT_TOL * max(1.0, ref):
                return [f"projection {value!r} vs IEV margin gauge {ref!r}"]
            return []
        # the limit set lies in the unit cube (g >= max x), and minimising over
        # the dropped coordinates cannot exceed their value at zero
        full = np.zeros(self.spec.d)
        full[[k - 1 for k in self.keep]] = self.point
        top = spec_gauge(self.spec)(full)
        if not float(np.max(self.point)) - 1e-9 <= value <= top + 1e-9 * top:
            return [f"projection {value!r} outside [max(x), g(x, 0)] = [{np.max(self.point)!r}, {top!r}]"]
        return []


def geometry_op(desc, workdir, i):
    return (ProjectOp if "keep" in desc else ContourOp)(desc, workdir, i)


OP_TYPES = {"eta-solve": EtaOp, "mc-validate": McOp, "geometry": geometry_op}


def prepare(workload: str, seed: int, round_: int, workdir: str) -> list:
    make = OP_TYPES[workload]
    return [make(desc, workdir, i) for i, desc in enumerate(inputs.round_inputs(workload, seed, round_))]


def input_sizes(workload: str) -> dict:
    if workload == "mc-validate":
        return {"rows_by_dim": inputs.MC_ROWS, "percentile": inputs.MC_PERCENTILE,
                "ops_per_round": len(inputs.mc_round(0, 0))}
    if workload == "geometry":
        return {"contour_resolution": inputs.CONTOUR_RESOLUTION, "dims": [2, 3, 4],
                "ops_per_round": len(inputs.geometry_round(0, 0))}
    return {"vine_dims": list(inputs.VINE_DIMS), "ops_per_round": len(inputs.eta_round(0, 0))}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

# the modules through whose globals the program and the benchmark call traced functions
MODULES = (cli, empirical, eta, gauges, simulate)


def _points_hinv(t, args, result):
    t.count("copulas.hinv.points", np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _gauge_span(args):
    return "gauges.project" if args[0].tag.startswith("project(") else "gauges.call"


def _points_gauge(t, args, result):
    t.count(_gauge_span(args) + ".points", np.asarray(args[1]).size // args[0].dim)


def _eta_numeric(t, args, result):
    t.count("eta.numeric.gauge_evals", result.diagnostics.get("n_gauge_evals", 0))
    t.count("eta.numeric.suspicious", bool(result.diagnostics.get("suspicious_landscape")))


def _rows(t, args, result):
    t.count("simulate.sample_vine.rows", result.n)


def _written(t, args, result):
    path = str(args[1])
    t.count("simulate.io.bytes", os.path.getsize(path) + os.path.getsize(path + ".meta.json"))


def _read(t, args, result):
    t.count("simulate.io.bytes", os.path.getsize(str(args[1])))


def _cloud_points(t, args, result):
    t.count("empirical.points", args[0].n)


def install_tracing(t: tr.Tracer) -> None:
    """Wrap the program's entry points for every layer the benchmark names."""
    t.patch_function(MODULES, cli.main, "cli.main")
    t.patch_attr(VineSpec, "from_json", "vines.parse", kind="classmethod")
    t.patch_attr(PairCopula, "hinv", "copulas.hinv", _points_hinv)
    t.patch_attr(PairCopula, "hfunc", "copulas.hfunc")
    t.patch_attr(PairCopula, "density", "copulas.density")
    t.patch_attr(Gauge, "__call__", _gauge_span, _points_gauge)
    t.patch_factory(Gauge, "scalar_evaluator", "gauges.scalar")
    for fn in (gauges.gauge_trivariate, gauges.gauge_dvine, gauges.gauge_cvine, gauges.gauge_project,
               gauges.independence_gauge, gauges.gaussian_gauge, gauges.inverted_ev_gauge,
               gauges.bev_gauge, gauges.bev_gauge_from_measure, gauges.asymmetric_logistic_gauge):
        t.patch_function(MODULES, fn, "gauges.build")
    t.patch_function(MODULES, gauges.boundary_point, "gauges.boundary")
    t.patch_function(MODULES, eta.eta_numeric, "eta.numeric", _eta_numeric)
    t.patch_function(MODULES, eta.eta_mixed_trivariate, "eta.mixed")
    t.patch_function(MODULES, eta.eta_trivariate_ilog_closed, "eta.ilog")
    t.patch_function(MODULES, eta.eta13_trivariate_ilog, "eta.ilog")
    t.patch_function(MODULES, eta.eta_dvine, "eta.recursion")
    t.patch_function(MODULES, eta.eta_cvine, "eta.recursion")
    t.patch_function(MODULES, simulate.sample_vine, "simulate.sample_vine", _rows)
    t.patch_function(MODULES, simulate.scale_cloud, "simulate.scale")
    t.patch_attr(SampleCloud, "to_binary", "simulate.io.write", _written)
    t.patch_attr(SampleCloud, "to_csv", "simulate.io.write", _written)
    t.patch_attr(SampleCloud, "from_binary", "simulate.io.read", _read, kind="classmethod")
    for fn in (empirical.threshold_at, empirical.chi_hat, empirical.eta_hat, empirical.cloud_coverage):
        t.patch_function(MODULES, fn, f"empirical.{fn.__name__}", _cloud_points)


def record_query(t: tr.Tracer, op, out) -> None:
    """Count eta-solve queries by the route the program reports."""
    if isinstance(op, EtaOp) and out[0] == 0:
        t.counters[f"eta.queries.{json.loads(out[1])['method']}"] += 1


def layer_metrics(t: tr.Tracer, op_wall_s: float) -> dict:
    """Every per-layer metric of the traced run except trace.overhead_frac."""
    summary = tr.summarise(t)
    spans, nested, c = summary["spans"], summary["nested"], t.counters

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(prefix):
        return sum(s["self_s"] for n, s in spans.items() if n == prefix or n.startswith(prefix + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    hinv = calls("copulas.hinv")
    numeric = calls("eta.numeric")
    sample_total = spans.get("simulate.sample_vine", {}).get("total_s", 0.0)
    m = {
        "copulas.hinv.calls": hinv,
        "copulas.hinv.points": c["copulas.hinv.points"],
        "copulas.hinv.self_s": self_s("copulas.hinv"),
        "copulas.hfunc.calls": calls("copulas.hfunc"),
        "copulas.hfunc.self_s": self_s("copulas.hfunc"),
        "copulas.hfunc_per_hinv": ratio(nested.get(("copulas.hfunc", "copulas.hinv"), 0), hinv),
        "copulas.density.calls": calls("copulas.density"),
        "copulas.density.self_s": self_s("copulas.density"),
        "simulate.sample_vine.self_s": self_s("simulate.sample_vine"),
        "simulate.sample_vine.rows_per_s": ratio(c["simulate.sample_vine.rows"], sample_total),
        "simulate.io.self_s": self_s("simulate.io"),
        "simulate.io.bytes": c["simulate.io.bytes"],
        "gauges.scalar.evals": calls("gauges.scalar"),
        "gauges.scalar.self_s": self_s("gauges.scalar"),
        "eta.numeric.self_s": self_s("eta.numeric"),
        "eta.numeric.gauge_evals": c["eta.numeric.gauge_evals"],
        "eta.numeric.evals_per_call": ratio(c["eta.numeric.gauge_evals"], numeric),
        "eta.numeric.suspicious": c["eta.numeric.suspicious"],
        "eta.queries.closed": c["eta.queries.closed"],
        "eta.queries.root": c["eta.queries.root"],
        "eta.queries.numeric": c["eta.queries.numeric"],
        "gauges.call.calls": calls("gauges.call"),
        "gauges.call.points": c["gauges.call.points"],
        "gauges.call.self_s": self_s("gauges.call"),
        "gauges.project.points": c["gauges.project.points"],
        "gauges.project.self_s": self_s("gauges.project"),
        "gauges.build.self_s": self_s("gauges.build"),
        "empirical.self_s": self_s("empirical"),
        "empirical.points": c["empirical.points"],
        "vines.parse.calls": calls("vines.parse"),
        "vines.parse.self_s": self_s("vines.parse"),
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli"),
    }
    for layer in tr.LAYERS:
        m[f"{layer}.share"] = ratio(self_s(layer), op_wall_s)
    m["trace.spans"] = summary["n_spans"]
    return m
