"""Command-line surface.

Subcommands: `eta` (coefficients of tail dependence), `contour` (unit
level-set meshes), `simulate` (seeded sample clouds), `table` (eta values
across dimensions), `verify` (the self-check suite).  Stdout is always
machine parseable, JSON or CSV; exit codes are 0 (ok), 2 (input error),
3 (numeric failure), 4 (verification failure).  A spec's gauge comes
from ``gauges.gauge_vine`` and its eta from ``eta.eta_vine``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import checks
from .errors import ConvergenceError, ParameterError, VinetailError
from .eta import CLOSED, METHODS, EtaResult, eta_dvine_ilog_closed, eta_numeric, eta_vine
from .gauges import boundary_point, gauge_bivariate, gauge_vine, simplex_directions
from .measures import Logistic
from .simulate import sample_vine, scale_cloud
from .vines import VineSpec

OK, INPUT_ERROR, NUMERIC_FAILURE, VERIFY_FAILURE = 0, 2, 3, 4


def _emit_error(message: str) -> int:
    print(json.dumps({"error": message}))
    return INPUT_ERROR


def _parse_builtin(text: str):
    """independence | gaussian:RHO | ilog:ALPHA | logistic:ALPHA | alog:ALPHA,
    as its ``gauge_bivariate`` gauge and its closed-form eta."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "independence":
        return gauge_bivariate("independence"), 0.5
    if not arg:
        raise VinetailError(f"builtin {name!r} needs a parameter, e.g. {name}:0.5")
    value = float(arg)
    if name == "gaussian":
        case, params, eta = "gaussian", {"rho": value}, (1.0 + value) / 2.0
    elif name == "ilog":
        case, params, eta = "inverted_ev", {"measure": Logistic(value)}, 2.0 ** (-value)
    elif name == "logistic":
        t = Logistic(value).tail_orders()
        case, params, eta = "bev", {"s1": t.s1, "s2": t.s2}, 1.0
    elif name == "alog":
        case, params, eta = "asymmetric_logistic", {"alpha": value}, 1.0
    else:
        raise VinetailError(f"unknown builtin gauge {text!r}")
    return gauge_bivariate(case, **params), eta


def _load_spec(path: str) -> VineSpec:
    with open(path) as fh:
        return VineSpec.from_json(fh.read())


def _parse_set(text: str, d: int):
    """The labels of --set, sorted and distinct: digits ("123") or integers
    separated by commas ("1,3")."""
    text = text.strip()
    if not text:
        raise VinetailError("--set is empty: name its variables as digits (123) or integers separated by commas (1,3)")
    items = text.split(",") if "," in text else list(text)
    labels = []
    for item in items:
        if not item.strip():
            raise VinetailError(f"--set {text!r} has an empty item")
        try:
            labels.append(int(item))
        except ValueError:
            raise VinetailError(f"--set {text!r}: {item!r} is not an integer") from None
    bad = [c for c in labels if c < 1 or c > d]
    if bad:
        raise VinetailError(f"--set indices {bad} outside 1..{d}")
    return tuple(sorted(set(labels)))


def _json_safe(value):
    """A diagnostics value as JSON: tuples become lists, numpy scalars floats."""
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        return float(value)
    return value


def _result_json(res: EtaResult) -> str:
    return json.dumps(
        {
            "eta": res.eta,
            "argmin": [float(v) for v in np.atleast_1d(res.argmin)],
            "method": res.method,
            "diagnostics": {k: _json_safe(v) for k, v in res.diagnostics.items()},
        }
    )


def cmd_eta(args) -> int:
    if args.builtin:
        gauge, closed = _parse_builtin(args.builtin)
        if args.set is not None and len(_parse_set(args.set, 2)) < 2:
            raise VinetailError("eta is defined for index sets with at least two variables")
        if args.method in ("auto", "closed"):
            res = EtaResult(eta=closed, argmin=np.ones(gauge.dim), method=CLOSED)
        else:
            res = eta_numeric(gauge)
        print(_result_json(res))
        return OK
    spec = _load_spec(args.spec)
    res = eta_vine(spec, _parse_set(args.set, spec.d) if args.set is not None else None, args.method)
    print(_result_json(res))
    return OK


def cmd_contour(args) -> int:
    if args.builtin:
        gauge, _ = _parse_builtin(args.builtin)
    else:
        gauge = gauge_vine(_load_spec(args.spec))
    dims = gauge.dim if args.dims is None else int(args.dims)
    if dims != gauge.dim:
        return _emit_error(f"--dims {dims} does not match the gauge dimension {gauge.dim}")
    W = simplex_directions(args.resolution, dims)
    B = boundary_point(gauge, W)
    table = np.column_stack([W, B, gauge(B)])
    header = (
        [f"w{i}" for i in range(1, dims + 1)]
        + [f"b{i}" for i in range(1, dims + 1)]
        + ["g_check"]
    )
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"  # the bytes of f"{v:.17g}"
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write(",".join(header) + "\n")
        out.write((row * len(table)) % tuple(table.ravel().tolist()))
    finally:
        if out is not sys.stdout:
            out.close()
    return OK


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    cloud = sample_vine(spec, args.n, args.seed)
    if args.scale:
        cloud = scale_cloud(cloud)
    if args.format == "binary":
        cloud.to_binary(args.out)
    else:
        cloud.to_csv(args.out)
    print(json.dumps({"out": args.out, "n": cloud.n, "d": cloud.d, "scale": cloud.scale,
                      "seed": cloud.seed, "spec_hash": cloud.spec_hash}))
    return OK


def cmd_table(args) -> int:
    if args.figure != "fig6":
        return _emit_error(f"unknown table {args.figure!r}; available: fig6")
    if args.dmax < 2:
        raise ParameterError(f"--dmax must be at least 2, got {args.dmax}")
    alphas = [float(a) for a in args.alphas.split(",")]
    # every cell first, so that a bad alpha prints its error and no header
    rows = [f"{d}," + ",".join(f"{eta_dvine_ilog_closed(a, d):.17g}" for a in alphas)
            for d in range(2, args.dmax + 1)]
    print("d," + ",".join(f"alpha={a:g}" for a in alphas))
    for row in rows:
        print(row)
    return OK


def cmd_verify(args) -> int:
    results = checks.run_suite(args.suite)
    print("check,status,elapsed_s,detail")
    failed = 0
    for r in results:
        status = "pass" if r.passed else "fail"
        failed += not r.passed
        detail = r.detail.replace(",", ";")
        print(f"{r.name},{status},{r.elapsed:.3f},{detail}")
    return VERIFY_FAILURE if failed else OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as VinetailError, which main reports as JSON."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise VinetailError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; every
    parse_args call still returns a fresh Namespace."""
    parser = _Parser(
        prog="vinetail",
        description="Tail dependence of vine copulas: eta coefficients, gauge geometry, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="compute a coefficient of tail dependence")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="vine spec JSON file")
    src.add_argument("--builtin", help="independence | gaussian:R | ilog:A | logistic:A | alog:A")
    p.add_argument("--set", help="variable subset, e.g. 123 or 1,3 (default: all)")
    p.add_argument("--method", choices=METHODS, default="auto")
    p.set_defaults(fn=cmd_eta)

    p = sub.add_parser("contour", help="emit unit-level-set boundary points as CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="vine spec JSON file")
    src.add_argument("--builtin", help="builtin gauge, as for eta")
    p.add_argument("--dims", type=int, default=None)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_contour)

    p = sub.add_parser("simulate", help="sample a vine copula cloud")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=float, required=True, help="sample count; integral notation such as 1e6 is accepted")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", action="store_true", help="divide by ln(n)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "binary"], default="csv")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("table", help="eta across dimensions (the D-/C-vine table)")
    p.add_argument("--figure", default="fig6")
    p.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--dmax", type=int, default=10)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--suite", choices=list(checks.SUITES), default="quick")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return INPUT_ERROR if exc.code not in (0, None) else OK
    except VinetailError as exc:
        return _emit_error(str(exc))
    try:
        return args.fn(args)
    except (ConvergenceError,) as exc:
        print(json.dumps({"error": str(exc), "diagnostics": getattr(exc, "diagnostics", {})}))
        return NUMERIC_FAILURE
    except (VinetailError, OSError, ValueError) as exc:
        return _emit_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
