"""Self-verification suite backing the command-line `verify` command.

Each check recomputes a family of analytic results two independent ways
(closed form vs numeric minimisation, recursion vs telescoped series,
analytic derivative vs finite difference, simulation vs analytic value)
and reports pass/fail.  The quick suite runs reduced grids and no
simulation; the full suite runs the complete grids plus the Monte Carlo
cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .copulas import PairCopula
from .empirical import cloud_coverage, eta_hat, threshold_at
from .errors import DomainError
from .eta import (
    eta13_trivariate_ilog,
    eta_cvine,
    eta_dvine,
    eta_dvine_ilog_closed,
    eta_mixed_trivariate,
    eta_numeric,
    eta_subvine,
    eta_trivariate_ilog_closed,
)
from .gauges import (
    _minimise_gauge,
    _panels,
    asymmetric_logistic_gauge,
    bev_gauge,
    boundary_point,
    gauge_project,
    gauge_vine,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
    simplex_directions,
)
from .measures import Logistic
from .simulate import sample_vine, scale_cloud
from .vines import VineSpec, expected_edges

__all__ = ["CheckResult", "run_suite", "SUITES"]

SUITES = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


def _ilog(alpha):
    return PairCopula("iev", Logistic(alpha))


def _log(alpha):
    return PairCopula("ev", Logistic(alpha))


def check_bivariate_gallery(full):
    cases = [
        ("independence", independence_gauge(), 0.5),
        ("gaussian", gaussian_gauge(0.5), 0.75),
        ("inverted-logistic", inverted_ev_gauge(Logistic(0.5)), 2.0**-0.5),
        ("logistic", bev_gauge(0.0, 0.0), 1.0),
        ("asymmetric-logistic", asymmetric_logistic_gauge(0.5), 1.0),
    ]
    worst = 0.0
    for _, g, expected in cases:
        worst = max(worst, abs(eta_numeric(g).eta - expected))
    return worst < 1e-6, f"max |eta - expected| = {worst:.2e}"


def check_trivariate_oracle(full):
    grid = np.arange(0.1, 0.95, 0.1) if full else np.array([0.2, 0.5, 0.8])
    worst = 0.0
    for a in grid:
        for b in grid:
            for c in grid:
                spec = VineSpec.trivariate(_ilog(a), _ilog(b), _ilog(c))
                res = eta_numeric(gauge_vine(spec))
                closed = eta_trivariate_ilog_closed(a, b, c)
                worst = max(worst, abs(res.eta - closed), float(np.max(np.abs(res.argmin - 1.0))))
    return worst < 1e-6, f"{len(grid)**3} cases, max deviation {worst:.2e}"


def check_eta13_root(full):
    grid = np.arange(0.1, 0.95, 0.1) if full else np.array([0.2, 0.5, 0.8])
    worst = 0.0
    in_range = True
    for a in grid:
        for c in grid:
            closed = eta13_trivariate_ilog(a, a, c).eta
            rooted = eta13_trivariate_ilog(a, a, c, force_root=True).eta
            worst = max(worst, abs(closed - rooted))
            in_range &= 0.5 < rooted < 1.0
    ok = worst < 1e-8 and in_range
    return ok, f"max |closed - root| = {worst:.2e}, range ok: {in_range}"


# 6-d vines, alphas in expected_edges order, whose gauge decreases from the
# all-ones point, so that the recursion 1/g(1, ..., 1) understates eta
_UNCERTIFIED_VINES = [
    ("cvine", [0.395186, 0.517692, 0.447982, 0.541568, 0.550288, 0.326212, 0.305267, 0.634988,
               0.403742, 0.393732, 0.698258, 0.488105, 0.634585, 0.490541, 0.555627]),
    ("dvine", [0.613814, 0.41081, 0.302518, 0.333348, 0.627495, 0.567375, 0.352225, 0.352219,
               0.461363, 0.548146, 0.453012, 0.635334, 0.334296, 0.645995, 0.52807]),
]


def check_vine_recursions(full):
    """The D-/C-vine recursions against their telescoped closed form, one
    alpha on every edge.  The full suite also takes the vines above through
    ``eta_subvine``, whose gradient check must refuse the recursion there,
    against ``eta_numeric`` at 16 starts and maxfev 20000, within 1e-8."""
    dims = range(3, 9)
    alphas = np.arange(0.1, 0.95, 0.1)
    worst = 0.0
    for a in alphas:
        prev = None
        for d in dims:
            dv = eta_dvine(VineSpec.uniform("dvine", d, _ilog(a)))
            cv = eta_cvine(VineSpec.uniform("cvine", d, _ilog(a)))
            closed = eta_dvine_ilog_closed(a, d)
            worst = max(worst, abs(dv - closed), abs(cv - closed))
            if prev is not None and not dv < prev:
                return False, f"eta not decreasing in d at alpha={a}"
            prev = dv
    detail = f"max recursion/closed-form gap {worst:.2e}"
    if not full:
        return worst < 1e-10, detail
    worst_numeric = 0.0
    for structure, alphas in _UNCERTIFIED_VINES:
        spec = VineSpec(6, structure, {e: _ilog(a) for e, a in zip(expected_edges(structure, 6), alphas)})
        res = eta_subvine(spec, range(1, 7))
        if "fallback_reason" not in res.diagnostics:
            return False, f"{structure}: 1/g(1, ..., 1) = {res.eta!r} passed the gradient check"
        ref = eta_numeric(gauge_vine(spec), n_starts=16, maxfev=20000)
        worst_numeric = max(worst_numeric, abs(res.eta - ref.eta))
    ok = worst < 1e-10 and worst_numeric < 1e-8
    return ok, f"{detail}, max uncertified-vine/reference gap {worst_numeric:.2e}"


def check_subvine_route(full):
    """The sub-vine routes against the full gauge, over the pairs (and in
    the full suite the triples) of 4- and 5-d D- and C-vines whose smallest
    sub-vine is proper.  eta_subvine against eta_numeric on the full
    gauge: quick, one alpha on all edges, default budgets, within 1e-6;
    full, one alpha per edge and a reference at 16 starts and maxfev 20000,
    within 1e-8.  And, for the sets that are a sub-vine's nodes,
    gauge_project, the sub-vine's gauge, against the box minimum of the
    full gauge over the dropped coordinates at two points, within 1e-9
    relative."""
    rng = np.random.default_rng(20_150_815)
    budget, tol = ({"n_starts": 16, "maxfev": 20000}, 1e-8) if full else ({}, 1e-6)
    worst, n = 0.0, 0
    worst_proj, n_proj = 0.0, 0
    for structure in ("dvine", "cvine"):
        for d in (4, 5):
            edges = expected_edges(structure, d)
            alphas = rng.uniform(0.05, 0.99, len(edges)) if full else [rng.uniform(0.3, 0.7)] * len(edges)
            spec = VineSpec(d, structure, {e: _ilog(a) for e, a in zip(edges, alphas)})
            g = gauge_vine(spec)
            for C in (c for r in ((2, 3) if full else (2,)) for c in combinations(range(1, d + 1), r)):
                if spec.hull(C) == C:
                    proj = gauge_project(g, C)
                    dropped = [k for k in range(d) if k + 1 not in C]
                    for x in (np.ones(len(C)), np.geomspace(0.25, 2.0, len(C))):
                        lower = np.zeros(d)
                        lower[[c - 1 for c in C]] = x
                        ref = _minimise_gauge(g, lower, dropped).value
                        gap = abs(proj(x) - ref) / ref
                        n_proj += 1
                        if not gap <= 1e-9:
                            return False, f"{structure} d={d} keep={C} at {x}: projection/box-minimum gap {gap:.2e}"
                        worst_proj = max(worst_proj, gap)
                res = eta_subvine(spec, C)
                if "marginal" not in res.diagnostics:
                    continue  # the hull is the whole vine: eta_numeric itself
                if "fallback_reason" in res.diagnostics:
                    return False, f"{structure} d={d} C={C}: {res.diagnostics['fallback_reason']}"
                gap = abs(res.eta - eta_numeric(g, C, **budget).eta)
                n += 1
                if gap > tol:
                    return False, f"{structure} d={d} C={C}: sub-vine/full-gauge gap {gap:.2e}"
                worst = max(worst, gap)
    return True, (f"{n} sets, max sub-vine/full-gauge gap {worst:.2e}; {n_proj} projections, "
                  f"max relative projection/box-minimum gap {worst_proj:.2e}")


def check_mixed_cases(full):
    """The mixed trivariate closed forms of eta_123 within 1e-6, eta_13 of
    eie above its eta_123, and both routes on every pattern with an EV edge:
    at C = 123 and 13, eta_numeric against eta_mixed_trivariate within 1e-8."""
    grid = np.arange(0.1, 0.95, 0.2) if full else np.array([0.3, 0.7])
    worst = worst_routes = 0.0
    for a in grid:
        for b in grid:
            closed = {"iie": min(2.0**-a, 2.0**-b), "eii": 2.0**-b, "eie": 2.0**-b, "eei": 1.0, "eee": 1.0}
            for fams in ("iie", "iei", "iee", "eii", "eie", "eei", "eee"):
                spec = VineSpec.trivariate(*((_log if f == "e" else _ilog)(x) for f, x in zip(fams, (a, b, 0.5))))
                g = gauge_vine(spec)
                (r123, n123), (r13, n13) = ((eta_mixed_trivariate(spec, C).eta, eta_numeric(g, C).eta)
                                            for C in ((1, 2, 3), (1, 3)))
                worst_routes = max(worst_routes, abs(n123 - r123), abs(n13 - r13))
                if fams in closed:
                    worst = max(worst, abs(r123 - closed[fams]), abs(n123 - closed[fams]) if fams == "iie" else 0.0)
                if fams == "eie" and not r13 > 2.0**-b:
                    return False, f"eie-pattern eta13 not above eta123 at ({a},{b})"
    ok = worst < 1e-6 and worst_routes < 1e-8
    return ok, f"max closed-form gap {worst:.2e}, max numeric/closed-or-root gap {worst_routes:.2e}"


def check_outer_minimum(full):
    """Both routes of a box minimum over x1 or x3 of the patterns with an EV
    edge: the middle search's closed minimum at fixed x2 (``_minimise_gauge``)
    against the Brent panels (``_panels``) on the same box, over seeded
    lower bounds in [0.05, 2], some zero.  Never above the panels, to 4 eps
    relative (where the minimum is flat the panels can read a few ulps low),
    and within 1e-7 relative of them."""
    rng = np.random.default_rng(20_270)
    worst_above = worst_gap = 0.0
    for fams in ("iie", "iei", "iee", "eii", "eie", "eei", "eee"):
        for _ in range(8):
            g = gauge_vine(VineSpec.trivariate(*((_log if f == "e" else _ilog)(a)
                                                 for f, a in zip(fams, rng.uniform(0.3, 0.7, 3)))))
            scalar = g.scalar_evaluator()
            for j in (0, 2):
                lower = rng.uniform(0.05, 2.0, 3)
                lower[j] = 0.0
                if rng.random() < 0.3:
                    lower[2 - j] = 0.0
                found = _minimise_gauge(g, lower, [j])
                xs = lower.tolist()

                def f(t, xs=xs, j=j):
                    xs[j] = t
                    return float(scalar(*xs))

                hi = max(10.0 * max(lower), 1.05 * found.corner_value)
                panels = _panels(f, 0.0, hi, 8, 0.0, found.corner_value)[1]
                worst_above = max(worst_above, (found.value - panels) / panels)
                worst_gap = max(worst_gap, abs(found.value - panels) / panels)
    ok = worst_above <= 4.0 * np.finfo(float).eps and worst_gap <= 1e-7
    return ok, f"closed outer minimum above the panels by {worst_above:.1e}, max relative gap {worst_gap:.2e}"


def check_contours(full):
    specs = [
        independence_gauge(),
        gaussian_gauge(0.5),
        gauge_vine(VineSpec.trivariate(_ilog(0.5), _ilog(0.25), _log(0.5))),
        gauge_vine(VineSpec.uniform("dvine", 4, _ilog(0.4))),
    ]
    worst = 0.0
    for g in specs:
        b = boundary_point(g, simplex_directions(64, g.dim))
        worst = max(worst, float(np.max(np.abs(g(b) - 1.0))))
    return worst < 1e-10, f"max |g(boundary) - 1| = {worst:.2e}"


def check_structural(full):
    rng = np.random.default_rng(42)
    worst = 0.0
    # order -1/-2/-3 homogeneity of measure derivatives
    m = Logistic(0.35)
    for _ in range(50):
        x, y, t = rng.uniform(0.1, 10.0, 3)
        worst = max(worst, abs(m.V(t * x, t * y) - m.V(x, y) / t) / abs(m.V(x, y) / t))
        worst = max(worst, abs(m.V1(t * x, t * y) - m.V1(x, y) / t**2) / abs(m.V1(x, y) / t**2))
        worst = max(worst, abs(m.V12(t * x, t * y) - m.V12(x, y) / t**3) / abs(m.V12(x, y) / t**3))
    ok_hom = worst < 1e-10
    # order-1 homogeneity of the gauges
    g = gauge_vine(VineSpec.trivariate(_ilog(0.5), _ilog(0.25), _log(0.5)))
    worst_g = 0.0
    for _ in range(100):
        x = rng.uniform(0.05, 3.0, 3)
        t = rng.uniform(0.1, 10.0)
        worst_g = max(worst_g, abs(float(g(t * x)) - t * float(g(x))) / (t * float(g(x))))
    ok_g = worst_g < 1e-10
    # h-function inversion roundtrip
    pc = _ilog(0.5)
    u = rng.random(500)
    v = rng.uniform(0.02, 0.98, 500)
    rt = float(np.max(np.abs(pc.hinv(pc.hfunc(u, v), v) - u)))
    ok_rt = rt < 1e-9
    # analytic derivatives vs central finite differences
    h = 1e-6
    worst_fd = 0.0
    for _ in range(30):
        x, y = rng.uniform(0.3, 3.0, 2)
        fd1 = (m.V(x + h, y) - m.V(x - h, y)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd1 - m.V1(x, y)) / abs(m.V1(x, y)))
    ok_fd = worst_fd < 1e-6
    # branch agreement of the patterns with an EV tree-1 edge, where a side
    # switches: the two forms, a single ulp either side of the tie, coincide
    worst_edge = 0.0
    for spec in [
        VineSpec.trivariate(_log(0.5), _ilog(0.25), _ilog(0.5)),
        VineSpec.trivariate(_log(0.5), _ilog(0.25), _log(0.5)),
        VineSpec.trivariate(_log(0.5), _log(0.25), _ilog(0.5)),
        VineSpec.trivariate(_log(0.5), _log(0.25), _log(0.5)),
        VineSpec.trivariate(_ilog(0.5), _log(0.25), _ilog(0.5)),
        VineSpec.trivariate(_ilog(0.5), _log(0.25), _log(0.5)),
    ]:
        gg = gauge_vine(spec)
        for _ in range(50):
            x2, x3 = rng.uniform(0.1, 2.0, 2)
            for point in ([x2, x2, x3], [x3, x2, x2]):
                mid = float(gg(np.array(point)))
                for k in (0, 2):
                    nudged = list(point)
                    for direction in (-np.inf, np.inf):
                        nudged[k] = np.nextafter(point[k], direction)
                        worst_edge = max(worst_edge, abs(float(gg(np.array(nudged))) - mid))
                    nudged[k] = point[k]
    ok_edge = worst_edge < 1e-12
    ok = ok_hom and ok_g and ok_rt and ok_fd and ok_edge
    return ok, (
        f"homog {worst:.1e}/{worst_g:.1e}, roundtrip {rt:.1e}, "
        f"fin-diff {worst_fd:.1e}, branch continuity {worst_edge:.1e}"
    )


def check_mc_eta(full):
    spec = VineSpec.trivariate(_ilog(0.5), _ilog(0.5), _ilog(0.5))
    cloud = sample_vine(spec, 500_000, seed=20_240_501)
    u = threshold_at(cloud, (1, 2, 3), 95)
    est = eta_hat(cloud, (1, 2, 3), u)
    gap123 = abs(est.estimate - eta_trivariate_ilog_closed(0.5, 0.5, 0.5))
    u13 = threshold_at(cloud, (1, 3), 95)
    est13 = eta_hat(cloud, (1, 3), u13)
    gap13 = abs(est13.estimate - eta13_trivariate_ilog(0.5, 0.5, 0.5).eta)
    ok = gap123 < 0.05 and gap13 < 0.05
    return ok, f"|eta123_hat - closed| = {gap123:.4f}, |eta13_hat - root| = {gap13:.4f}"


def check_coverage(full):
    targets = [
        (independence_gauge(), VineSpec(2, "dvine", {"12": _ilog(1.0)})),
        (inverted_ev_gauge(Logistic(0.5)), VineSpec(2, "dvine", {"12": _ilog(0.5)})),
        (
            gauge_vine(VineSpec.trivariate(_ilog(0.5), _ilog(0.5), _ilog(0.5))),
            VineSpec.trivariate(_ilog(0.5), _ilog(0.5), _ilog(0.5)),
        ),
    ]
    worst = 1.0
    for g, spec in targets:
        cloud = scale_cloud(sample_vine(spec, 100_000, seed=7))
        worst = min(worst, cloud_coverage(cloud, g, 0.15))
    return worst >= 0.99, f"min coverage at slack 0.15: {worst:.4f}"


_QUICK = [
    ("bivariate-gallery", check_bivariate_gallery),
    ("trivariate-oracle", check_trivariate_oracle),
    ("eta13-root-vs-closed", check_eta13_root),
    ("vine-recursions", check_vine_recursions),
    ("subvine-route", check_subvine_route),
    ("mixed-trivariate", check_mixed_cases),
    ("contour-unit-level", check_contours),
    ("structural-invariants", check_structural),
]

_FULL_ONLY = [
    ("mc-eta-crosscheck", check_mc_eta),
    ("cloud-coverage", check_coverage),
    ("outer-minimum-vs-panels", check_outer_minimum),
]


def run_suite(suite: str = "quick") -> list[CheckResult]:
    if suite not in SUITES:
        raise DomainError(f"suite must be one of {SUITES}, got {suite!r}")
    full = suite == "full"
    checks = _QUICK + (_FULL_ONLY if full else [])
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            passed, detail = fn(full)
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, bool(passed), time.perf_counter() - start, detail))
    return results
