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
    asymmetric_logistic_gauge,
    bev_gauge,
    boundary_point,
    gauge_cvine,
    gauge_dvine,
    gauge_trivariate,
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
                res = eta_numeric(gauge_trivariate(spec))
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


def check_vine_recursions(full):
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
    return worst < 1e-10, f"max recursion/closed-form gap {worst:.2e}"


def check_subvine_route(full):
    """eta_subvine against eta_numeric on the full gauge, over the pairs
    (and in the full suite the triples) of 4- and 5-d D- and C-vines whose
    smallest sub-vine is proper.  Quick: one alpha on all edges, default
    budgets, within 1e-6.  Full: one alpha per edge and a reference at 16
    starts and maxfev 20000, within 1e-8."""
    rng = np.random.default_rng(20_150_815)
    budget, tol = ({"n_starts": 16, "maxfev": 20000}, 1e-8) if full else ({}, 1e-6)
    worst, n = 0.0, 0
    for structure, build in (("dvine", gauge_dvine), ("cvine", gauge_cvine)):
        for d in (4, 5):
            edges = expected_edges(structure, d)
            alphas = rng.uniform(0.05, 0.99, len(edges)) if full else [rng.uniform(0.3, 0.7)] * len(edges)
            spec = VineSpec(d, structure, {e: _ilog(a) for e, a in zip(edges, alphas)})
            g = build(spec)
            for C in (c for r in ((2, 3) if full else (2,)) for c in combinations(range(1, d + 1), r)):
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
    return True, f"{n} sets, max sub-vine/full-gauge gap {worst:.2e}"


def check_mixed_cases(full):
    grid = np.arange(0.1, 0.95, 0.2) if full else np.array([0.3, 0.7])
    worst = 0.0
    for a in grid:
        for b in grid:
            g_ = 0.5
            s_iie = VineSpec.trivariate(_ilog(a), _ilog(b), _log(g_))
            s_eii = VineSpec.trivariate(_log(a), _ilog(b), _ilog(g_))
            s_eie = VineSpec.trivariate(_log(a), _ilog(b), _log(g_))
            s_eei = VineSpec.trivariate(_log(a), _log(b), _ilog(g_))
            s_eee = VineSpec.trivariate(_log(a), _log(b), _log(g_))
            worst = max(worst, abs(eta_mixed_trivariate(s_iie, (1, 2, 3)).eta - min(2.0**-a, 2.0**-b)))
            worst = max(worst, abs(eta_mixed_trivariate(s_eii, (1, 2, 3)).eta - 2.0**-b))
            worst = max(worst, abs(eta_mixed_trivariate(s_eie, (1, 2, 3)).eta - 2.0**-b))
            worst = max(worst, abs(eta_mixed_trivariate(s_eei, (1, 2, 3)).eta - 1.0))
            worst = max(worst, abs(eta_mixed_trivariate(s_eee, (1, 2, 3)).eta - 1.0))
            r13 = eta_mixed_trivariate(s_eie, (1, 3))
            if not r13.eta > 2.0**-b:
                return False, f"eie-pattern eta13 not above eta123 at ({a},{b})"
            worst = max(worst, abs(eta_numeric(gauge_trivariate(s_iie)).eta - min(2.0**-a, 2.0**-b)))
    return worst < 1e-6, f"max closed-form gap {worst:.2e}"


def check_contours(full):
    specs = [
        independence_gauge(),
        gaussian_gauge(0.5),
        gauge_trivariate(VineSpec.trivariate(_ilog(0.5), _ilog(0.25), _log(0.5))),
        gauge_dvine(VineSpec.uniform("dvine", 4, _ilog(0.4))),
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
    g = gauge_trivariate(VineSpec.trivariate(_ilog(0.5), _ilog(0.25), _log(0.5)))
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
        gg = gauge_trivariate(spec)
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
            gauge_trivariate(VineSpec.trivariate(_ilog(0.5), _ilog(0.5), _ilog(0.5))),
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
