"""Seeded input generators for the benchmark workloads.

Standard library only, so that generating inputs never imports the program.
Every workload runs in rounds; round r of a workload is a list of plain-data
op descriptions drawn from ``random.Random("<workload>/<seed>/<r>")`` (string
seeds hash with SHA-512, so the stream is the same on every platform and
interpreter run).  The composition of a round is fixed; the seed only moves
parameters, points and (except in mc-validate) the order of ops, so that runs with different seeds
cost about the same and their latency quantiles fall inside the same groups
of ops.

A spec description is ``{"structure", "d", "families", "alphas"}`` with one
family ("iev" or "ev") and one logistic alpha per edge, in the tree order of
``vinetail.vines.expected_edges``.
"""

from __future__ import annotations

import random

WORKLOADS = ("eta-solve", "mc-validate", "geometry")

# families of the edges (12, 23, 13|2): i = inverted extreme value, e = extreme
# value; "iei" and "iee" are the mirrored patterns the program relabels
PATTERNS = ("iii", "iie", "eii", "eie", "eei", "eee", "iei", "iee")
ALPHA_RANGE = (0.3, 0.7)
VINE_DIMS = (4, 5, 6)
# rows per cloud: every op runs about a million h-inversions (rows x edges),
# so mc-validate ops cost about the same; 1e5 is also the smallest n at which
# the acceptance-suite eta_hat tolerance holds with a wide margin on the 5-d
# vines, while a trivariate `iei` cloud of 1e5 rows missed it by 0.02 (its
# eta_hat is biased by about +0.03 at the 95th percentile)
MC_ROWS = {3: 300_000, 5: 100_000}
MC_PERCENTILE = 95.0
CONTOUR_RESOLUTION = 64
POINT_RANGE = (0.05, 2.0)
TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def _rng(workload: str, seed: int, round_: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_}")


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def trivariate(pattern: str, rng: random.Random) -> dict:
    return {
        "structure": "trivariate",
        "d": 3,
        "families": ["iev" if f == "i" else "ev" for f in pattern],
        "alphas": [_draw(rng, *ALPHA_RANGE) for _ in range(3)],
    }


def iev_vine(structure: str, d: int, rng: random.Random, one_alpha: bool = False) -> dict:
    """An all-IEV vine with one alpha per edge, or with one alpha on all its
    edges: the case in which the closed recursions ``eta_dvine`` and
    ``eta_cvine`` are exact (see "Input domain" in README.md)."""
    n_edges = d * (d - 1) // 2
    if one_alpha:
        alphas = [_draw(rng, *ALPHA_RANGE)] * n_edges
    else:
        alphas = [_draw(rng, *ALPHA_RANGE) for _ in range(n_edges)]
    return {
        "structure": structure,
        "d": d,
        "families": ["iev"] * n_edges,
        "alphas": alphas,
    }


def tree1_pair(structure: str, d: int, rng: random.Random) -> tuple:
    if structure == "cvine":
        return (1, rng.randrange(2, d + 1))
    i = rng.randrange(1, d)
    return (i, i + 1)


def _set_arg(C) -> str:
    return ",".join(str(c) for c in C)


def eta_round(seed: int, round_: int) -> list[dict]:
    """`vinetail eta` queries: 31 per round.

    Trivariate: every family pattern with C = 123 and C = 13 (closed and
    root routes), one tree-1 pair each for 12 and 23, and one forced
    ``--method numeric``.  D- and C-vines at d = 4..6, with one alpha on all
    edges: full C (closed recursion) and one two-element C each (numeric
    route); the kind of that set ({1,3}, {1,d}, a tree-1 pair) rotates with
    the round from a seeded offset, so every three rounds hold each kind
    once per (structure, d).
    """
    rng = _rng("eta-solve", seed, round_)
    ops = []
    for pattern in PATTERNS:
        spec = trivariate(pattern, rng)
        ops.append({"spec": spec, "argv": ["eta", "--set", "123"]})
        ops.append({"spec": spec, "argv": ["eta", "--set", "13"]})
    for pattern, pair in zip(rng.sample(PATTERNS, 2), ("12", "23")):
        ops.append({"spec": trivariate(pattern, rng), "argv": ["eta", "--set", pair]})
    ops.append({"spec": trivariate(rng.choice(PATTERNS), rng),
                "argv": ["eta", "--set", "123", "--method", "numeric"]})
    shift = round_ + random.Random(f"eta-solve/{seed}").randrange(3)
    for structure in ("dvine", "cvine"):
        for k, d in enumerate(VINE_DIMS):
            spec = iev_vine(structure, d, rng, one_alpha=True)
            ops.append({"spec": spec, "argv": ["eta"]})
            kind = (k + shift) % 3
            C = [(1, 3), (1, d), tree1_pair(structure, d, rng)][kind]
            ops.append({"spec": spec, "argv": ["eta", "--set", _set_arg(C)]})
    rng.shuffle(ops)
    return ops


def mc_round(seed: int, round_: int) -> list[dict]:
    """One sampled cloud per op: 4 ops per round.

    An all-IEV trivariate vine, the mixed pattern with EV on edge 12 and its
    x1 <-> x3 mirror, and an all-IEV 5-d vine with one alpha on all edges:
    a D-vine in even rounds (its round-0 cloud is also written as CSV, the
    CLI default) and a C-vine in odd ones.  Three ops of one kind per round
    keep the median op inside one group of similar ops.
    """
    rng = _rng("mc-validate", seed, round_)
    specs = [trivariate("iii", rng), trivariate("eii", rng), trivariate("iei", rng),
             iev_vine("dvine" if round_ % 2 == 0 else "cvine", 5, rng, one_alpha=True)]
    # a fixed order: the peak memory of a run depends on the order of its clouds
    return [{"spec": s, "n": MC_ROWS[s["d"]], "sample_seed": rng.randrange(2**32),
             "percentile": MC_PERCENTILE, "csv": round_ == 0 and s["structure"] == "dvine"}
            for s in specs]


def geometry_round(seed: int, round_: int) -> list[dict]:
    """Contour meshes and gauge projections: 16 ops per round.

    Five builtin contours, three trivariate-spec contours and one 4-d D-vine
    contour through `vinetail contour`; projections of an all-IEV trivariate
    vine onto its three pairs, and of an all-IEV 4-d D-vine onto its four
    triples, each at one seeded point.  Every projection drops one
    coordinate: projections that drop two can raise (see "Input domain" in
    README.md).
    """
    rng = _rng("geometry", seed, round_)
    res = ["--resolution", str(CONTOUR_RESOLUTION)]
    ops = []
    for name in ("gaussian", "ilog", "logistic", "alog"):
        param = _draw(rng, 0.1, 0.9)
        ops.append({"builtin": [name, param], "argv": ["contour", "--builtin", f"{name}:{param!r}"] + res})
    ops.append({"builtin": ["independence", None], "argv": ["contour", "--builtin", "independence"] + res})
    for pattern in rng.sample(PATTERNS, 3):
        ops.append({"spec": trivariate(pattern, rng), "argv": ["contour"] + res})
    ops.append({"spec": iev_vine("dvine", 4, rng), "argv": ["contour"] + res})
    tri = trivariate("iii", rng)
    dv4 = iev_vine("dvine", 4, rng)
    for spec, keeps in ((tri, [(1, 2), (2, 3), (1, 3)]), (dv4, TRIPLES)):
        for keep in keeps:
            point = [_draw(rng, *POINT_RANGE) for _ in keep]
            ops.append({"spec": spec, "keep": list(keep), "point": point})
    rng.shuffle(ops)
    return ops


ROUNDS = {"eta-solve": eta_round, "mc-validate": mc_round, "geometry": geometry_round}


def round_inputs(workload: str, seed: int, round_: int) -> list[dict]:
    return ROUNDS[workload](seed, round_)
