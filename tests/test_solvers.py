"""The Nelder-Mead, bounded Brent and bisection solvers run on Python floats.

Each repeats scipy's solver step for step, so on inputs without tied simplex
values they return scipy's point, value and evaluation count bit for bit.
scipy is a test dependency only: importing the package must not load it.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import optimize

from vinetail.errors import ConvergenceError
from vinetail.eta import _bisect
from vinetail.gauges import _fminbound, _nelder_mead

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# bounded Brent
# ---------------------------------------------------------------------------

@st.composite
def scalar_problems(draw):
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(1e-3, 20.0))
    c = draw(st.floats(lo - 2.0, hi + 2.0))
    s = draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["quadratic", "quartic", "kink", "ridge"]))
    f = {
        "quadratic": lambda t: s * (t - c) ** 2,
        "quartic": lambda t: (t - c) ** 4 - s * (t - c) ** 2,
        "kink": lambda t: abs(t - c) + s * max(0.0, t - c),
        "ridge": lambda t: max(s * (t - c), c - t, -1.0),
    }[kind]
    xatol = draw(st.sampled_from([1e-10, 1e-5, 1e-2]))
    return f, lo, hi, xatol


@given(scalar_problems())
def test_fminbound_matches_scipy(problem):
    f, lo, hi, xatol = problem
    ref = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, fx, nfev = _fminbound(f, lo, hi, xatol)
    assert (x, fx, nfev) == (float(ref.x), float(ref.fun), ref.nfev)


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

@st.composite
def root_problems(draw):
    # at xtol = 1e-300 the relative tolerance 4 eps |x| decides; the bracket
    # then stays away from zero, where it could never be met
    xtol = draw(st.sampled_from([1e-12, 1e-8, 1e-3, 1e-300]))
    a = draw(st.floats(1.0, 5.0) if xtol == 1e-300 else st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-3, 20.0))
    root = a + (b - a) * draw(st.floats(0.05, 0.95))  # inside, so f changes sign
    s = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 10.0))
    kind = draw(st.sampled_from(["line", "cubic", "tanh", "step"]))
    f = {
        "line": lambda t: s * (t - root),
        "cubic": lambda t: s * ((t - root) ** 3 + (t - root)),
        "tanh": lambda t: math.tanh(s * (t - root)),
        "step": lambda t: s if t > root else -s,
    }[kind]
    return f, a, b, xtol


@given(root_problems())
def test_bisect_matches_scipy(problem):
    f, a, b, xtol = problem
    assert _bisect(f, a, b, xtol=xtol) == optimize.bisect(f, a, b, xtol=xtol, maxiter=200)


def test_bisect_without_sign_change_raises_typed_error():
    with pytest.raises(ConvergenceError) as info:
        _bisect(lambda t: t * t + 1.0, -1.0, 1.0)
    assert info.value.diagnostics == {"a": -1.0, "b": 1.0, "f(a)": 2.0, "f(b)": 2.0}


def test_bisect_out_of_halvings_raises_typed_error():
    with pytest.raises(ConvergenceError) as info:
        _bisect(lambda t: t - 0.3, 0.0, 1.0, maxiter=5)
    d = info.value.diagnostics
    assert d["maxiter"] == 5 and d["step"] == 2.0**-5 and 0.0 <= 0.3 - d["x"] < d["step"]


def test_bisect_nan_raises_typed_error():
    with pytest.raises(ConvergenceError):
        _bisect(lambda t: math.nan if 0.0 < t < 1.0 else t - 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bounded Nelder-Mead
# ---------------------------------------------------------------------------

@st.composite
def simplex_problems(draw):
    n = draw(st.integers(2, 6))
    lower = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    # the minimum lies inside the box, so every coordinate can settle
    centre = [lo + draw(st.floats(0.05, 4.0)) for lo in lower]
    weights = [1.0 + k + draw(st.floats(0.0, 0.9)) for k in range(n)]
    kinked = draw(st.booleans())
    start = [lo + draw(st.floats(0.01, 6.0)) for lo in lower]
    sim = [start] + [start[:k] + [1.05 * start[k]] + start[k + 1:] for k in range(n)]
    maxfev = draw(st.integers(n + 1, 600))
    return weights, centre, kinked, lower, sim, maxfev


@given(simplex_problems())
def test_nelder_mead_matches_scipy(problem):
    weights, centre, kinked, lower, sim, maxfev = problem
    seen = []

    def f(x):
        # separable, quadratic or kinked (which makes the simplex shrink);
        # summed in a loop: sum() of floats is compensated from Python 3.12 on
        val = 0.0
        for w, v, c in zip(weights, x, centre):
            val += w * abs(v - c) if kinked else w * (v - c) * (v - c)
        seen.append(val)
        return val

    x, fx, nfev = _nelder_mead(f, sim, lower, maxfev)
    # scipy orders tied vertices by numpy's argsort, which differs by CPU
    assume(len(set(seen)) == len(seen))
    ref = optimize.minimize(
        f, sim[0], method="Nelder-Mead", bounds=optimize.Bounds(lower, np.inf),
        options={"xatol": 1e-6, "fatol": 1e-10, "maxfev": maxfev, "maxiter": maxfev,
                 "initial_simplex": np.array(sim)},
    )
    assert (x, fx, nfev) == (ref.x.tolist(), float(ref.fun), ref.nfev)


def test_nelder_mead_keeps_tied_vertices_in_input_order():
    def f(x):
        return (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2

    tied = [[1.0, 2.0], [2.0, 1.0]]
    for sim in (tied + [[3.0, 3.0]], tied[::-1] + [[3.0, 3.0]], [[3.0, 3.0]] + tied):
        # a budget of n + 1 evaluations only orders the starting simplex
        x, fx, nfev = _nelder_mead(f, sim, [0.0, 0.0], 3)
        assert (x, fx, nfev) == ([v for v in sim if v != [3.0, 3.0]][0], 1.0, 3)


def test_nelder_mead_ties_during_the_solve():
    # scipy's results under a stable argsort, for every budget.  On the
    # plateau the contraction to 0 ties with the best vertex 0.5 and goes
    # after it, and from a budget of 6 on a shrink runs out of evaluations
    # part-way.  On the steps a contraction that ties with its reflection
    # is taken, so the solve stops after 4 evaluations.
    def plateau(x):
        return max(x[0], 1.0)

    def steps(x):
        return math.floor(4.0 * abs(x[0] - 0.5)) / 4.0

    for maxfev in range(2, 12):
        assert _nelder_mead(plateau, [[0.5], [3.0]], [0.0], maxfev) == ([0.5], 1.0, maxfev)
        assert _nelder_mead(steps, [[0.0], [2.0]], [0.0], maxfev) == ([0.0], 0.5, min(maxfev, 4))


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, vinetail, vinetail.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
