"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import tracer as tr  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# Program defects the checks found, with one input each.  The generator keeps
# out of the input domain of each (bench/README.md, "Input domain"), so that
# every benchmark op passes its checks; these tests keep the defects on
# record and start failing, as unexpected passes, once one is fixed.
CVINE_ALPHAS = [0.395186, 0.517692, 0.447982, 0.541568, 0.550288, 0.326212, 0.305267, 0.634988,
                0.403742, 0.393732, 0.698258, 0.488105, 0.634585, 0.490541, 0.555627]
DVINE_ALPHAS = [0.613814, 0.41081, 0.302518, 0.333348, 0.627495, 0.567375, 0.352225, 0.352219,
                0.461363, 0.548146, 0.453012, 0.635334, 0.334296, 0.645995, 0.52807]
DEFECTS = {
    "eta_cvine understates eta for a C-vine with unequal alphas":
        ("cvine", CVINE_ALPHAS, None),
    "eta_dvine understates eta for a D-vine with unequal alphas":
        ("dvine6", DVINE_ALPHAS, None),
    "eta_numeric at its default budget stops short of eta_13 = 1 of the all-EV trivariate vine":
        ("eee", [0.516893, 0.642191, 0.417231], None),
    "gauge_project does not stabilise on a 4-d D-vine pair that is not a tree-1 pair":
        ("dvine", [0.56426, 0.520418, 0.641805, 0.321789, 0.530049, 0.538621], ((2, 4), [0.372367, 0.707567])),
    "gauge_project does not stabilise on a 4-d D-vine tree-1 pair":
        ("dvine", [0.66628, 0.435393, 0.472873, 0.671552, 0.60109, 0.458283], ((1, 2), [1.678018, 0.051226])),
}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload):
    assert inputs.round_inputs(workload, 7, 0) == inputs.round_inputs(workload, 7, 0)
    assert inputs.round_inputs(workload, 7, 3) == inputs.round_inputs(workload, 7, 3)
    assert inputs.round_inputs(workload, 7, 0) != inputs.round_inputs(workload, 8, 0)
    assert inputs.round_inputs(workload, 7, 0) != inputs.round_inputs(workload, 7, 1)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_round_composition_does_not_depend_on_the_seed(workload):
    def shape(ops):
        # what an op does, without its seeded parameters: builtin parameters,
        # and the vine query set that rotates by design
        out = []
        for op in ops:
            spec = op.get("spec", {})
            doc = json.dumps({"argv": op.get("argv"), "keep": op.get("keep"),
                              "structure": spec.get("structure"), "d": spec.get("d")})
            out.append(re.sub(r'"\d+,\d+"|:\d\.\d+', "P", doc))
        return sorted(out)

    base = shape(inputs.round_inputs(workload, 1, 0))
    for seed, round_ in ((2, 0), (3, 4), (4, 2)):  # mc-validate alternates its 5-d vine
        assert shape(inputs.round_inputs(workload, seed, round_)) == base


def test_vine_set_kinds_balance_over_three_rounds():
    kinds = {}
    for round_ in range(3):
        for op in inputs.eta_round(5, round_):
            argv, spec = op["argv"], op["spec"]
            if spec["structure"] != "trivariate" and "--set" in argv:
                C = argv[argv.index("--set") + 1]
                kinds.setdefault((spec["structure"], spec["d"]), []).append(
                    "13" if C == "1,3" else "1d" if C == f"1,{spec['d']}" else "pair")
    for (structure, d), got in kinds.items():
        assert len(got) == 3
        if structure == "dvine":
            assert sorted(got) == ["13", "1d", "pair"]


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past its parent); a has a child d [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tr.self_times(start, end, parent) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_tracer_records_only_inside_ops():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = t.wrap(inner, "layer.inner", after=lambda tt, args, res: tt.count("layer.points", args[0]))
    traced_outer = t.wrap(outer, "layer.outer")
    assert traced_outer(1) == 4  # outside an op: nothing recorded
    assert len(t.start) == 0 and not t.counters
    root = t.begin_op(0)
    assert traced_outer(2) == 6
    t.end_op(root)
    s = tr.summarise(t)
    assert s["n_spans"] == 3
    assert s["nested"] == {("layer.outer", tr.ROOT): 1, ("layer.inner", "layer.outer"): 1}
    # clock ticks: root 0..5, outer 1..4, inner 2..3
    assert s["spans"]["layer.outer"]["self_s"] == 2.0
    assert s["spans"]["layer.inner"]["self_s"] == 1.0
    assert s["spans"][tr.ROOT]["self_s"] == 2.0
    assert t.counters["layer.points"] == 2


def test_patches_are_undone():
    import types

    mod = types.ModuleType("m")

    def f():
        return 1

    mod.f = f
    t = tr.Tracer()
    t.patch_function([mod], f, "m.f")
    assert mod.f is not f
    t.uninstall()
    assert mod.f is f


def _run(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_emits_declared_metrics_and_passes_checks(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # --seconds 0 runs the minimum of two rounds
    assert result["attempted"] == sum(len(inputs.round_inputs(workload, 1, r)) for r in range(2))
    failures = [line[5:] for line in lines if line.startswith("FAIL ")]
    assert failures == []
    assert result["correct"] is True and result["failed"] == 0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if workload != "mc-validate":
            assert metrics["copulas.hinv.calls"] == 0
        if workload != "eta-solve":
            assert metrics["eta.numeric.gauge_evals"] == 0
            assert metrics["gauges.scalar.evals"] == 0
        else:
            assert metrics["eta.numeric.gauge_evals"] == metrics["gauges.scalar.evals"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "inputs.py", "tracer.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "geometry", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_stays_out_of_the_defect_domains():
    for seed in range(20):
        for round_ in range(3):
            for op in inputs.eta_round(seed, round_) + inputs.mc_round(seed, round_):
                spec = op["spec"]
                if spec["structure"] != "trivariate":
                    assert len(set(spec["alphas"])) == 1
            for op in inputs.geometry_round(seed, round_):
                if "keep" in op:  # gauge_project takes its Brent path only
                    assert len(op["keep"]) == op["spec"]["d"] - 1


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.xfail(strict=True, reason="program defect; see bench/README.md")
def test_known_program_defect_is_fixed(defect):
    import numpy as np
    from vinetail import eta, gauges

    import workloads

    kind, alphas, project = DEFECTS[defect]
    if kind in ("cvine", "dvine6"):
        structure = kind[:5]
        spec = workloads.build_spec({"structure": structure, "d": 6, "families": ["iev"] * 15, "alphas": alphas})
        closed = (eta.eta_cvine if structure == "cvine" else eta.eta_dvine)(spec)
        numeric = eta.eta_numeric(workloads.spec_gauge(spec), **workloads.REF_BUDGET).eta
        assert abs(closed - numeric) <= workloads.ETA_TOL
    elif kind == "eee":
        spec = workloads.build_spec({"structure": "trivariate", "d": 3, "families": ["ev"] * 3, "alphas": alphas})
        assert abs(eta.eta_numeric(gauges.gauge_trivariate(spec), (1, 3)).eta - 1.0) <= workloads.ETA_TOL
    else:
        spec = workloads.build_spec({"structure": "dvine", "d": 4, "families": ["iev"] * 6, "alphas": alphas})
        keep, point = project
        gauges.gauge_project(gauges.gauge_dvine(spec), keep)(np.array(point))
