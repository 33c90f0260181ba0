import hashlib
import json

import numpy as np
import pytest

from vinetail import (
    Logistic,
    PairCopula,
    VineSpec,
    asymmetric_logistic_gauge,
    bev_gauge_from_measure,
    eta13_trivariate_ilog,
    eta_numeric,
    gauge_cvine,
    gauge_dvine,
    gauge_trivariate,
    gaussian_gauge,
    independence_gauge,
    inverted_ev_gauge,
    simplex_directions,
)
from vinetail.cli import build_parser, main
from vinetail.vines import expected_edges

from test_eta import UNCERTIFIED_VINES, ZERO_DENOMINATOR_VINES, zero_denominator_spec


@pytest.fixture
def ilog_spec(tmp_path):
    spec = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3)
    path = tmp_path / "ilog.json"
    path.write_text(spec.to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_eta_spec_closed(capsys, ilog_spec):
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "123")
    assert code == 0
    doc = json.loads(out)
    assert doc["eta"] == pytest.approx(0.6306019374818707, abs=1e-9)
    assert doc["method"] == "closed"
    assert doc["argmin"] == [1.0, 1.0, 1.0]


def test_eta_set_13_uses_root(capsys, ilog_spec):
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed"  # alpha = beta closed form
    assert doc["eta"] == pytest.approx(0.7395, abs=1e-4)


@pytest.mark.parametrize("subset", ["1", "11"])
def test_eta_one_variable_set_exits_2(capsys, ilog_spec, subset):
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", subset)
    assert code == 2
    assert "error" in json.loads(out)


def test_eta_builtins(capsys):
    code, out = run(capsys, "eta", "--builtin", "gaussian:0.5")
    assert code == 0 and json.loads(out)["eta"] == 0.75
    code, out = run(capsys, "eta", "--builtin", "ilog:0.5", "--method", "numeric")
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "numeric"
    assert doc["eta"] == pytest.approx(2**-0.5, abs=1e-6)


def test_invalid_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 3, "structure": "trivariate", "edges": [], "oops": 1}')
    code, out = run(capsys, "eta", "--spec", str(bad))
    assert code == 2
    assert "error" in json.loads(out)
    code, _ = run(capsys, "eta", "--spec", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    ("dimension", None, "vine dimension must be an integer, got None"),
    ("dimension", 3.7, "vine dimension must be an integer, got 3.7"),
    ("label", "1.5 2", "edge label '1.5 2'"),
])
def test_malformed_spec_exits_2_with_json_error(capsys, tmp_path, field, value, message):
    doc = VineSpec.trivariate(*[PairCopula("iev", Logistic(0.5))] * 3).to_dict()
    if field == "label":
        doc["edges"][0]["label"] = value
    else:
        doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "eta", "--spec", str(path))
    assert code == 2
    assert message in json.loads(out)["error"]


def test_method_closed_unavailable_exits_3(capsys, tmp_path):
    from vinetail import AsymmetricLogistic

    spec = VineSpec.trivariate(*[PairCopula("iev", AsymmetricLogistic(0.5, 0.2, 0.7))] * 3)
    path = tmp_path / "alog.json"
    path.write_text(spec.to_json())
    code, out = run(capsys, "eta", "--spec", str(path), "--method", "closed")
    assert code == 3
    assert "error" in json.loads(out)


def test_contour_independence(capsys):
    code, out = run(capsys, "contour", "--builtin", "independence", "--resolution", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w1,w2,b1,b2,g_check"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(rows) == 3
    # boundary points on the line b2 = 1 - b1, and exact unit gauge values
    assert np.allclose(rows[:, 2] + rows[:, 3], 1.0)
    assert np.allclose(rows[:, 4], 1.0, atol=1e-10)


def test_contour_mixed_case_contains_boundary_direction(capsys, tmp_path):
    spec = VineSpec.trivariate(
        PairCopula("iev", Logistic(0.5)),
        PairCopula("iev", Logistic(0.5)),
        PairCopula("ev", Logistic(0.5)),
    )
    path = tmp_path / "mixed.json"
    path.write_text(spec.to_json())
    code, out = run(capsys, "contour", "--spec", str(path), "--resolution", "45")
    assert code == 0
    lines = out.strip().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(rows[:, 6], 1.0, atol=1e-10)
    # the direction with x2 = 0 and x1 = x3 maps to the boundary point (1, 0, 1)
    sym = rows[(rows[:, 1] == 0.0) & (rows[:, 0] == rows[:, 2])]
    assert len(sym) >= 1
    assert np.allclose(sym[0, 3:6], [1.0, 0.0, 1.0], atol=1e-12)


def _fam(f, a):
    return PairCopula("iev" if f == "i" else "ev", Logistic(a))


def _vine(structure, d, alphas):
    return VineSpec(d, structure, {e: _fam("i", a) for e, a in zip(expected_edges(structure, d), alphas)})


CONTOUR_SOURCES = [
    ("independence", independence_gauge()),
    ("gaussian:0.5", gaussian_gauge(0.5)),
    ("ilog:0.3", inverted_ev_gauge(Logistic(0.3))),
    ("logistic:0.4", bev_gauge_from_measure(Logistic(0.4))),
    ("alog:0.6", asymmetric_logistic_gauge(0.6)),
    *[(spec, gauge_trivariate(spec)) for spec in (
        VineSpec.trivariate(_fam(f12, 0.5), _fam(f23, 0.25), _fam(f13, 0.7))
        for f12 in "ie" for f23 in "ie" for f13 in "ie")],
    *[(spec, build(spec)) for spec, build in ((_vine("dvine", 4, [0.3, 0.5, 0.7, 0.4, 0.6, 0.2]), gauge_dvine),
                                              (_vine("cvine", 4, [0.3, 0.5, 0.7, 0.4, 0.6, 0.2]), gauge_cvine))],
]


@pytest.mark.parametrize("source, g", CONTOUR_SOURCES, ids=lambda v: v if isinstance(v, str) else None)
def test_contour_matches_per_direction_oracle(capsys, tmp_path, source, g):
    if isinstance(source, str):
        argv = ["--builtin", source]
    else:
        path = tmp_path / "spec.json"
        path.write_text(source.to_json())
        argv = ["--spec", str(path)]
    code, out = run(capsys, "contour", *argv)
    assert code == 0
    lines = out.splitlines()
    d = g.dim
    assert lines[0] == ",".join([f"w{i}" for i in range(1, d + 1)] + [f"b{i}" for i in range(1, d + 1)] + ["g_check"])
    # the oracle: one direction at a time, through the single-point gauge
    oracle = []
    for w in simplex_directions(64, d):
        b = w / g(w)
        oracle.append([*w, *b, g(b)])
    oracle = np.array(oracle)
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == oracle.shape
    assert np.array_equal(rows[:, :d], oracle[:, :d])
    assert np.all(np.abs(rows - oracle) <= 1e-15 * np.maximum(1.0, np.abs(oracle)))


def test_parser_is_built_once_and_parses_afresh():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["eta", "--builtin", "ilog:0.5", "--set", "12"])
    second = parser.parse_args(["eta", "--builtin", "ilog:0.5"])
    assert first is not second
    assert first.set == "12" and second.set is None


def test_usage_error_help_and_eta_in_one_process(capsys):
    code, out = run(capsys, "eta", "--builtin", "ilog:0.5", "--method", "exact")
    assert code == 2 and "invalid choice" in json.loads(out)["error"]
    code = main(["eta", "--help"])
    captured = capsys.readouterr()
    assert code == 0 and "--builtin" in captured.out and captured.err == ""
    code, out = run(capsys, "eta", "--builtin", "ilog:0.5")
    assert code == 0 and json.loads(out)["eta"] == 2**-0.5


@pytest.mark.parametrize("text, tag, eta", [
    ("independence", "independence", 0.5),
    ("gaussian:0.5", "gaussian(rho=0.5)", 0.75),
    ("ilog:0.5", "inverted-ev(Logistic(alpha=0.5))", 2**-0.5),
    ("logistic:0.5", "bev(s1=0.0, s2=0.0)", 1.0),
    ("alog:0.5", "asymmetric-logistic(alpha=0.5)", 1.0),
])
def test_builtins_build_through_gauge_bivariate(monkeypatch, text, tag, eta):
    from vinetail import cli, gauges

    cases = []
    monkeypatch.setattr(cli, "gauge_bivariate", lambda case, **kw: cases.append(case) or gauges.gauge_bivariate(case, **kw))
    g, closed = cli._parse_builtin(text)
    assert len(cases) == 1 and g.tag == tag and closed == eta


@pytest.mark.parametrize("text, message", [
    ("gaussian", "builtin 'gaussian' needs a parameter, e.g. gaussian:0.5"),
    ("nope:1", "unknown builtin gauge 'nope:1'"),
])
def test_builtin_errors(capsys, text, message):
    code, out = run(capsys, "eta", "--builtin", text)
    assert code == 2 and json.loads(out) == {"error": message}


@pytest.mark.parametrize("alpha", [0.001, 0.003])
def test_eta_builtin_with_tiny_alpha(capsys, alpha):
    # (x1^q + x2^q)^alpha overflows in its direct form at q = 1/alpha
    code, out = run(capsys, "eta", "--builtin", f"ilog:{alpha}", "--method", "numeric")
    assert code == 0
    assert json.loads(out)["eta"] == pytest.approx(2**-alpha, abs=1e-12)


def test_simulate_deterministic_and_scaled(capsys, ilog_spec, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code, _ = run(capsys, "simulate", "--spec", ilog_spec, "--n", "1000", "--seed", "7", "--out", out1)
    assert code == 0
    code, _ = run(capsys, "simulate", "--spec", ilog_spec, "--n", "1000", "--seed", "7", "--out", out2)
    assert code == 0
    h1 = hashlib.sha256(open(out1, "rb").read()).hexdigest()
    h2 = hashlib.sha256(open(out2, "rb").read()).hexdigest()
    assert h1 == h2
    data = np.loadtxt(out1, delimiter=",", skiprows=1)
    assert data.shape == (1000, 3)
    out3 = str(tmp_path / "scaled.csv")
    code, _ = run(capsys, "simulate", "--spec", ilog_spec, "--n", "1000", "--seed", "7",
                  "--scale", "--out", out3)
    scaled = np.loadtxt(out3, delimiter=",", skiprows=1)
    assert np.allclose(scaled, data / np.log(1000.0), rtol=1e-15)


def test_simulate_binary_format(capsys, ilog_spec, tmp_path):
    out = str(tmp_path / "c.bin")
    code, msg = run(capsys, "simulate", "--spec", ilog_spec, "--n", "64", "--seed", "3",
                    "--format", "binary", "--out", out)
    assert code == 0
    doc = json.loads(msg)
    assert doc["n"] == 64
    from vinetail import SampleCloud

    cloud = SampleCloud.from_binary(out)
    assert cloud.n == 64 and cloud.d == 3


def test_simulate_accepts_integral_notation(capsys, ilog_spec, tmp_path):
    from vinetail import SampleCloud

    clouds = []
    for n in ("1e3", "1000"):
        out = str(tmp_path / f"{n}.bin")
        code, msg = run(capsys, "simulate", "--spec", ilog_spec, "--n", n, "--seed", "3",
                        "--format", "binary", "--out", out)
        assert code == 0 and json.loads(msg)["n"] == 1000
        clouds.append(SampleCloud.from_binary(out).values)
    assert np.array_equal(*clouds)


@pytest.mark.parametrize("n", ["2.5", "0", "nan", "ten"])
def test_simulate_rejects_counts_that_are_not_whole(capsys, ilog_spec, tmp_path, n):
    code, msg = run(capsys, "simulate", "--spec", ilog_spec, "--n", n, "--seed", "3",
                    "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "error" in json.loads(msg)


def test_table_fig6(capsys):
    code, out = run(capsys, "table", "--figure", "fig6", "--alphas", "0.1,0.5,0.9", "--dmax", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,alpha=0.1,alpha=0.5,alpha=0.9"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (9, 4)
    for col in range(1, 4):
        assert np.all(np.diff(rows[:, col]) < 0)
    # strong dependence keeps eta near one; near-independence approaches 1/d
    assert rows[-1, 1] > 0.9
    # the alpha = 0.9, d = 10 entry of the geometric-series form:
    # (2 - 2^0.9) / (1 - (2^0.9 - 1)^10)
    assert rows[-1, 3] == pytest.approx(0.17563179948298258, abs=1e-12)
    assert rows[-1, 3] > 0.1


@pytest.mark.parametrize("alphas", ["nan", "0.5,nan", "0.5,1.5"])
def test_table_bad_alpha_prints_only_the_error(capsys, alphas):
    code, out = run(capsys, "table", "--alphas", alphas)
    assert code == 2
    assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("dmax", ["1", "0", "-3"])
def test_table_dmax_below_two_prints_only_the_error(capsys, dmax):
    # the table starts at d = 2: a smaller dmax used to print the header alone
    code, out = run(capsys, "table", "--dmax", dmax)
    assert code == 2
    assert out.count("\n") == 1 and list(json.loads(out)) == ["error"]
    assert "--dmax" in json.loads(out)["error"]


def test_verify_quick_passes_fast(capsys):
    import time

    start = time.perf_counter()
    code, out = run(capsys, "verify", "--suite", "quick")
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,elapsed_s,detail"
    assert all(",pass," in line for line in lines[1:])
    assert elapsed < 10.0


def test_verify_detects_corruption(capsys, monkeypatch):
    import vinetail.checks as checks

    monkeypatch.setattr(checks, "eta_trivariate_ilog_closed", lambda a, b, c: 0.5)
    code, out = run(capsys, "verify", "--suite", "quick")
    assert code == 4
    assert any(",fail," in line for line in out.splitlines())


def test_threads_flag_rejected(capsys, monkeypatch, ilog_spec):
    code, out = run(capsys, "--threads", "4", "eta", "--spec", ilog_spec)
    assert code == 2
    assert "error" in json.loads(out)
    monkeypatch.setenv("VINETAIL_THREADS", "four")
    code, out = run(capsys, "eta", "--builtin", "ilog:0.5")
    assert code == 0
    assert json.loads(out)["eta"] == pytest.approx(2**-0.5, abs=1e-15)


@pytest.mark.parametrize("structure, d, alphas, expected", ZERO_DENOMINATOR_VINES)
def test_eta_spec_with_zero_denominator_recursion(capsys, tmp_path, structure, d, alphas, expected):
    path = tmp_path / "vine.json"
    path.write_text(zero_denominator_spec(structure, d, alphas).to_json())
    code, out = run(capsys, "eta", "--spec", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed"
    assert doc["eta"] == pytest.approx(expected, rel=1e-15)


def test_contour_dims_mismatch_exits_2(capsys):
    code, out = run(capsys, "contour", "--builtin", "independence", "--dims", "3")
    assert code == 2
    assert "error" in json.loads(out)


def test_full_suite_registers_monte_carlo_checks():
    from vinetail import checks

    names = [name for name, _ in checks._FULL_ONLY]
    assert "mc-eta-crosscheck" in names
    assert "cloud-coverage" in names


def test_unknown_suite_raises_domain_error():
    from vinetail import DomainError, checks

    with pytest.raises(DomainError, match="bogus"):
        checks.run_suite("bogus")


def test_eta_json_carries_diagnostics(capsys, ilog_spec):
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "1,3", "--method", "numeric")
    assert code == 0 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["method"] == "numeric"
    assert doc["eta"] == pytest.approx(0.7395, abs=1e-4)
    diag = doc["diagnostics"]
    assert diag["n_starts"] == 9 and diag["n_gauge_evals"] == 0
    assert "spread" not in diag and isinstance(diag["suspicious_landscape"], bool)
    assert diag["local_solver"] == "quasi-newton" and diag["n_gradient_evals"] > 0
    assert 0.0 <= diag["kkt_residual"] <= 1e-6 and diag["suspicious_landscape"] is False
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "1,2")
    assert code == 0 and json.loads(out)["diagnostics"] == {"pair": [1, 2]}
    # a 2-d gauge with no gradient dialect reports its search on the faces
    code, out = run(capsys, "eta", "--builtin", "gaussian:0.5", "--method", "numeric")
    diag = json.loads(out)["diagnostics"]
    assert code == 0 and diag["local_solver"] == "face-search" and diag["n_gradient_evals"] == 0
    assert diag["n_gauge_evals"] > 0 and "kkt_residual" not in diag


def test_result_json_converts_numpy_scalars():
    from vinetail.cli import _result_json
    from vinetail.eta import EtaResult

    res = EtaResult(0.5, np.ones(2), "root", {"v": np.float32(0.25), "k": (np.int64(3), 1.5)})
    assert json.loads(_result_json(res))["diagnostics"] == {"v": 0.25, "k": [3.0, 1.5]}


@pytest.mark.parametrize("structure", ["dvine", "cvine"])
def test_two_dimensional_spec(capsys, tmp_path, structure):
    # a 2-d vine is its one tree-1 edge, so eta is the pair's 2^-alpha
    path = tmp_path / "pair.json"
    path.write_text(VineSpec(2, structure, {"12": PairCopula("iev", Logistic(0.4))}).to_json())
    for method in ("auto", "numeric"):
        code, out = run(capsys, "eta", "--spec", str(path), "--method", method)
        assert code == 0
        assert json.loads(out)["eta"] == pytest.approx(2.0**-0.4, abs=1e-9)
    code, out = run(capsys, "contour", "--spec", str(path), "--resolution", "9")
    assert code == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]])
    assert rows.shape == (9, 5)
    assert np.allclose(rows[:, 4], 1.0, atol=1e-10)


@pytest.mark.parametrize("subset, code", [("1", 2), ("13", 2), ("1,3", 2), ("12", 0), ("2,1", 0)])
def test_eta_builtin_reads_its_set(capsys, subset, code):
    rc, out = run(capsys, "eta", "--builtin", "ilog:0.5", "--set", subset)
    assert rc == code
    assert ("error" in json.loads(out)) == (code == 2)


@pytest.mark.parametrize("subset, message", [
    ("", "--set is empty"),
    ("  ", "--set is empty"),
    ("1,,3", "--set '1,,3' has an empty item"),
    ("1,x", "--set '1,x': 'x' is not an integer"),
    ("1x", "--set '1x': 'x' is not an integer"),
])
@pytest.mark.parametrize("source", ["spec", "builtin"])
def test_eta_malformed_set_names_the_flag(capsys, ilog_spec, source, subset, message):
    # an empty --set used to mean every variable, and a bad item exited 2
    # with the bare message of int()
    where = ["--spec", ilog_spec] if source == "spec" else ["--builtin", "gaussian:0.5"]
    code, out = run(capsys, "eta", *where, "--set", subset)
    assert code == 2
    assert json.loads(out)["error"].startswith(message)


@pytest.mark.parametrize("families, alphas", [
    ("iii", (0.03, 0.5, 0.5)),  # (1 + v^(-1/alpha))^(alpha - 1) overflowed at v = 1e-12
    ("eii", (0.5, 0.03, 0.5)),
    ("iii", (0.929, 0.8169, 0.0526)),  # the minimum at v = 0 has no root to bracket
])
def test_eta13_root_routes_at_extreme_alphas(capsys, tmp_path, families, alphas):
    spec = VineSpec.trivariate(*(PairCopula("iev" if f == "i" else "ev", Logistic(a))
                                 for f, a in zip(families, alphas)))
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    code, out = run(capsys, "eta", "--spec", str(path), "--set", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "root"
    ref = eta_numeric(gauge_trivariate(spec), (1, 3), n_starts=16, maxfev=20000)
    assert doc["eta"] == pytest.approx(ref.eta, abs=1e-10)


def test_eta_dvine_pair_solves_on_its_sub_vine(capsys, tmp_path):
    spec = VineSpec.uniform("dvine", 5, PairCopula("iev", Logistic(0.5)))
    path = tmp_path / "dvine5.json"
    path.write_text(spec.to_json())
    # the hull {1, 2, 3} is the trivariate vine, whose eta_13 is closed at equal alphas
    code, out = run(capsys, "eta", "--spec", str(path), "--set", "1,3", "--method", "closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed" and doc["diagnostics"]["marginal"] == [1, 2, 3]
    assert doc["argmin"][3:] == [0.0, 0.0]
    assert doc["eta"] == pytest.approx(eta13_trivariate_ilog(0.5, 0.5, 0.5).eta, rel=1e-15)
    # --method numeric still minimises the full gauge
    code, out = run(capsys, "eta", "--spec", str(path), "--set", "1,3", "--method", "numeric")
    assert code == 0
    doc = json.loads(out)
    full = eta_numeric(gauge_dvine(spec), (1, 3))
    assert doc["method"] == "numeric" and doc["eta"] == full.eta
    assert doc["diagnostics"]["n_gauge_evals"] == full.diagnostics["n_gauge_evals"]
    assert "marginal" not in doc["diagnostics"]


@pytest.mark.parametrize("structure, alphas, reference, at_ones", UNCERTIFIED_VINES, ids=["cvine", "dvine"])
def test_eta_whole_vine_falls_back_where_ones_is_not_the_minimum(capsys, tmp_path, structure, alphas, reference,
                                                                 at_ones):
    path = tmp_path / "vine.json"
    path.write_text(zero_denominator_spec(structure, 6, alphas).to_json())
    code, out = run(capsys, "eta", "--spec", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "numeric" and "x4" in doc["diagnostics"]["fallback_reason"]
    assert doc["eta"] == pytest.approx(reference, abs=1e-8) and doc["eta"] > at_ones + 1e-5
    code, out = run(capsys, "eta", "--spec", str(path), "--method", "closed")
    assert code == 3 and "error" in json.loads(out)


def test_eta_whole_asymmetric_logistic_vine_is_closed(capsys, tmp_path):
    from vinetail import AsymmetricLogistic

    spec = VineSpec.uniform("dvine", 4, PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.6)))
    path = tmp_path / "alog.json"
    path.write_text(spec.to_json())
    code, out = run(capsys, "eta", "--spec", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "closed" and "fallback_reason" not in doc["diagnostics"]
    assert doc["eta"] == 1.0 / gauge_dvine(spec)(np.ones(4))
    code, out = run(capsys, "eta", "--spec", str(path), "--method", "closed")
    assert code == 0 and json.loads(out)["eta"] == doc["eta"]