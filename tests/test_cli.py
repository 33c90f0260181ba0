import hashlib
import json

import numpy as np
import pytest

from vinetail import Logistic, PairCopula, VineSpec
from vinetail.cli import main

from test_eta import ZERO_DENOMINATOR_VINES, zero_denominator_spec


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


def test_eta_json_carries_diagnostics(capsys, ilog_spec):
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "1,3", "--method", "numeric")
    assert code == 0 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["method"] == "numeric"
    assert doc["eta"] == pytest.approx(0.7395, abs=1e-4)
    diag = doc["diagnostics"]
    assert diag["n_starts"] == 9 and diag["n_gauge_evals"] > 0
    assert isinstance(diag["spread"], float) and isinstance(diag["suspicious_landscape"], bool)
    code, out = run(capsys, "eta", "--spec", ilog_spec, "--set", "1,2")
    assert code == 0 and json.loads(out)["diagnostics"] == {"pair": [1, 2]}


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
