import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from vinetail import (
    AlreadyScaledError,
    DomainError,
    Logistic,
    PairCopula,
    SampleCloud,
    SpecError,
    VineSpec,
    sample_vine,
    scale_cloud,
)
from vinetail import copulas, simulate
from vinetail.vines import expected_edges

RNG = np.random.default_rng(141421)


def ilog(a):
    return PairCopula("iev", Logistic(a))


def tri_spec(a=0.5, b=0.5, c=0.5):
    return VineSpec.trivariate(ilog(a), ilog(b), ilog(c))


def clamp(a):
    return np.clip(a, 1e-13, 1 - 1e-13)


def logistic_vine(structure, d, families=("iev",)):
    """Logistic edges with alphas spread over [0.3, 0.8]; the families
    repeat along the edges in tree order."""
    labels = expected_edges(structure, d)
    alphas = np.linspace(0.3, 0.8, len(labels))
    return VineSpec(d, structure, {
        label: PairCopula(fam, Logistic(a))
        for label, fam, a in zip(labels, itertools.cycle(families), alphas)
    })


def chunk_uniforms(seed, n, d, chunk_size):
    """Each chunk's uniforms, drawn and clipped off {0, 1} as sample_vine does."""
    for c, start in enumerate(range(0, n, chunk_size)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        yield np.clip(rng.random((min(chunk_size, n - start), d)), 1e-15, 1.0 - 1e-15)


def cascade_trivariate(spec, w):
    """The hand-indexed trivariate cascade on uniforms, x2 drawn first."""
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    u2 = w[:, 1]
    u1 = c12.hinv(w[:, 0], u2)
    z = c13.swapped().hinv(w[:, 2], w[:, 0])
    u3 = c23.swapped().hinv(z, u2)
    return np.column_stack([u1, u2, u3])


def cascade_trivariate_x(spec, w):
    """The same cascade in exponential coordinates, one row per variable as
    sample_vine lays them out, as an oracle."""
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    x = np.ascontiguousarray(-np.log1p(-w).T)
    x2 = x[1]
    x1 = c12.hinv_x(x[0], x2)
    z = c13.swapped().hinv_x(x[2], x[0])
    x3 = c23.swapped().hinv_x(z, x2)
    return np.column_stack([x1, x2, x3])


def rosenblatt(spec, u):
    """F(x_i | x_1, ..., x_{i-1}) for every column i, by h-functions only."""
    by_nodes = {frozenset(e.pair + e.cond): e for e in spec.edges}
    memo = {}

    def cdf(a, cond):
        if not cond:
            return u[:, a - 1]
        if (a, cond) not in memo:
            label = by_nodes[cond | {a}]
            (c,) = set(label.pair) - {a}
            pc = spec.edges[label] if c == label.pair[1] else spec.edges[label].swapped()
            memo[a, cond] = pc.hfunc(cdf(a, cond - {c}), cdf(c, cond - {c}))
        return memo[a, cond]

    return np.column_stack([cdf(i, frozenset(range(1, i))) for i in range(1, spec.d + 1)])


def test_determinism_bit_identical():
    spec = tri_spec()
    c1 = sample_vine(spec, 5000, seed=7)
    c2 = sample_vine(spec, 5000, seed=7)
    assert np.array_equal(c1.values, c2.values)
    c3 = sample_vine(spec, 5000, seed=8)
    assert not np.array_equal(c1.values, c3.values)


def test_chunking_is_part_of_the_plan():
    # same (seed, chunk plan) across partial/total draws: the first chunk of
    # a longer run reproduces a shorter run exactly
    spec = tri_spec()
    whole = sample_vine(spec, 70_000, seed=3)
    head = sample_vine(spec, 65_536, seed=3)
    assert np.array_equal(whole.values[:65_536], head.values)


def test_draws_do_not_depend_on_the_cascade_block(monkeypatch):
    # the cascade runs each chunk in row blocks; every step is elementwise
    spec = logistic_vine("dvine", 4, ("iev", "ev"))
    whole = sample_vine(spec, 5000, seed=9, chunk_size=4096)
    monkeypatch.setattr(simulate, "_BLOCK", 1000)
    assert np.array_equal(sample_vine(spec, 5000, seed=9, chunk_size=4096).values, whole.values)


def test_exponential_margins():
    spec = tri_spec(0.4, 0.6, 0.3)
    cloud = sample_vine(spec, 20_000, seed=5)
    crit = 1.628 / np.sqrt(cloud.n)  # 1% Kolmogorov-Smirnov critical value
    for j in range(3):
        assert stats.kstest(cloud.values[:, j], "expon").statistic < crit


def test_independence_edges_give_independent_coordinates():
    spec = VineSpec.trivariate(ilog(1.0), ilog(1.0), ilog(1.0))
    cloud = sample_vine(spec, 100_000, seed=11)
    for i in range(3):
        for j in range(i + 1, 3):
            tau = stats.kendalltau(cloud.values[:, i], cloud.values[:, j]).statistic
            assert abs(tau) < 0.01


def test_pairwise_cdf_matches_analytic():
    spec = tri_spec(0.5, 0.5, 0.5)
    cloud = sample_vine(spec, 100_000, seed=13)
    u = 1 - np.exp(-cloud.values)
    for cols, pc in [((0, 1), spec.copula(1, 2)), ((1, 2), spec.copula(2, 3))]:
        emp = np.mean((u[:, cols[0]] <= 0.5) & (u[:, cols[1]] <= 0.5))
        ana = pc.cdf(0.5, 0.5)
        se = np.sqrt(ana * (1 - ana) / cloud.n)
        assert abs(emp - ana) < 3 * se + 1e-4


def test_exchange_symmetry_alpha_equal_beta():
    spec = tri_spec(0.4, 0.4, 0.6)
    cloud = sample_vine(spec, 150_000, seed=17)
    u = 1 - np.exp(-cloud.values)
    r12 = stats.spearmanr(u[:, 0], u[:, 1]).statistic
    r32 = stats.spearmanr(u[:, 2], u[:, 1]).statistic
    assert abs(r12 - r32) < 3.0 * np.sqrt(2.0 / cloud.n)


def test_sampler_matches_density_importance_weights():
    """Box probabilities from the inversion cascade vs weights built from
    the density composition; boxes avoid the lower corner where the
    importance weights are heavy tailed."""
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.3),
                               PairCopula("ev", Logistic(0.6)))
    n = 200_000
    w = RNG.random((n, 3))
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    f12 = clamp(c12.hfunc(w[:, 0], w[:, 1]))
    f32 = clamp(c23.swapped().hfunc(w[:, 2], w[:, 1]))
    dens = c12.density(w[:, 0], w[:, 1]) * c23.density(w[:, 1], w[:, 2]) * c13.density(f12, f32)
    cloud = sample_vine(spec, n, seed=19)
    us = 1 - np.exp(-cloud.values)
    for box in [((0.3, 0.8), (0.2, 0.9), (0.4, 1.0)), ((0.5, 1.0), (0.5, 1.0), (0.5, 1.0))]:
        inbox = np.ones(n, bool)
        insample = np.ones(n, bool)
        for k, (lo, hi) in enumerate(box):
            inbox &= (w[:, k] > lo) & (w[:, k] <= hi)
            insample &= (us[:, k] > lo) & (us[:, k] <= hi)
        est = float(np.mean(dens * inbox))
        se_est = float(np.std(dens * inbox) / np.sqrt(n))
        emp = float(np.mean(insample))
        se_emp = float(np.sqrt(emp * (1 - emp) / n))
        assert abs(est - emp) < 5 * np.hypot(se_est, se_emp)


def test_d4_margins_match_trivariate_subvines():
    edges = {"12": ilog(0.3), "23": ilog(0.5), "34": ilog(0.7),
             "13|2": ilog(0.4), "24|3": ilog(0.6), "14|23": ilog(0.55)}
    big = sample_vine(VineSpec(4, "dvine", edges), 150_000, seed=21)
    sub = sample_vine(VineSpec.trivariate(ilog(0.3), ilog(0.5), ilog(0.4)), 150_000, seed=22)
    ub, us = 1 - np.exp(-big.values), 1 - np.exp(-sub.values)
    for box in [(0.5, 0.5, 0.5), (0.3, 0.6, 0.8), (0.8, 0.4, 0.2)]:
        pa = np.mean(np.all(ub[:, :3] <= box, axis=1))
        pb = np.mean(np.all(us <= box, axis=1))
        se = np.sqrt(pa * (1 - pa) / len(ub) + pb * (1 - pb) / len(us))
        assert abs(pa - pb) < 5 * se


def test_cvine_margins_match_subvine():
    edges = {"12": ilog(0.3), "13": ilog(0.5), "14": ilog(0.7),
             "23|1": ilog(0.4), "24|1": ilog(0.6), "34|12": ilog(0.55)}
    big = sample_vine(VineSpec(4, "cvine", edges), 150_000, seed=23)
    sub = sample_vine(VineSpec(3, "cvine", {"12": ilog(0.3), "13": ilog(0.5), "23|1": ilog(0.4)}),
                      150_000, seed=24)
    ub, us = 1 - np.exp(-big.values), 1 - np.exp(-sub.values)
    for box in [(0.5, 0.5, 0.5), (0.2, 0.7, 0.4)]:
        pa = np.mean(np.all(ub[:, :3] <= box, axis=1))
        pb = np.mean(np.all(us <= box, axis=1))
        se = np.sqrt(pa * (1 - pa) / len(ub) + pb * (1 - pb) / len(us))
        assert abs(pa - pb) < 5 * se


def test_scale_cloud():
    cloud = SampleCloud(values=np.full((int(np.exp(2.0)) + 1, 2), 2.0), seed=0)
    # ln(n) is not exactly 2 for integer n; use the recorded factor
    scaled = scale_cloud(cloud)
    assert scaled.scale == pytest.approx(np.log(cloud.n))
    assert_allclose(scaled.values, 2.0 / np.log(cloud.n))
    assert scaled.values.max() == pytest.approx(cloud.values.max() / np.log(cloud.n))
    with pytest.raises(AlreadyScaledError):
        scale_cloud(scaled)


@pytest.mark.parametrize("fams", ["iii", "iie", "eii", "eie", "eei", "eee", "iei", "iee"])
def test_scaled_cloud_mostly_inside_limit_set(fams):
    # the sampler is a route to the gauge of every family pattern that
    # shares no code with the gauge plan
    from vinetail import gauge_trivariate

    spec = VineSpec.trivariate(*(PairCopula("ev" if f == "e" else "iev", Logistic(0.5)) for f in fams))
    cloud = scale_cloud(sample_vine(spec, 100_000, seed=29))
    g = gauge_trivariate(spec)
    frac = np.mean(g(cloud.values) <= 1.15)
    assert frac >= 0.99


def test_validation_errors():
    with pytest.raises(DomainError):
        sample_vine(tri_spec(), 0, seed=1)
    with pytest.raises(DomainError):
        SampleCloud(values=np.array([[1.0, -2.0]]), seed=0)
    with pytest.raises(DomainError):
        scale_cloud(SampleCloud(values=np.ones((1, 2)), seed=0))


@pytest.mark.parametrize("n", [2.5, np.nan, np.inf, "10", None])
def test_sample_count_must_be_a_whole_number(n):
    with pytest.raises(DomainError, match="sample count"):
        sample_vine(tri_spec(), n, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, np.nan, "7", None])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match="seed"):
        sample_vine(tri_spec(), 10, seed=seed)


def test_integral_floats_count_and_seed():
    cloud = sample_vine(tri_spec(), 1e3, seed=7.0)
    assert cloud.n == 1000 and cloud.seed == 7 and type(cloud.seed) is int
    assert np.array_equal(cloud.values, sample_vine(tri_spec(), 1000, seed=7).values)


@pytest.mark.parametrize("chunk_size", [0, -5, 2.5])
def test_chunk_size_must_be_a_positive_integer(chunk_size):
    with pytest.raises(DomainError, match="chunk_size"):
        sample_vine(tri_spec(), 10, seed=1, chunk_size=chunk_size)


@pytest.mark.parametrize("structure, d", [("trivariate", 3)] + [(s, d) for s in ("dvine", "cvine") for d in range(2, 8)])
def test_cascade_work_per_chunk(monkeypatch, structure, d):
    # one inversion per edge; the D-vine builds its conditioners
    # F(x_k | x_{k+1}, ..., x_{i-1}) by h-functions, the C-vine's and the
    # trivariate vine's are the uniforms of earlier draws
    calls = {"hinv_x": 0, "hfunc_x": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(PairCopula, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(PairCopula, name, counted)
    sample_vine(logistic_vine(structure, d), 100, seed=1)
    hfunc = (d - 1) * (d - 2) // 2 if structure == "dvine" else 0
    assert calls == {"hinv_x": d * (d - 1) // 2, "hfunc_x": hfunc}


@pytest.mark.parametrize("families", list(itertools.product(("ev", "iev"), repeat=3)))
def test_trivariate_draws_match_hand_cascade(families):
    spec = logistic_vine("trivariate", 3, families)
    cloud = sample_vine(spec, 3000, seed=43, chunk_size=1024)
    chunks = list(chunk_uniforms(43, 3000, 3, 1024))
    assert np.array_equal(cloud.values, np.vstack([cascade_trivariate_x(spec, w) for w in chunks]))
    # the uniform-scale cascade agrees to rounding
    uniform = np.vstack([-np.log1p(-cascade_trivariate(spec, w)) for w in chunks])
    assert_allclose(cloud.values, uniform, rtol=1e-10, atol=0)


@pytest.mark.parametrize("spec", [logistic_vine("dvine", 5), logistic_vine("trivariate", 3, ("ev", "iev", "iev"))],
                         ids=["dvine5", "eii"])
def test_cascade_runs_no_validation(monkeypatch, spec):
    # sample_vine checks its arguments once; the cascade steps take the
    # exponential coordinates as they are
    def refuse(*args, **kwargs):
        raise AssertionError("the cascade validated an input")

    monkeypatch.setattr(copulas, "_check_unit", refuse)
    cloud = sample_vine(spec, 2000, seed=5, chunk_size=512)
    assert cloud.values.shape == (2000, spec.d) and np.all(np.isfinite(cloud.values))


@pytest.mark.parametrize("families", [("iev",), ("iev", "ev")], ids=["iev", "mixed"])
@pytest.mark.parametrize("structure, d", [(s, d) for s in ("dvine", "cvine") for d in range(2, 7)])
def test_rosenblatt_transform_returns_the_uniforms(structure, d, families):
    spec = logistic_vine(structure, d, families)
    u = -np.expm1(-sample_vine(spec, 3000, seed=47, chunk_size=1024).values)
    for k, w in enumerate(chunk_uniforms(47, 3000, d, 1024)):
        assert_allclose(rosenblatt(spec, u[1024 * k : 1024 * k + len(w)]), w, rtol=0, atol=1e-9)


def test_csv_roundtrip(tmp_path):
    cloud = sample_vine(tri_spec(), 500, seed=31)
    path = tmp_path / "cloud.csv"
    cloud.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 501
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert_allclose(data, cloud.values, rtol=1e-15)
    meta = (tmp_path / "cloud.csv.meta.json").read_text()
    assert cloud.spec_hash in meta and '"seed": 31' in meta


def test_csv_text_is_pinned(tmp_path):
    # every value in 17 significant digits, the shortest form that
    # round-trips all doubles
    values = np.array([[0.0, 1e-300, 1e300], [0.1, 1.0 / 3.0, 2.0], [np.nextafter(1.0, 2.0), 1.5e-5, 123456789.0]])
    path = tmp_path / "cloud.csv"
    SampleCloud(values=values, seed=0).to_csv(path)
    assert path.read_text() == (
        "x1,x2,x3\n"
        "0,1e-300,1.0000000000000001e+300\n"
        "0.10000000000000001,0.33333333333333331,2\n"
        "1.0000000000000002,1.5e-05,123456789\n"
    )
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), values)


def test_binary_roundtrip(tmp_path):
    cloud = sample_vine(tri_spec(), 500, seed=37)
    path = tmp_path / "cloud.bin"
    cloud.to_binary(path)
    back = SampleCloud.from_binary(path)
    assert np.array_equal(back.values, cloud.values)
    assert back.seed == 37 and back.scale == 0.0
    head = path.read_bytes()[:16]
    assert head[:8] == b"VINETCLD"
    with pytest.raises(Exception):
        SampleCloud.from_binary(__file__)


def test_binary_roundtrip_keeps_provenance(tmp_path):
    cloud = sample_vine(tri_spec(), 300, seed=41, chunk_size=128)
    path = tmp_path / "cloud.bin"
    cloud.to_binary(path)
    back = SampleCloud.from_binary(path)
    assert (back.spec_hash, back.generator, back.chunk_size) == (cloud.spec_hash, cloud.generator, 128)
    # without the sidecar only the header's fields survive
    (tmp_path / "cloud.bin.meta.json").unlink()
    bare = SampleCloud.from_binary(path)
    assert np.array_equal(bare.values, cloud.values) and bare.spec_hash == ""


@pytest.mark.parametrize("key, value", [("n", 299), ("d", 2), ("seed", 42), ("scale", 1.5)])
def test_binary_sidecar_must_match_header(tmp_path, key, value):
    path = tmp_path / "cloud.bin"
    sample_vine(tri_spec(), 300, seed=41).to_binary(path)
    meta_path = tmp_path / "cloud.bin.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(SpecError, match=rf"\b{key}="):
        SampleCloud.from_binary(path)


def test_truncated_binary_raises_spec_error(tmp_path):
    path = tmp_path / "cloud.bin"
    SampleCloud(values=np.ones((10, 3)), seed=0).to_binary(path)
    data = path.read_bytes()
    for cut in (8, len(data) - 20):
        path.write_bytes(data[:-cut])
        with pytest.raises(SpecError):
            SampleCloud.from_binary(path)
