import copy
import itertools
import json
import pickle

import pytest

from vinetail import AsymmetricLogistic, Logistic, PairCopula, SpecError, VineSpec, VinetailError
from vinetail.vines import EdgeLabel, expected_edges


def ilog(a):
    return PairCopula("iev", Logistic(a))


def test_edge_label_parse_and_format():
    e = EdgeLabel.parse("13|2")
    assert e.pair == (1, 3) and e.cond == (2,)
    assert str(e) == "13|2"
    assert EdgeLabel.parse("31|2") == e
    e2 = EdgeLabel.parse("1,4|2,3")
    assert e2.pair == (1, 4) and e2.cond == (2, 3)
    assert str(e2) == "14|23"
    wide = EdgeLabel((1, 12), (2, 3))
    assert str(wide) == "1,12|2,3"
    assert EdgeLabel.parse(str(wide)) == wide
    with pytest.raises(SpecError):
        EdgeLabel.parse("11")
    with pytest.raises(SpecError):
        EdgeLabel((1, 2), (2,))


def test_edge_labels_are_interned():
    # one object per (pair, cond): a parsed spec's labels are those of
    # expected_edges, so its dict lookups succeed on identity
    label = EdgeLabel.parse("13|2")
    assert label is expected_edges("trivariate", 3)[2]
    assert EdgeLabel.parse("31|2") is label and EdgeLabel((3, 1), [2]) is label
    assert copy.copy(label) is label and copy.deepcopy(label) is label
    assert pickle.loads(pickle.dumps(label)) is label
    for structure in ("dvine", "cvine"):
        spec = VineSpec.uniform(structure, 6, ilog(0.4))
        again = VineSpec.from_json(spec.to_json())
        assert all(a is b for a, b in zip(again.edges, expected_edges(structure, 6), strict=True))
        assert all(a is b for a, b in zip(again.marginal((1, 2, 3)).edges, expected_edges(structure, 3), strict=True))


@pytest.mark.parametrize("text, message", [
    ("11", r"edge pair must name two distinct variables, got \(1, 1\)"),
    ("12|1", r"conditioning set of 12\|1 overlaps its conditioned pair"),
    ("1|2", r"edge label '1\|2' must name exactly two conditioned variables"),
])
def test_invalid_edge_labels_keep_their_messages(text, message):
    for _ in range(2):  # a failed parse is not memoised
        with pytest.raises(SpecError, match=message):
            EdgeLabel.parse(text)


def test_repeated_conditioning_variable_is_refused():
    # 13|22 would share the nodes {1, 2, 3} of 13|2 while being another
    # label; it is refused before it is interned, so a retry refuses again
    message = r"conditioning set \(2, 2\) repeats variable 2"
    for _ in range(2):
        with pytest.raises(SpecError, match=message):
            EdgeLabel.parse("13|22")
        with pytest.raises(SpecError, match=message):
            EdgeLabel((1, 3), (2, 2))
    assert all(len(set(cond)) == len(cond) for _, cond in EdgeLabel._table)
    doc = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3)).to_dict()
    doc["edges"][2]["label"] = "13|22"
    with pytest.raises(SpecError, match=message):
        VineSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["13|2", "1,12|2,3", "42", "25|134"])
def test_edge_label_nodes_are_its_constraint_set(text):
    # {a, b} u D, set once when the label is first made, and shared by the
    # copies, which are the label itself
    e = EdgeLabel.parse(text)
    assert isinstance(e.nodes, frozenset) and e.nodes == {*e.pair, *e.cond}
    assert copy.copy(e) is e and copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e


def test_expected_edges_counts():
    for d in range(2, 8):
        assert len(expected_edges("dvine", d)) == d * (d - 1) // 2
        assert len(expected_edges("cvine", d)) == d * (d - 1) // 2
    assert [str(e) for e in expected_edges("trivariate", 3)] == ["12", "23", "13|2"]
    assert [str(e) for e in expected_edges("dvine", 4)] == ["12", "23", "34", "13|2", "24|3", "14|23"]
    assert [str(e) for e in expected_edges("cvine", 4)] == ["12", "13", "14", "23|1", "24|1", "34|12"]
    with pytest.raises(SpecError):
        expected_edges("trivariate", 4)
    with pytest.raises(SpecError):
        expected_edges("rvine", 4)


def test_spec_validation():
    good = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3))
    assert good.d == 3 and good.copula(1, 3).measure.alpha == 0.3
    assert good.copula(3, 2).measure.alpha == 0.4  # order-insensitive lookup
    with pytest.raises(SpecError):
        VineSpec(3, "trivariate", {"12": ilog(0.5), "23": ilog(0.4)})  # missing edge
    with pytest.raises(SpecError):
        VineSpec(3, "trivariate", {"12": ilog(0.5), "23": ilog(0.4), "13": ilog(0.3)})  # bad label
    with pytest.raises(SpecError):
        VineSpec(3, "trivariate", {"12": ilog(0.5), "23": ilog(0.4), "13|2": "nope"})


def test_json_roundtrip_identity():
    spec = VineSpec(4, "dvine", {str(e): ilog(0.2 + 0.1 * i) for i, e in enumerate(expected_edges("dvine", 4))})
    doc = spec.to_json()
    again = VineSpec.from_json(doc)
    assert again.to_json() == doc
    assert again.spec_hash() == spec.spec_hash()


@pytest.mark.parametrize("dimension", [None, 3.7, True, "3", [3], float("nan"), float("inf")])
def test_dimension_must_be_an_integer(dimension):
    doc = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3)).to_dict()
    doc["dimension"] = dimension
    with pytest.raises(SpecError, match="vine dimension must be an integer"):
        VineSpec.from_dict(doc)


def test_integral_dimension_of_another_type_is_taken():
    doc = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3)).to_dict()
    doc["dimension"] = 3.0
    spec = VineSpec.from_dict(doc)
    assert spec.d == 3 and type(spec.d) is int


@pytest.mark.parametrize("label", ["1.5 2", "1,x", "a2", "12|x", "1,,2", None])
def test_malformed_edge_label_raises_spec_error(label):
    with pytest.raises(SpecError, match="edge label"):
        EdgeLabel.parse(label)
    doc = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3)).to_dict()
    doc["edges"][0]["label"] = label
    with pytest.raises(SpecError, match="edge label"):
        VineSpec.from_dict(doc)


def test_edge_count_is_checked_before_the_labels_are_built():
    # a vine on 10^6 variables would have 5e11 labels to build and list
    doc = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3)).to_dict()
    doc["dimension"], doc["structure"] = 10**6, "dvine"
    with pytest.raises(SpecError, match="a vine on 1000000 variables has 499999500000 edges, got 3"):
        VineSpec.from_dict(doc)


def test_expected_edges_returns_a_new_list():
    first = expected_edges("dvine", 4)
    first.clear()
    assert len(expected_edges("dvine", 4)) == 6


def test_json_unknown_keys_rejected():
    spec = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3))
    doc = spec.to_dict()
    doc["surprise"] = 1
    with pytest.raises(SpecError):
        VineSpec.from_dict(doc)
    doc2 = spec.to_dict()
    doc2["edges"][0]["rogue"] = True
    with pytest.raises(SpecError):
        VineSpec.from_dict(doc2)
    doc3 = spec.to_dict()
    doc3["edges"][0]["measure"] = {"type": "logistic", "alpha": 0.5, "beta": 1}
    with pytest.raises(SpecError):
        VineSpec.from_dict(doc3)
    with pytest.raises(SpecError):
        VineSpec.from_json("not json at all {")


def test_spec_hash_distinguishes_parameters():
    s1 = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.3))
    s2 = VineSpec.trivariate(ilog(0.5), ilog(0.4), ilog(0.31))
    assert s1.spec_hash() != s2.spec_hash()


def test_families_and_all_iev():
    spec = VineSpec.trivariate(ilog(0.5), PairCopula("ev", Logistic(0.4)), ilog(0.3))
    assert spec.families() == ("iev", "ev", "iev")
    assert not spec.all_iev()
    assert VineSpec.uniform("cvine", 5, ilog(0.2)).all_iev()


def test_mirror_swaps_outer_edges_and_transposes():
    c12 = PairCopula("ev", AsymmetricLogistic(0.5, 0.3, 0.8))
    c23 = ilog(0.4)
    c13 = PairCopula("iev", AsymmetricLogistic(0.6, 0.9, 0.2))
    spec = VineSpec.trivariate(c12, c23, c13)
    m = spec.mirrored()
    assert m.structure == "trivariate"
    assert m.families() == ("iev", "ev", "iev")
    assert m.copula(1, 2).measure == c23.measure  # Logistic is exchangeable
    assert m.copula(2, 3).measure.to_dict() == {"type": "asymmetric_logistic", "alpha": 0.5,
                                                "theta1": 0.8, "theta2": 0.3}
    assert m.copula(1, 3).measure.to_dict()["theta1"] == 0.2
    assert m.mirrored().to_dict() == spec.to_dict()
    dvine = VineSpec(3, "dvine", {"12": c12, "23": c23, "13|2": c13})
    assert dvine.mirrored().structure == "dvine"
    assert dvine.mirrored().mirrored().to_dict() == dvine.to_dict()


def test_mirror_needs_a_trivariate_vine():
    # a 4-d D-vine has a 13|2 edge of its own, so only the dimension check
    # keeps it from being mirrored into a wrong trivariate spec
    with pytest.raises(VinetailError):
        VineSpec.uniform("dvine", 4, ilog(0.5)).mirrored()
    with pytest.raises(VinetailError):
        VineSpec.uniform("cvine", 3, ilog(0.5)).mirrored()


@pytest.mark.parametrize("structure, d", [("dvine", 4), ("cvine", 3), ("dvine", 2), ("cvine", 2)])
def test_mirror_refusals_keep_their_message(structure, d):
    spec = VineSpec.uniform(structure, d, ilog(0.5))
    with pytest.raises(SpecError, match=r"^the x1 <-> x3 mirror needs a vine with edges 12, 23, 13\|2, "
                                        rf"not VineSpec\(d={d}, structure='{structure}', edges={len(spec.edges)}\)$"):
        spec.mirrored()


@pytest.mark.parametrize("structure, d, expected", [
    ("trivariate", 3, True), ("dvine", 3, True), ("cvine", 3, False),
    ("dvine", 2, False), ("cvine", 2, False), ("dvine", 4, False), ("cvine", 4, False),
])
def test_is_trivariate_reads_the_edges(structure, d, expected):
    # true exactly for the edges 12, 23, 13|2, whatever the structure's name
    assert VineSpec.uniform(structure, d, ilog(0.5)).is_trivariate() is expected


@pytest.mark.parametrize("structure, d, nodes, relabel", [
    ("dvine", 5, (2, 3, 4), {1: 2, 2: 3, 3: 4}),
    ("dvine", 5, (4, 5), {1: 4, 2: 5}),
    ("trivariate", 3, (2, 3), {1: 2, 2: 3}),
    ("cvine", 5, (1, 2, 5), {1: 1, 2: 2, 3: 5}),
    ("cvine", 5, (1, 2, 3, 4), {1: 1, 2: 2, 3: 3, 4: 4}),
    ("cvine", 4, (1, 3), {1: 1, 2: 3}),
])
def test_marginal_relabels_a_sub_vine(structure, d, nodes, relabel):
    # every edge a distinct copula object, so that identity shows which edge moved where
    spec = VineSpec(d, structure, {e: PairCopula("iev", AsymmetricLogistic(0.5, 0.3, 0.9))
                                   for e in expected_edges(structure, d)})
    m = spec.marginal(reversed(nodes))
    assert m.d == len(nodes)
    assert m.structure == ("dvine" if structure == "trivariate" else structure)
    for label, pc in m.edges.items():
        original = EdgeLabel([relabel[v] for v in label.pair], [relabel[c] for c in label.cond])
        assert pc is spec.edges[original]  # the same copula, not swapped


@pytest.mark.parametrize("structure, d, nodes", [
    ("dvine", 4, (1, 3)),
    ("dvine", 5, (2, 3, 5)),
    ("cvine", 4, (2, 3)),
    ("cvine", 5, (1, 3, 4)),
    ("dvine", 4, (2,)),
    ("cvine", 4, (1, 5)),
    ("dvine", 4, (0, 1)),
])
def test_marginal_rejects_sets_that_are_not_sub_vines(structure, d, nodes):
    with pytest.raises(SpecError):
        VineSpec.uniform(structure, d, ilog(0.5)).marginal(nodes)


def test_hull_is_the_smallest_sub_vine():
    dvine, cvine = VineSpec.uniform("dvine", 6, ilog(0.5)), VineSpec.uniform("cvine", 6, ilog(0.5))
    assert dvine.hull((5, 2)) == (2, 3, 4, 5)
    assert cvine.hull((5, 2)) == (1, 2, 5)
    assert cvine.hull((1, 3, 4, 6)) == (1, 2, 3, 4, 6)
    assert dvine.hull((1, 6)) == cvine.hull((5, 6)) == tuple(range(1, 7))
    for bad in ((3,), (3, 3), (0, 2), (2, 7)):
        with pytest.raises(SpecError):
            cvine.hull(bad)


@pytest.mark.parametrize("structure", ["dvine", "cvine"])
def test_hull_matches_the_edge_counting_oracle(structure):
    # the oracle knows nothing of edge order or structure: a node set S is a
    # sub-vine when |S|(|S| - 1)/2 of the spec's edges lie in it, and the
    # hull of L is the unique smallest such S holding L
    for d in range(2, 9):
        spec = VineSpec.uniform(structure, d, ilog(0.5))
        for size in range(2, d + 1):
            for labels in itertools.combinations(range(1, d + 1), size):
                rest = [v for v in range(1, d + 1) if v not in labels]
                for extra in range(d - size + 1):
                    found = [tuple(sorted(labels + more)) for more in itertools.combinations(rest, extra)
                             if sum(e.nodes <= {*labels, *more} for e in spec.edges)
                             == (size + extra) * (size + extra - 1) // 2]
                    if found:
                        break
                assert found == [spec.hull(reversed(labels))], (structure, d, labels)
