"""Vine specifications: structure, edge labelling and (de)serialisation.

A vine on variables 1..d consists of d-1 nested trees holding d(d-1)/2
edges in total; each edge carries one pair copula and is labelled by its
conditioned pair and conditioning set, e.g. "12", "23", "13|2".  Three
structures are supported:

* ``trivariate`` -- d = 3 with edges {12}, {23}, {13|2},
* ``dvine``      -- every tree is a path (nodes in ascending order),
* ``cvine``      -- every tree is a star (tree k rooted at node k).

The trivariate structure coincides with the 3-dimensional D-vine; it is kept
as its own name because all trivariate structures are equivalent up to
relabelling.
"""

from __future__ import annotations

import functools
import hashlib
import json

from .copulas import EV, IEV, PairCopula
from .errors import DomainError, SpecError
from .measures import measure_from_dict

__all__ = ["EdgeLabel", "VineSpec", "expected_edges", "index_set", "STRUCTURES"]

TRIVARIATE = "trivariate"
DVINE = "dvine"
CVINE = "cvine"
STRUCTURES = (TRIVARIATE, DVINE, CVINE)


class EdgeLabel:
    """Conditioned pair plus conditioning set, hashable and order-normalised;
    ``nodes`` is their union {a, b} u D, the node set of the sub-vine it tops.

    Labels are interned: building one returns the single shared object for
    its (pair, cond), and ``parse`` is memoised on the label text, so a
    parsed spec's labels are those of ``expected_edges``.  Equality and
    hash are the object's own, so a spec's dict and set lookups cost no
    Python call, and copies and unpickled labels are the shared object
    too.  A label whose pair repeats a variable, whose conditioning set
    repeats one or meets the pair raises SpecError and is not interned."""

    __slots__ = ("pair", "cond", "nodes")
    _table: dict = {}  # (pair, cond) -> the label

    def __new__(cls, pair, cond=()):
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise SpecError(f"edge pair must name two distinct variables, got ({i}, {j})")
        key = ((min(i, j), max(i, j)), tuple(sorted(int(c) for c in cond)))
        label = cls._table.get(key)
        if label is None:
            cond = key[1]
            repeated = [c for c, c2 in zip(cond, cond[1:]) if c == c2]  # cond is sorted
            if repeated:
                raise SpecError(f"conditioning set {cond} repeats variable {repeated[0]}")
            label = super().__new__(cls)
            label.pair, label.cond = key
            label.nodes = frozenset(key[0] + key[1])
            if set(label.pair) & set(label.cond):
                raise SpecError(f"conditioning set of {label} overlaps its conditioned pair")
            label = cls._table.setdefault(key, label)  # one object per key, even when two threads race
        return label

    def __reduce__(self):
        return EdgeLabel, (self.pair, self.cond)

    def __repr__(self):
        return f"EdgeLabel({self})"

    def __str__(self):
        compact = all(k <= 9 for k in self.pair + self.cond)
        sep = "" if compact else ","
        head = sep.join(str(k) for k in self.pair)
        if not self.cond:
            return head
        return head + "|" + sep.join(str(k) for k in self.cond)

    @classmethod
    def parse(cls, text: str) -> "EdgeLabel":
        return _parse_label(str(text))


@functools.lru_cache(maxsize=1024)
def _parse_label(text: str) -> EdgeLabel:
    text = text.strip()
    head, _, tail = text.partition("|")

    def ints(part):
        part = part.strip()
        if not part:
            return ()
        try:
            if "," in part:
                return tuple(int(p) for p in part.split(","))
            return tuple(int(ch) for ch in part)
        except ValueError:
            raise SpecError(f"edge label {text!r} must be digits, or integers separated by commas, "
                            f"on each side of '|'") from None

    pair = ints(head)
    if len(pair) != 2:
        raise SpecError(f"edge label {text!r} must name exactly two conditioned variables")
    return EdgeLabel(pair, ints(tail))


def expected_edges(structure: str, d: int) -> list[EdgeLabel]:
    """The full edge-label set implied by a structure, tree by tree, as a
    new list; the labels are built once per (structure, d)."""
    return list(_expected_edges(structure, d))


@functools.lru_cache(maxsize=64)
def _expected_edges(structure: str, d: int) -> tuple[EdgeLabel, ...]:
    if d < 2:
        raise SpecError(f"vine dimension must be at least 2, got {d}")
    if structure == TRIVARIATE:
        if d != 3:
            raise SpecError("trivariate structure requires dimension 3")
        return _expected_edges(DVINE, 3)  # 12, 23, 13|2
    if structure == DVINE:
        return tuple(
            EdgeLabel((i, i + k), range(i + 1, i + k))
            for k in range(1, d)
            for i in range(1, d - k + 1)
        )
    if structure == CVINE:
        return tuple(
            EdgeLabel((k, j), range(1, k))
            for k in range(1, d)
            for j in range(k + 1, d + 1)
        )
    raise SpecError(f"unknown structure {structure!r}; expected one of {STRUCTURES}")


def index_set(C, d: int) -> tuple:
    """The index set C as a sorted tuple of distinct labels; DomainError
    unless it is a nonempty subset of 1..d."""
    C = tuple(sorted(set(int(c) for c in C)))
    if not C or C[0] < 1 or C[-1] > d:
        raise DomainError(f"index set must be a subset of 1..{d}")
    return C


class VineSpec:
    """Dimension, structure, and one pair copula per edge."""

    def __init__(self, d: int, structure: str, edges: dict):
        try:
            whole = int(d)
            integral = whole == d and not isinstance(d, bool)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise SpecError(f"vine dimension must be an integer, got {d!r}")
        self.d = whole
        self.structure = str(structure)
        # checked before the labels are built: their count grows as d^2
        n_edges = whole * (whole - 1) // 2
        if whole >= 2 and len(edges) != n_edges:
            raise SpecError(f"a vine on {whole} variables has {n_edges} edges, got {len(edges)}")
        expected = _expected_edges(self.structure, self.d)
        normalised = {}
        for label, pc in edges.items():
            if not isinstance(label, EdgeLabel):
                label = EdgeLabel.parse(label)
            if not isinstance(pc, PairCopula):
                raise SpecError(f"edge {label} must map to a PairCopula")
            if label in normalised:
                raise SpecError(f"duplicate edge label {label}")
            normalised[label] = pc
        expected_set = set(expected)
        missing = [str(e) for e in expected if e not in normalised]
        extra = [str(e) for e in normalised if e not in expected_set]
        if missing or extra:
            raise SpecError(
                f"edge labels inconsistent with {self.structure} trees for d={self.d}: "
                f"missing {missing}, unexpected {extra}"
            )
        self.edges = {e: normalised[e] for e in expected}
        self._by_pair = {e.pair: normalised[e] for e in expected}

    def __repr__(self):
        return f"VineSpec(d={self.d}, structure={self.structure!r}, edges={len(self.edges)})"

    def copula(self, i: int, j: int) -> PairCopula:
        """Pair copula of conditioned pair (i, j); the conditioning set is
        implied by the structure."""
        key = (min(i, j), max(i, j))
        try:
            return self._by_pair[key]
        except KeyError:
            raise SpecError(f"no edge with conditioned pair {key} in this {self.structure}") from None

    def families(self):
        """Edge families in tree order."""
        return tuple(pc.family for pc in self.edges.values())

    def all_iev(self) -> bool:
        return all(pc.family == IEV for pc in self.edges.values())

    def is_trivariate(self) -> bool:
        """Whether the edges are 12, 23 and 13|2 (``trivariate``, or a 3-d ``dvine``)."""
        return tuple(self.edges) == _expected_edges(DVINE, 3)

    def mirrored(self) -> "VineSpec":
        """The trivariate vine (``is_trivariate``) relabelled by x1 <-> x3.

        Edges 12 and 23 swap and every measure is transposed, so
        (X3, X2, X1) follows the result when (X1, X2, X3) follows self.
        """
        if not self.is_trivariate():
            raise SpecError(f"the x1 <-> x3 mirror needs a vine with edges 12, 23, 13|2, not {self!r}")
        return VineSpec(3, self.structure, {
            "12": self.copula(2, 3).swapped(),
            "23": self.copula(1, 2).swapped(),
            "13|2": self.copula(1, 3).swapped(),
        })

    def hull(self, labels) -> tuple:
        """The nodes of the smallest sub-vine holding two or more labels: those
        of the first edge, in tree order (by node-set size), whose ``nodes`` hold them."""
        labels = sorted(set(int(v) for v in labels))
        if len(labels) < 2 or labels[0] < 1 or labels[-1] > self.d:
            raise SpecError(f"a sub-vine needs two or more nodes of 1..{self.d}, got {labels}")
        for label in self.edges:
            if label.nodes.issuperset(labels):
                return tuple(sorted(label.nodes))

    def marginal(self, nodes) -> "VineSpec":
        """The sub-vine on a node set, relabelled 1..len(nodes) in order.

        A node set of two or more nodes is that of a sub-vine when it is
        its own ``hull``; the edges whose ``nodes`` lie in it form that
        sub-vine, and the monotone relabelling keeps each edge's copula
        unswapped and the structure.  Any other node set raises SpecError.
        """
        nodes = tuple(sorted(set(int(v) for v in nodes)))
        hull = self.hull(nodes)
        if hull != nodes:
            raise SpecError(f"{list(nodes)} is not the node set of a sub-vine of this {self.structure}; "
                            f"the smallest one holding it is {list(hull)}")
        new = {v: k for k, v in enumerate(nodes, start=1)}
        edges = {
            EdgeLabel([new[v] for v in label.pair], [new[c] for c in label.cond]): pc
            for label, pc in self.edges.items()
            if label.nodes <= new.keys()
        }
        structure = DVINE if self.structure == TRIVARIATE and len(nodes) < 3 else self.structure
        return VineSpec(len(nodes), structure, edges)

    @classmethod
    def trivariate(cls, c12: PairCopula, c23: PairCopula, c13_2: PairCopula) -> "VineSpec":
        return cls(3, TRIVARIATE, {"12": c12, "23": c23, "13|2": c13_2})

    @classmethod
    def uniform(cls, structure: str, d: int, pc: PairCopula) -> "VineSpec":
        """All edges carry the same pair copula."""
        return cls(d, structure, {e: pc for e in expected_edges(structure, d)})

    # -- JSON document interface ------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dimension": self.d,
            "structure": self.structure,
            "edges": [
                {"label": str(label), "family": pc.family, "measure": pc.measure.to_dict()}
                for label, pc in self.edges.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "VineSpec":
        if not isinstance(doc, dict):
            raise SpecError("vine spec document must be a JSON object")
        extra = set(doc) - {"dimension", "structure", "edges"}
        if extra:
            raise SpecError(f"unknown keys in vine spec: {sorted(extra)}")
        missing = {"dimension", "structure", "edges"} - set(doc)
        if missing:
            raise SpecError(f"vine spec requires keys {sorted(missing)}")
        if not isinstance(doc["edges"], list):
            raise SpecError("'edges' must be a list")
        edges = {}
        for entry in doc["edges"]:
            if not isinstance(entry, dict):
                raise SpecError("each edge must be a JSON object")
            bad = set(entry) - {"label", "family", "measure"}
            if bad:
                raise SpecError(f"unknown keys in edge: {sorted(bad)}")
            want = {"label", "family", "measure"} - set(entry)
            if want:
                raise SpecError(f"edge requires keys {sorted(want)}")
            family = str(entry["family"]).lower()
            if family not in (EV, IEV):
                raise SpecError(f"edge family must be 'ev' or 'iev', got {entry['family']!r}")
            label = EdgeLabel.parse(entry["label"])
            if label in edges:
                raise SpecError(f"duplicate edge label {label}")
            try:
                measure = measure_from_dict(entry["measure"])
            except Exception as exc:
                raise SpecError(f"edge {label}: {exc}") from exc
            edges[label] = PairCopula(family, measure)
        return cls(doc["dimension"], doc["structure"], edges)

    @classmethod
    def from_json(cls, text: str) -> "VineSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def spec_hash(self) -> str:
        """Stable content hash used in simulation metadata."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
