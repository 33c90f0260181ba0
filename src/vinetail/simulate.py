"""Seedable vine-copula simulation on exponential margins.

Sampling runs the pair-copula cascade of Aas, Czado, Frigessi & Bakken
(2009): uniforms are pushed through inverse conditional distributions edge
by edge, tree by tree, so that the joint law of each draw is exactly the
vine density of the specification.  One plan, compiled from the vine's edge
labels, serves every structure; each inversion keeps the conditional
distribution it produces, so h-functions are spent only on conditioners
that no inversion left behind.  The variables are drawn in the order
1, ..., d for D- and C-vines and 2, 1, 3 for the trivariate vine, whose
cascade then needs no h-function at all.

The cascade runs on exponential margins from end to end: each chunk's
uniforms are mapped to x = -ln(1 - u) once, every slot holds a conditional
distribution F as -ln(1 - F), and the steps call ``PairCopula.hinv_x`` and
``hfunc_x``, which neither validate nor clamp: only the uniforms, nudged
off {0, 1}, stay below x = 34.5, and nothing the steps produce is capped.
The last inversion of each variable leaves its coordinate.

Clouds are generated in fixed-size chunks whose substreams derive from
SeedSequence(seed, spawn_key=(chunk,)), making results independent of any
parallel execution plan; the PCG64 generator carries 128-bit state and is
recorded in the output metadata together with the spec hash.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyScaledError, DomainError, SpecError
from .vines import TRIVARIATE, VineSpec

__all__ = ["SampleCloud", "sample_vine", "scale_cloud"]

CHUNK = 65536
# rows per pass of the cascade over a chunk: the dozen arrays a solve keeps
# live then fit a 2 MB cache.  Every step is elementwise, so the draws do
# not depend on it
_BLOCK = 16384
# rows formatted per block by SampleCloud.to_csv
_CSV_BLOCK = 4096
_MAGIC = b"VINETCLD"
_VERSION = 1


@dataclass(frozen=True)
class SampleCloud:
    """n x d exponential-margin samples plus provenance."""

    values: np.ndarray
    seed: int
    scale: float = 0.0
    spec_hash: str = ""
    generator: str = ""
    chunk_size: int = CHUNK

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DomainError("cloud values must be a 2-d array")
        if np.any(v < 0.0) or np.any(~np.isfinite(v)):
            raise DomainError("cloud coordinates must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def scaled(self) -> bool:
        return self.scale != 0.0

    # -- serialisation ------------------------------------------------------

    def to_csv(self, path):
        header = ",".join(f"x{i}" for i in range(1, self.d + 1))
        # 17 significant digits round-trip every double; rows go through
        # tolist() a block at a time, so the Python floats of the whole
        # cloud never exist at once
        row = ",".join(["%.17g"] * self.d) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for start in range(0, self.n, _CSV_BLOCK):
                fh.writelines(row % tuple(r) for r in self.values[start : start + _CSV_BLOCK].tolist())
        self._write_meta(str(path))

    def to_binary(self, path):
        with open(path, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<II", _VERSION, 0))
            fh.write(struct.pack("<QQdq", self.n, self.d, self.scale, self.seed))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        self._write_meta(str(path))

    def _write_meta(self, path):
        meta = {
            "n": self.n,
            "d": self.d,
            "seed": self.seed,
            "scale": self.scale,
            "spec_hash": self.spec_hash,
            "generator": self.generator,
            "chunk_size": self.chunk_size,
            "numpy_version": np.__version__,
        }
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    @classmethod
    def from_binary(cls, path) -> "SampleCloud":
        """Read a cloud written by ``to_binary``, with the provenance kept in
        its ``.meta.json`` sidecar when that file exists."""
        path = str(path)
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) != 16 or head[:8] != _MAGIC:
                raise SpecError("not a vinetail cloud file (bad magic)")
            version, _ = struct.unpack("<II", head[8:])
            if version != _VERSION:
                raise SpecError(f"unsupported cloud file version {version}")
            fields = fh.read(32)
            if len(fields) != 32:
                raise SpecError("truncated cloud file: incomplete header")
            n, d, scale, seed = struct.unpack("<QQdq", fields)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != n * d * 8:
                raise SpecError(f"cloud file payload has {size} bytes, the header's {n} x {d} needs {n * d * 8}")
            data = np.frombuffer(fh.read(size), dtype="<f8").reshape(n, d)
        cloud = cls(values=data.copy(), seed=int(seed), scale=float(scale))
        meta_path = path + ".meta.json"
        return cloud._with_meta(meta_path) if os.path.exists(meta_path) else cloud

    def _with_meta(self, meta_path) -> "SampleCloud":
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecError(f"unreadable cloud metadata {meta_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise SpecError(f"cloud metadata {meta_path} must be a JSON object")
        for key, value in (("n", self.n), ("d", self.d), ("seed", self.seed), ("scale", self.scale)):
            if meta.get(key) != value:
                raise SpecError(f"cloud metadata {key}={meta.get(key)!r} disagrees with the file header ({value!r})")
        chunk_size = meta.get("chunk_size", CHUNK)
        if not isinstance(chunk_size, int) or chunk_size < 1:
            raise SpecError(f"cloud metadata chunk_size={chunk_size!r} is not a positive integer")
        return replace(
            self,
            spec_hash=str(meta.get("spec_hash", "")),
            generator=str(meta.get("generator", "")),
            chunk_size=chunk_size,
        )


def _open_exponentials(rng, shape):
    # [0, 1) from the generator, nudged off the boundary so that exact zeros
    # can serve as h-function conditioners, then x = -ln(1 - u)
    u = np.clip(rng.random(shape), 1e-15, 1.0 - 1e-15)
    return -np.log1p(-u)


def _compile_cascade(spec: VineSpec):
    """The pair-copula sampling cascade (Aas et al. 2009) as a flat plan.

    Slot (a, D) holds F(x_a | x_D) on the exponential scale, as
    -ln(1 - F).  Variable i, drawn after the set S, starts in slot (i, S)
    with its uniform and inverts one edge per tree, from the edge on
    S u {i} down to tree 1; each inversion leaves F(x_i | D) for a smaller
    D in its own slot.  A conditioner F(x_b | D) not yet in a slot is built
    by h-functions the first time it is needed, from the edge on D u {b}.
    Slots 0..d-1 hold the chunk's uniforms, mapped to -ln(1 - u) (slot k
    for variable k + 1).  A step is (method, pc, out, target, cond), with
    method ``hinv_x`` or ``hfunc_x`` and pc oriented to condition on its
    second argument.  Returns the steps and the slots of x_1, ..., x_d.
    """
    # the trivariate vine draws x2 first: F(x1 | x2) is then its own
    # uniform, and the cascade needs no h-function
    order = (2, 1, 3) if spec.structure == TRIVARIATE else tuple(range(1, spec.d + 1))
    by_nodes = {frozenset(e.pair + e.cond): e for e in spec.edges}
    slot = {(i, frozenset(order[:k])): i - 1 for k, i in enumerate(order)}
    steps = []

    def edge(a, cond):
        # the edge on cond u {a} pairs a with one c in cond
        label = by_nodes[cond | {a}]
        (c,) = set(label.pair) - {a}
        pc = spec.edges[label]
        return (pc.swapped() if c == label.pair[0] else pc), c, cond - {c}

    def add(method, pc, target, cond_slot):
        steps.append((method, pc, spec.d + len(steps), target, cond_slot))
        return steps[-1][2]

    def conditioner(b, cond):
        if (b, cond) not in slot:
            pc, c, rest = edge(b, cond)
            slot[b, cond] = add("hfunc_x", pc, conditioner(b, rest), conditioner(c, rest))
        return slot[b, cond]

    for k, i in enumerate(order):
        cond = frozenset(order[:k])
        while cond:
            pc, c, rest = edge(i, cond)
            slot[i, rest] = add("hinv_x", pc, slot[i, cond], conditioner(c, rest))
            cond = rest
    return steps, [slot[i, frozenset()] for i in range(1, spec.d + 1)]


def _run_cascade(steps, outs, x):
    vals = list(x) + [None] * len(steps)
    for method, pc, out, target, cond in steps:
        # looked up on the instance, so that a patched PairCopula.hinv_x or
        # .hfunc_x sees every step
        vals[out] = getattr(pc, method)(vals[target], vals[cond])
    return np.column_stack([vals[s] for s in outs])


def _whole(value, what: str, lowest: int) -> int:
    """value as an int >= lowest; integral floats such as 1e6 pass."""
    try:
        whole = int(value)
        ok = whole == value and whole >= lowest
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return whole


def sample_vine(spec: VineSpec, n: int, seed: int, chunk_size: int = CHUNK) -> SampleCloud:
    """n independent draws of the vine on exponential margins (unscaled).

    Deterministic in (seed, chunk_size): chunk c uses the substream
    default_rng(SeedSequence(seed, spawn_key=(c,))), so the cloud does not
    depend on how chunks are scheduled.
    """
    n, seed = _whole(n, "sample count", 1), _whole(seed, "seed", 0)
    if not isinstance(chunk_size, int) or chunk_size < 1:
        raise DomainError(f"chunk_size must be a positive integer, got {chunk_size!r}")
    steps, outs = _compile_cascade(spec)
    out = np.empty((n, spec.d))
    start = 0
    chunk_idx = 0
    while start < n:
        m = min(chunk_size, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_idx,)))
        # one contiguous row per variable
        x = np.ascontiguousarray(_open_exponentials(rng, (m, spec.d)).T)
        rows = out[start : start + m]
        for i in range(0, m, _BLOCK):
            rows[i : i + _BLOCK] = _run_cascade(steps, outs, x[:, i : i + _BLOCK])
        start += m
        chunk_idx += 1
    return SampleCloud(
        values=out,
        seed=seed,
        scale=0.0,
        spec_hash=spec.spec_hash(),
        generator=f"numpy-pcg64/seedseq(entropy={seed},spawn_key=(chunk,))",
        chunk_size=chunk_size,
    )


def scale_cloud(cloud: SampleCloud) -> SampleCloud:
    """Divide every coordinate by ln(n), the exponential-margin scaling."""
    if cloud.scaled:
        raise AlreadyScaledError("cloud is already scaled")
    if cloud.n < 2:
        raise DomainError("scaling needs at least two samples")
    factor = float(np.log(cloud.n))
    return replace(cloud, values=cloud.values / factor, scale=factor)
