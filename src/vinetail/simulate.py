"""Seedable vine-copula simulation on exponential margins.

Sampling runs the standard h-function cascade: uniforms are pushed through
inverse conditional distributions edge by edge, tree by tree, so that the
joint law of each draw is exactly the vine density of the specification.
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
from .vines import CVINE, DVINE, TRIVARIATE, VineSpec

__all__ = ["SampleCloud", "sample_vine", "scale_cloud"]

CHUNK = 65536
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


def _open_uniforms(rng, shape):
    # [0, 1) from the generator; nudge exact zeros off the boundary so they
    # can serve as h-function conditioners
    w = rng.random(shape)
    return np.clip(w, 1e-15, 1.0 - 1e-15)


# middle-first order: reusing w1 = F(x1|x2) saves _cascade_dvine's one hfunc per row at d = 3
def _cascade_trivariate(spec, w):
    c12, c23, c13 = spec.copula(1, 2), spec.copula(2, 3), spec.copula(1, 3)
    u2 = w[:, 1]
    u1 = c12.hinv(w[:, 0], u2)
    # F(x3 | x1, x2) inverts through the tree-2 copula given F(x1|x2) = w1
    z = c13.swapped().hinv(w[:, 2], w[:, 0])
    u3 = c23.swapped().hinv(z, u2)
    return np.column_stack([u1, u2, u3])


def _h(spec, pair, target, cond, cond_member):
    pc = spec.copula(*pair)
    if cond_member == pair[0]:
        return pc.swapped().hfunc(target, cond)
    return pc.hfunc(target, cond)


def _hinv(spec, pair, target, cond, cond_member):
    pc = spec.copula(*pair)
    if cond_member == pair[0]:
        return pc.swapped().hinv(target, cond)
    return pc.hinv(target, cond)


def _cascade_dvine(spec, w):
    d = spec.d
    x = {1: w[:, 0]}
    v = {(1, 1): x[1]}
    x[2] = _hinv(spec, (1, 2), w[:, 1], v[1, 1], cond_member=1)
    v[2, 1] = x[2]
    v[2, 2] = _h(spec, (1, 2), v[1, 1], v[2, 1], cond_member=2)
    for i in range(3, d + 1):
        t = w[:, i - 1]
        for k in range(i - 1, 1, -1):
            t = _hinv(spec, (i - k, i), t, v[i - 1, 2 * k - 2], cond_member=i - k)
        t = _hinv(spec, (i - 1, i), t, v[i - 1, 1], cond_member=i - 1)
        x[i] = t
        if i == d:
            break
        v[i, 1] = x[i]
        v[i, 2] = _h(spec, (i - 1, i), v[i - 1, 1], v[i, 1], cond_member=i)
        v[i, 3] = _h(spec, (i - 1, i), v[i, 1], v[i - 1, 1], cond_member=i - 1)
        for j in range(2, i - 1):
            v[i, 2 * j] = _h(spec, (i - j, i), v[i - 1, 2 * j - 2], v[i, 2 * j - 1], cond_member=i)
            v[i, 2 * j + 1] = _h(spec, (i - j, i), v[i, 2 * j - 1], v[i - 1, 2 * j - 2], cond_member=i - j)
        if i > 2:
            v[i, 2 * i - 2] = _h(spec, (1, i), v[i - 1, 2 * i - 4], v[i, 2 * i - 3], cond_member=i)
    return np.column_stack([x[i] for i in range(1, d + 1)])


def _cascade_cvine(spec, w):
    d = spec.d
    x = {1: w[:, 0]}
    v = {(1, 1): x[1]}
    for i in range(2, d + 1):
        t = w[:, i - 1]
        for k in range(i - 1, 0, -1):
            t = _hinv(spec, (k, i), t, v[k, k], cond_member=k)
        x[i] = t
        if i == d:
            break
        v[i, 1] = t
        for j in range(1, i):
            v[i, j + 1] = _h(spec, (j, i), v[i, j], v[j, j], cond_member=j)
    return np.column_stack([x[i] for i in range(1, d + 1)])


_CASCADES = {TRIVARIATE: _cascade_trivariate, DVINE: _cascade_dvine, CVINE: _cascade_cvine}


def sample_vine(spec: VineSpec, n: int, seed: int, chunk_size: int = CHUNK) -> SampleCloud:
    """n independent draws of the vine on exponential margins (unscaled).

    Deterministic in (seed, chunk_size): chunk c uses the substream
    default_rng(SeedSequence(seed, spawn_key=(c,))), so the cloud does not
    depend on how chunks are scheduled.
    """
    n = int(n)
    if n < 1:
        raise DomainError("sample count must be at least 1")
    cascade = _CASCADES[spec.structure]
    out = np.empty((n, spec.d))
    start = 0
    chunk_idx = 0
    while start < n:
        m = min(chunk_size, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_idx,)))
        w = _open_uniforms(rng, (m, spec.d))
        u = cascade(spec, w)
        out[start : start + m] = -np.log1p(-u)
        start += m
        chunk_idx += 1
    return SampleCloud(
        values=out,
        seed=int(seed),
        scale=0.0,
        spec_hash=spec.spec_hash(),
        generator=f"numpy-pcg64/seedseq(entropy={int(seed)},spawn_key=(chunk,))",
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
