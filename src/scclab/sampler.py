"""Seedable samplers for independent data-matrix pairs.

A pair is two independent matrices X (p x n) and Y (q x n) whose entries
are i.i.d. with mean zero and variance 1/n; the 1/n is carried by the
entry scale, never re-applied downstream.  Supported base laws (on the
unit-variance scale): standard Gaussian, Rademacher signs, centered
uniform, and a symmetric Pareto-type law with tail exponent beta whose
scale t0 = sqrt((beta - 2)/beta) makes the variance exactly one.  The
fourth-moment tail condition that edge universality needs holds for the
Pareto family exactly when beta > 4.

Each row is its own counter-based Philox stream under the 128-bit key
(seed, matrix, row) with a zero counter, so a row does not depend on the
rows before it or on the matrix height, and a pair is bit-identical for
a given (dimensions, seed, law) triple.  One bit generator per matrix is
re-keyed row by row rather than built anew for each row.

The truncation pipeline clips the unit-scale entries at n**(1/2 - c_phi)
(equivalently: clips the 1/sqrt(n)-scale entries at n**(-c_phi)), zeroing
anything larger, then recenters and rescales by the exact mean and
standard deviation of the clipped base law so the output again has mean
zero and entry variance exactly 1/n with bounded support of order
n**(-c_phi).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

__all__ = [
    "LAWS",
    "TailSpec",
    "PairMeta",
    "DataPair",
    "sample_gaussian",
    "sample_bounded",
    "sample_heavy_tail",
    "truncate_center_rescale",
    "dump_pair",
    "load_pair",
]

_MAGIC = b"SCCPAIR1"
_VERSION = 1
_HEADER = struct.Struct("<8sIIIIQ16sddd")

_GAUSSIAN = "gaussian"
_RADEMACHER = "rademacher"
_UNIFORM = "uniform"
_PARETO = "pareto"
LAWS = (_GAUSSIAN, _RADEMACHER, _UNIFORM, _PARETO)

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)


@dataclass(frozen=True)
class TailSpec:
    """Symmetric Pareto-type tail: P(|u| > t) = (t / scale)**(-beta) for t >= scale."""

    beta: float
    scale: float

    def __post_init__(self):
        if not self.beta > 2.0:
            raise ParameterError(
                f"tail exponent must exceed 2 for a finite variance, got beta={self.beta}"
            )
        expected = math.sqrt((self.beta - 2.0) / self.beta)
        if abs(self.scale - expected) > 1e-12:
            raise ParameterError(
                f"scale {self.scale} does not normalize the variance to 1 "
                f"(expected {expected})"
            )

    @classmethod
    def make(cls, beta: float) -> "TailSpec":
        scale = math.sqrt((beta - 2.0) / beta) if beta > 2.0 else math.nan
        return cls(beta=beta, scale=scale)

    @property
    def satisfies_edge_tail_condition(self) -> bool:
        # t**4 P(|u| >= t) -> 0 iff beta > 4
        return self.beta > 4.0


@dataclass(frozen=True)
class PairMeta:
    """Provenance of a sampled pair.

    phi_n is the deterministic support level of the entries (None when the
    law is unbounded), beta the tail exponent when the law is Pareto, and
    c_phi the truncation exponent when the clipping pipeline was applied.
    """

    distribution: str
    seed: int
    phi_n: float | None
    beta: float | None = None
    c_phi: float | None = None


@dataclass(eq=False)
class DataPair:
    """Two independent data matrices with entry variance 1/n."""

    X: np.ndarray
    Y: np.ndarray
    meta: PairMeta

    @property
    def p(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.Y.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def _validate_dims(p: int, q: int, n: int, seed: int):
    if not (0 < p < n and 0 < q < n):
        raise ParameterError(f"dimensions must satisfy 0 < p, q < n, got p={p}, q={q}, n={n}")
    if not (0 <= seed < 2 ** 64):
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _draw_row(rng: np.random.Generator, n: int, distribution: str, tail: TailSpec | None):
    if distribution == _GAUSSIAN:
        return rng.standard_normal(n)
    if distribution == _RADEMACHER:
        return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0
    if distribution == _UNIFORM:
        return (2.0 * rng.random(n) - 1.0) * _UNIFORM_HALF_WIDTH
    if distribution == _PARETO:
        u = rng.random(n)
        signs = rng.integers(0, 2, n).astype(float) * 2.0 - 1.0
        return tail.scale * u ** (-1.0 / tail.beta) * signs
    raise ParameterError(f"unknown distribution tag {distribution!r}")


def _fill_matrix(p: int, n: int, seed: int, matrix_id: int, distribution: str,
                 tail: TailSpec | None) -> np.ndarray:
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    key = np.array([0, seed], dtype=np.uint64)      # (low, high) words of the key
    zeros = np.zeros(4, dtype=np.uint64)
    fresh = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((p, n))
    for row in range(p):
        key[0] = (matrix_id << 32) | row
        bit_gen.state = fresh       # copied in: the stream of Philox(key=...) for this row
        out[row] = _draw_row(rng, n, distribution, tail)
    out *= 1.0 / math.sqrt(n)
    return out


def _sample(p, q, n, seed, distribution, tail=None, phi_n=None, beta=None) -> DataPair:
    _validate_dims(p, q, n, seed)
    X = _fill_matrix(p, n, seed, 0, distribution, tail)
    Y = _fill_matrix(q, n, seed, 1, distribution, tail)
    meta = PairMeta(distribution=distribution, seed=seed, phi_n=phi_n, beta=beta)
    return DataPair(X=X, Y=Y, meta=meta)


def sample_gaussian(p: int, q: int, n: int, seed: int) -> DataPair:
    """Standard Gaussian entries scaled to variance 1/n.

    The recorded support level is the conventional n**(-1/2): Gaussian
    entries are unbounded but concentrate at that scale.
    """
    return _sample(p, q, n, seed, _GAUSSIAN, phi_n=n ** -0.5)


def sample_bounded(p: int, q: int, n: int, seed: int, law: str = _RADEMACHER) -> DataPair:
    """Bounded-entry pair; law is "rademacher" or "uniform"."""
    if law == _RADEMACHER:
        return _sample(p, q, n, seed, _RADEMACHER, phi_n=n ** -0.5)
    if law == _UNIFORM:
        return _sample(p, q, n, seed, _UNIFORM, phi_n=_UNIFORM_HALF_WIDTH * n ** -0.5)
    raise ParameterError(f"bounded law must be 'rademacher' or 'uniform', got {law!r}")


def sample_heavy_tail(p: int, q: int, n: int, seed: int, beta: float) -> DataPair:
    """Symmetric Pareto-type entries with tail exponent beta (> 2)."""
    tail = TailSpec.make(beta)
    return _sample(p, q, n, seed, _PARETO, tail=tail, phi_n=None, beta=beta)


def _truncated_moments(distribution: str, threshold: float, beta: float | None):
    """Exact mean and standard deviation of u * 1{|u| <= threshold}.

    Returns None when no analytic formula is wired up for the tag, in
    which case the caller falls back to pooled empirical estimates.  All
    built-in laws are symmetric, so the mean is 0 and only the clipped
    second moment needs care.
    """
    T = threshold
    if distribution == _GAUSSIAN:
        var = math.erf(T / math.sqrt(2.0)) - T * math.sqrt(2.0 / math.pi) * math.exp(-T * T / 2.0)
        return 0.0, math.sqrt(var)
    if distribution == _RADEMACHER:
        return (0.0, 1.0) if T >= 1.0 else (0.0, 0.0)
    if distribution == _UNIFORM:
        if T >= _UNIFORM_HALF_WIDTH:
            return 0.0, 1.0
        return 0.0, math.sqrt(T ** 3 / (3.0 * _UNIFORM_HALF_WIDTH))
    if distribution == _PARETO:
        t0 = math.sqrt((beta - 2.0) / beta)
        if T < t0:
            return 0.0, 0.0
        var = 1.0 - beta * t0 ** beta * T ** (2.0 - beta) / (beta - 2.0)
        return 0.0, math.sqrt(max(var, 0.0))
    return None


def truncate_center_rescale(pair: DataPair, c_phi: float) -> DataPair:
    """Clip entries at n**(-c_phi), recenter, and restore variance 1/n.

    Works on the unit-variance scale: u = sqrt(n) x is zeroed where
    |u| > n**(1/2 - c_phi), standardized by the exact moments of the
    clipped base law (pooled empirical moments when no formula is
    available), and scaled back by 1/sqrt(n).
    """
    if not (0.0 < c_phi < 0.5):
        raise ParameterError(f"truncation exponent must satisfy 0 < c_phi < 1/2, got {c_phi}")
    n = pair.n
    threshold = n ** (0.5 - c_phi)
    sqrt_n = math.sqrt(n)

    moments = _truncated_moments(pair.meta.distribution, threshold, pair.meta.beta)

    def transform(M: np.ndarray) -> np.ndarray:
        u = M * sqrt_n
        clipped = np.where(np.abs(u) <= threshold, u, 0.0)
        if moments is not None:
            mean, std = moments
        else:
            mean, std = float(clipped.mean()), float(clipped.std())
        if std <= 0.0:
            raise ParameterError(
                f"truncation at level {threshold:.3e} removes all mass of "
                f"{pair.meta.distribution!r}: degenerate scale"
            )
        return (clipped - mean) / (std * sqrt_n)

    X = transform(pair.X)
    Y = transform(pair.Y)
    if moments is not None:
        _, std = moments
        support = (threshold + 0.0) / (std * sqrt_n)
    else:
        support = float(max(np.abs(X).max(), np.abs(Y).max()))
    meta = replace(pair.meta, phi_n=support, c_phi=c_phi)
    return DataPair(X=X, Y=Y, meta=meta)


def dump_pair(pair: DataPair, path) -> None:
    """Write the pair as a flat binary: fixed header then X and Y row-major float64."""
    law = pair.meta.distribution.encode()
    if len(law) > 16:
        raise ParameterError(f"distribution tag too long to serialize: {pair.meta.distribution!r}")
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        pair.p,
        pair.q,
        pair.n,
        pair.meta.seed,
        law.ljust(16, b"\x00"),
        math.nan if pair.meta.phi_n is None else pair.meta.phi_n,
        math.nan if pair.meta.beta is None else pair.meta.beta,
        math.nan if pair.meta.c_phi is None else pair.meta.c_phi,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pair.X, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(pair.Y, dtype="<f8").tobytes())


def load_pair(path) -> DataPair:
    """Read a pair written by dump_pair, validating magic and version."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ParameterError(f"file {path} too short to hold a pair header")
    magic, version, p, q, n, seed, law, phi_n, beta, c_phi = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ParameterError(f"bad magic in {path}: {magic!r}")
    if version != _VERSION:
        raise ParameterError(f"unsupported pair format version {version}")
    expected = _HEADER.size + 8 * (p * n + q * n)
    if len(raw) != expected:
        raise ParameterError(f"file {path} has {len(raw)} bytes, expected {expected}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    X = body[: p * n].reshape(p, n).copy()
    Y = body[p * n:].reshape(q, n).copy()
    meta = PairMeta(
        distribution=law.rstrip(b"\x00").decode(),
        seed=seed,
        phi_n=None if math.isnan(phi_n) else phi_n,
        beta=None if math.isnan(beta) else beta,
        c_phi=None if math.isnan(c_phi) else c_phi,
    )
    return DataPair(X=X, Y=Y, meta=meta)
