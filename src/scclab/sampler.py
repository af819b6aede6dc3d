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
a given (dimensions, seed, law) triple.  One bit generator per pair is
re-keyed row by row rather than built anew for each row.

Apart from the Gaussian, whose ziggurat takes a varying number of words
and fills each row in place through the Generator, a row is one
random_raw call for exactly the 64-bit words the Generator would
consume: n for uniform, (n + 1) // 2 for Rademacher and n + (n + 1) // 2
for Pareto.  The words of up to 16 rows are then transformed at once
into their rows: a uniform is (w >> 11) * 2**-53, as Generator.random
makes it; a sign is bit 31 of each 32-bit half, low half first, the bits
rng.integers(0, 2, n) turns into signs; and a Pareto entry is
t0 u**(-1/beta) times a sign, its n uniforms before its signs.  The
stream is that of the Generator calls, bit for bit.

The truncation pipeline clips the unit-scale entries at n**(1/2 - c_phi)
(equivalently: clips the 1/sqrt(n)-scale entries at n**(-c_phi)), zeroing
anything larger, then rescales by the exact standard deviation of the
clipped base law (every law is symmetric, so the clipped mean is zero) so
the output again has mean zero and entry variance exactly 1/n with
bounded support of order n**(-c_phi).

_LAWS is the one law registry: each law's words per row and block
transform, support level and clipped standard deviation.  This module
owns the rules on what it is given (the law and its tail exponent, the
dimensions, the seed and the truncation exponent), each as a
*_violations function that config.validate reuses; they stay out of
__all__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError, reject

__all__ = [
    "LAWS",
    "PairMeta",
    "DataPair",
    "sample_gaussian",
    "sample_bounded",
    "sample_heavy_tail",
    "truncate_center_rescale",
]

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)
_BLOCK_ROWS = 16        # rows of raw words per block transform: bounds its temporaries


def _unit_uniforms(words: np.ndarray, out: np.ndarray) -> None:
    # Generator.random on each word: its top 53 bits, exact as a float, times 2**-53
    np.right_shift(words, 11, out=out)
    out *= 2.0 ** -53


def _rademacher(words: np.ndarray, out: np.ndarray, scale: float, beta: float | None) -> None:
    # +-scale from the bits rng.integers(0, 2, n) draws: bit 31 of each
    # 32-bit half, low half first (the little-endian view fixes that order
    # on any host), set meaning +; the unused half at odd n ends the row
    np.right_shift(words.view("<u4")[:, :out.shape[1]], 31, out=out)
    out *= 2.0 * scale
    out -= scale


def _uniform(words: np.ndarray, out: np.ndarray, scale: float, beta: float | None) -> None:
    _unit_uniforms(words, out)
    out *= 2.0
    out -= 1.0
    out *= _UNIFORM_HALF_WIDTH
    out *= scale


def _pareto(words: np.ndarray, out: np.ndarray, scale: float, beta: float) -> None:
    # t0 u**(-1/beta) times a sign, then the scale: a sign times the scale
    # is exact, so one product with +-scale rounds as the two did
    n = out.shape[1]
    _unit_uniforms(words[:, :n], out)
    np.power(out, -1.0 / beta, out=out)
    out *= math.sqrt((beta - 2.0) / beta)
    signs = np.empty_like(out)
    _rademacher(words[:, n:], signs, scale, beta)
    out *= signs


def _pareto_clipped_std(T: float, beta: float) -> float:
    t0 = math.sqrt((beta - 2.0) / beta)
    if T < t0:
        return 0.0
    return math.sqrt(max(1.0 - beta * t0 ** beta * T ** (2.0 - beta) / (beta - 2.0), 0.0))


class _Law(NamedTuple):
    words: Callable | None      # n -> raw 64-bit words per row; None: drawn row by row
    transform: Callable | None  # (raw words, out rows, scale, beta): the entries into out
    scale: float | None         # support level on the unit scale; None when unbounded
    clipped_std: Callable       # (T, beta) -> standard deviation of u 1{|u| <= T}


# Every law is symmetric, so u 1{|u| <= T} has mean 0 and only its second
# moment needs a formula.  The Gaussian "support level" is the conventional
# scale at which its unbounded entries concentrate.  The Gaussian ziggurat
# takes a varying number of words, so its rows come from the Generator.
_LAWS = {
    "gaussian": _Law(
        None, None, 1.0,
        lambda T, beta: math.sqrt(math.erf(T / math.sqrt(2.0))
                                  - T * math.sqrt(2.0 / math.pi) * math.exp(-T * T / 2.0))),
    "rademacher": _Law(
        lambda n: (n + 1) // 2, _rademacher, 1.0,
        lambda T, beta: 1.0 if T >= 1.0 else 0.0),
    "uniform": _Law(
        lambda n: n, _uniform, _UNIFORM_HALF_WIDTH,
        lambda T, beta: (1.0 if T >= _UNIFORM_HALF_WIDTH
                         else math.sqrt(T ** 3 / (3.0 * _UNIFORM_HALF_WIDTH)))),
    "pareto": _Law(lambda n: n + (n + 1) // 2, _pareto, None, _pareto_clipped_std),
}
LAWS = tuple(_LAWS)


def law_violations(law: str, beta: float | None) -> list[str]:
    """Every violated entry-law constraint; an empty list means the law can be drawn."""
    if law not in LAWS:
        return [f"unknown law {law!r}; known laws: {LAWS}"]
    if law != "pareto":
        return []
    if beta is None:
        return ["law 'pareto' requires beta"]
    if not 2.0 < beta:
        return [f"tail exponent must satisfy beta > 2 for a finite variance, got beta={beta}"]
    return []


def dims_violations(p: int, q: int, n: int) -> list[str]:
    """The violated dimension constraint 0 < p, q < n, if any."""
    if 0 < p < n and 0 < q < n:
        return []
    return [f"dimensions must satisfy 0 < p, q < n, got p={p}, q={q}, n={n}"]


def seed_violations(seed: int) -> list[str]:
    """The violated seed constraint, if any: the seed is one 64-bit key word."""
    if 0 <= seed < 2 ** 64:
        return []
    return [f"seed must be an unsigned 64-bit integer, got {seed}"]


def truncation_violations(c_phi: float) -> list[str]:
    """The violated truncation-exponent constraint, if any."""
    if 0.0 < c_phi < 0.5:
        return []
    return [f"truncation exponent must satisfy 0 < c_phi < 1/2, got {c_phi}"]


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


def _fill_matrix(bit_gen: np.random.Philox, p: int, n: int, seed: int, matrix_id: int,
                 spec: _Law, beta: float | None) -> np.ndarray:
    key = [0, seed]             # (low, high) words of the key; plain ints set fastest
    zeros = [0, 0, 0, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(row: int) -> None:
        key[0] = (matrix_id << 32) | row
        bit_gen.state = fresh       # copied in: the stream of Philox(key=...) for this row

    scale = 1.0 / math.sqrt(n)
    out = np.empty((p, n))
    if spec.words is None:
        rng = np.random.Generator(bit_gen)
        for row in range(p):
            rekey(row)
            rng.standard_normal(out=out[row])
        out *= scale
        return out
    width = spec.words(n)
    raw = np.empty((min(p, _BLOCK_ROWS), width), dtype="<u8")
    for start in range(0, p, _BLOCK_ROWS):
        block = raw[:min(_BLOCK_ROWS, p - start)]
        for i, words in enumerate(block):
            rekey(start + i)
            words[:] = bit_gen.random_raw(width)
        spec.transform(block, out[start:start + len(block)], scale, beta)
    return out


def _sample(p: int, q: int, n: int, seed: int, law: str, beta: float | None = None) -> DataPair:
    reject(dims_violations(p, q, n) + seed_violations(seed) + law_violations(law, beta))
    spec = _LAWS[law]
    bit_gen = np.random.Philox(key=0)      # every row re-keys it, so X and Y share it
    X = _fill_matrix(bit_gen, p, n, seed, 0, spec, beta)
    Y = _fill_matrix(bit_gen, q, n, seed, 1, spec, beta)
    phi_n = None if spec.scale is None else spec.scale * n ** -0.5
    meta = PairMeta(distribution=law, seed=seed, phi_n=phi_n, beta=beta)
    return DataPair(X=X, Y=Y, meta=meta)


def sample_gaussian(p: int, q: int, n: int, seed: int) -> DataPair:
    """Standard Gaussian entries scaled to variance 1/n.

    The recorded support level is the conventional n**(-1/2): Gaussian
    entries are unbounded but concentrate at that scale.
    """
    return _sample(p, q, n, seed, "gaussian")


def sample_bounded(p: int, q: int, n: int, seed: int, law: str = "rademacher") -> DataPair:
    """Bounded-entry pair; law is "rademacher" or "uniform"."""
    if law not in ("rademacher", "uniform"):
        raise ParameterError(f"bounded law must be 'rademacher' or 'uniform', got {law!r}")
    return _sample(p, q, n, seed, law)


def sample_heavy_tail(p: int, q: int, n: int, seed: int, beta: float) -> DataPair:
    """Symmetric Pareto-type entries with tail exponent beta (> 2)."""
    return _sample(p, q, n, seed, "pareto", beta)


def truncate_center_rescale(pair: DataPair, c_phi: float) -> DataPair:
    """Clip entries at n**(-c_phi), recenter, and restore variance 1/n.

    Works on the unit-variance scale: u = sqrt(n) x is zeroed where
    |u| > n**(1/2 - c_phi), standardized by the exact standard deviation
    of the clipped base law (its mean is 0), and scaled back by 1/sqrt(n).
    """
    law, beta = pair.meta.distribution, pair.meta.beta
    reject(truncation_violations(c_phi) + law_violations(law, beta))
    n = pair.n
    threshold = n ** (0.5 - c_phi)
    sqrt_n = math.sqrt(n)
    std = _LAWS[law].clipped_std(threshold, beta)
    if std <= 0.0:
        raise ParameterError(
            f"truncation at level {threshold:.3e} removes all mass of "
            f"{law!r}: degenerate scale"
        )

    def transform(M: np.ndarray) -> np.ndarray:
        u = M * sqrt_n
        clipped = np.where(np.abs(u) <= threshold, u, 0.0)
        return clipped / (std * sqrt_n)

    X = transform(pair.X)
    Y = transform(pair.Y)
    meta = replace(pair.meta, phi_n=threshold / (std * sqrt_n), c_phi=c_phi)
    return DataPair(X=X, Y=Y, meta=meta)
