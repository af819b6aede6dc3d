"""Linearization of the canonical correlation problem and its resolvent.

The (p+q+2n)-dimensional linearization matrix couples the data blocks to
two n-dimensional factor blocks through the 2x2 kernel
[[z, z^(1/2)], [z^(1/2), z]]:

    H(z) = [[0,      D     ],          D = [[X, 0], [0, Y]],
            [D',     Kinv(z)]]

where Kinv is the closed-form kernel inverse (z(z-1))**(-1)
[[z, -z^(1/2)], [-z^(1/2), z]] acting on each paired coordinate (mu,
mu + n); the kernel is never inverted numerically.  A real lam in (0, 1)
is a squared sample canonical correlation exactly when det H(lam) = 0,
and for Im z > 0 the resolvent G(z) = H(z)**(-1) exists and collects all
of the whitened two-channel resolvent blocks at once.

G is assembled by blocks_via_schur from a pair's z-free canonical_factor
(the whitening and the full SVD of the whitened cross matrix), which a
sweep computes once and reuses at every z; H is never formed or
inverted.  A point is fixed by that factor and z alone: the pair is
factor.pair, and the limit is the model at its finite-n ratios p/n, q/n.
The coordinate blocks of H and G, and the 2x2 kernels on their paired
coordinates, are written and read through _linalg.IndexLayout.  The
dense references, H itself, its LU inverse and the determinant check,
live with the tests (tests/oracles.py).

The assembly checks max |H G - I| over all d**2 entries (d = p+q+2n)
and raises above 1e-6.  The product is formed from X, Y and the kernel
inverse, one panel of at most _PANEL columns and one block of rows at a
time: X G3, Y G4, X' G1 + k00 G3 + k01 G4 and Y' G2 + k01 G3 + k00 G4.
The real data matrices multiply the complex G through its interleaved
float view, so the exact check costs 4 (p+q) n d real multiply-adds and
O(n _PANEL) memory.  The assembly builds G's (p+q) x (p+q) data corner
and then every column panel, data and factor alike, in one reused
d x _PANEL buffer; X' G1 and Y' G2 are the products that assembly forms
anyway, so its check adds only X G3 and Y G4.  Each finished panel goes
to the caller's visitor, and local_law_errors reduces them so: no d x d
array is allocated, and a point holds O(d _PANEL + (p+q)**2) memory, the
buffer and the data corner the largest of it.

The partial traces of G over the four blocks (each divided by n)
satisfy, for every realization and in exact arithmetic,

    m3 - m4 = (1 - z)(c1 - c2),
    m3 = c2 z (1 - z) m + (1 - c1 - c2) z,

with c1 = p/n, c2 = q/n and m the q-normalized trace of the resolvent of
the q x q correlation product.  These identities are used as machine-
precision self-tests of any computed G; local_law_errors raises when
either is violated by more than 1e-10.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import IndexLayout, kernel_inverse_2x2, sqrt_upper
from .errors import DomainError, NumericalError, ParameterError, reject
from .sampler import DataPair
from .scc_core import CanonicalFactor
from .spectral_model import make_model, pi_limit, psi_control, stieltjes, window_violations

__all__ = [
    "LinearizationMatrix",
    "ResolventBundle",
    "LocalLawReport",
    "build_H",
    "blocks_via_schur",
    "local_law_errors",
]

_RESIDUAL_LIMIT = 1e-6
_TRACE_LIMIT = 1e-10        # for the trace identities, at every z of the spectral window
_PANEL = 64
_N_RANDOM_VECTORS = 24    # seeded global unit vectors in the anisotropic test set


def _panels(start: int, stop: int) -> list[slice]:
    """Slices of at most _PANEL columns covering start..stop-1."""
    return [slice(c, min(c + _PANEL, stop)) for c in range(start, stop, _PANEL)]


def _real_times(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for a real A, without promoting A to complex when B is complex.

    A complex B (its last axis contiguous) is multiplied as its interleaved
    (re, im) float view: one real product instead of a complex one with a
    zero imaginary part.
    """
    if not np.iscomplexobj(B):
        return A @ B
    return (A @ B.view(np.float64)).view(np.complex128)


@dataclass(frozen=True, eq=False)
class LinearizationMatrix:
    """H(z) held by its blocks: the data matrices and the kernel inverse.

    _panel_residual multiplies a column panel by H without forming it.
    """

    X: np.ndarray
    Y: np.ndarray
    z: complex
    layout: IndexLayout

    @property
    def dim(self) -> int:
        return self.layout.dim

    @cached_property
    def kernel_inverse(self) -> tuple:
        """(diagonal, cross) entries of the closed-form 2x2 kernel inverse."""
        kinv = kernel_inverse_2x2(self.z)
        return kinv[0, 0], kinv[0, 1]


def build_H(pair: DataPair, z) -> LinearizationMatrix:
    """H(z) for a pair, held by its blocks.

    z must be finite, on or above the real axis, and off 0 and 1; any
    other z raises DomainError.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise DomainError(f"z = {z} is not finite")
    if z == 0 or z == 1:
        raise DomainError(f"kernel is singular at z = {z}")
    if z.imag < 0:
        raise DomainError(f"z = {z} lies below the real axis")
    return LinearizationMatrix(X=pair.X, Y=pair.Y, z=z,
                               layout=IndexLayout(pair.p, pair.q, pair.n))


@dataclass(eq=False)
class ResolventBundle:
    """A computed resolvent with its partial traces and self-check data.

    m1..m4 are the per-n traces of the four diagonal blocks of G; m is
    the q-normalized trace of the resolvent of the q x q correlation
    product, mean(1/(lam_q - z)) over the factor's eigenvalues, so the
    trace identity m3 = c2 z (1 - z) m + (1 - c1 - c2) z ties G to the
    sample spectrum.  The identity
    residual records max |H G - I| over every entry of the product,
    computed from the data matrices and the kernel inverse one column
    panel at a time, in O((p+q) n d) time and O(n _PANEL) extra memory
    (see the module docstring).
    """

    z: complex
    layout: IndexLayout
    m1: complex
    m2: complex
    m3: complex
    m4: complex
    m: complex
    identity_residual: float

    @property
    def c1(self) -> float:
        return self.layout.p / self.layout.n

    @property
    def c2(self) -> float:
        return self.layout.q / self.layout.n

    @property
    def trace_identity_residual(self) -> float:
        """Largest violation of the two exact trace identities of the module docstring."""
        z, c1, c2 = self.z, self.c1, self.c2
        return float(np.max([abs(self.m3 - self.m4 - (1 - z) * (c1 - c2)),
                             abs(self.m3 - (c2 * z * (1 - z) * self.m + (1 - c1 - c2) * z))]))


def _partial_traces(diagonal: np.ndarray, layout: IndexLayout):
    return tuple(complex(diagonal[sl].sum()) / layout.n for sl in layout.blocks)


def _panel_residual(lin: LinearizationMatrix, cols: slice, panel: np.ndarray,
                    top: np.ndarray, bottom: np.ndarray) -> float:
    """max |H G - I| over the column panel G[:, cols], given X' G1 and Y' G2 on it.

    panel's last axis must be contiguous.  top and bottom become the
    panel's factor rows of H G.  A NaN in the panel makes the result NaN.
    """
    layout = lin.layout
    s1, s2, s3, s4 = layout.blocks
    G3, G4 = panel[s3], panel[s4]
    diag, cross = lin.kernel_inverse
    for block, own, other in ((top, G3, G4), (bottom, G4, G3)):
        block += diag * own
        block += cross * other
    worst = []
    for rows, block in ((s1, _real_times(lin.X, G3)), (s2, _real_times(lin.Y, G4)),
                        (s3, top), (s4, bottom)):
        layout.diagonal(block, rows, cols, -rows.start)[...] -= 1.0
        worst.append(np.abs(block).max())
    return float(np.max(worst))


def _enforce(check: str, residual: float, limit: float, z: complex) -> float:
    if not residual <= limit:       # a NaN residual fails too
        raise NumericalError(
            f"{check} residual {residual:.3e} exceeds {limit:.0e} at z = {z}",
            achieved=residual,
        )
    return residual


def blocks_via_schur(factor: CanonicalFactor, z, *, visit) -> ResolventBundle:
    """Assemble G(z) for factor.pair from its CanonicalFactor without inverting H.

    With the factor's A, B, sv and lam, the data-corner block GL, the
    two-channel whitened resolvent, has the blocks A diag(1/(lam - z)) A',
    -z**(-1/2) A diag(sv/(lam - z)) B' and B diag(1/(lam - z)) B'.  With
    D = diag(X, Y) and K the (un-inverted) kernel, G[right, left] =
    -K D' GL and the factor corner is K - K D' G[left, right].  GL is
    built first, and then every panel of
    at most _PANEL columns in one reused d x _PANEL buffer, where its
    identity residual is taken (see the module docstring).  A data panel
    starts from GL[:, cols].  The factor columns go by blocks mus of at
    most _PANEL of the n factor indices: X[:, mus]' GL[s1] and
    Y[:, mus]' GL[s2], formed once per block, give the data rows of the
    block's panel in each factor block, as G[left, right] is
    G[right, left]'.
    Each finished panel G[:, cols] is passed to visit(cols, panel), the
    data panels first; the visitor may overwrite the panel, and no d x d
    G is kept.  Identity residuals above 1e-6 raise a NumericalError.
    """
    pair = factor.pair
    lin = build_H(pair, z)
    z = lin.z
    if not (1e-8 < abs(z) < 1e8):
        raise ParameterError(f"|z| = {abs(z)} outside the supported range")
    layout = lin.layout
    lam_p, lam_q = factor.lam_p, factor.lam_q
    if min(np.abs(lam_p - z).min(), np.abs(lam_q - z).min()) < 1e-12:
        raise DomainError(f"z = {z} coincides with a sample eigenvalue")
    A, B, k = factor.A, factor.B, len(factor.sv)
    X, Y = pair.X, pair.Y
    sz = sqrt_upper(z)
    d, n = layout.dim, layout.n
    s1, s2, s3, s4 = layout.blocks
    data = slice(s1.start, s2.stop)     # the data corner's rows, and its columns
    GL = np.empty((data.stop, data.stop), dtype=complex)     # G[data, data]

    def weighted_gram(left, weights, right):    # left diag(weights) right'
        return _real_times(left, np.multiply(weights[:, None], right.T, order="C"))

    GL[s1, s1] = weighted_gram(A, 1.0 / (lam_p - z), A)
    cross = -factor.sv / (sz * (lam_q[:k] - z))
    GL[s1, s2] = weighted_gram(A[:, :k], cross, B[:, :k])
    GL[s2, s1] = GL[s1, s2].T
    GL[s2, s2] = weighted_gram(B, 1.0 / (lam_q - z), B)

    diagonal = np.empty(d, dtype=complex)
    buffer = np.empty((d, min(_PANEL, max(data.stop, n))), dtype=complex)
    residuals = []

    def finish(cols: slice, panel: np.ndarray) -> None:
        # G[right, cols] = -K D' G[left, cols], with D' = diag(X', Y'), plus K
        top = _real_times(X.T, panel[s1])
        bottom = _real_times(Y.T, panel[s2])
        for rows, own, other in ((s3, top, bottom), (s4, bottom, top)):
            block = np.multiply(own, -z, out=panel[rows])
            block -= sz * other
        layout.add_kernel(panel, z, sz, z, cols)
        diagonal[cols] = panel[cols].diagonal()
        residuals.append(_panel_residual(lin, cols, panel, top, bottom))
        visit(cols, panel)

    for cols in _panels(0, data.stop):
        panel = buffer[:, : cols.stop - cols.start]
        panel[data] = GL[:, cols]
        finish(cols, panel)
    for mus in _panels(0, n):
        # G[data, right] is the transpose of -K D' GL, the G[right, data]
        # that finish forms on the data panels, taken here on rows mus
        x = _real_times(X[:, mus].T, GL[s1])
        y = _real_times(Y[:, mus].T, GL[s2])
        for right, own, other in ((s3, x, y), (s4, y, x)):
            panel = buffer[:, : mus.stop - mus.start]
            rows = np.multiply(own.T, -z, out=panel[data])
            rows -= sz * other.T
            finish(slice(right.start + mus.start, right.start + mus.stop), panel)

    residual = _enforce("resolvent identity", float(np.max(residuals)), _RESIDUAL_LIMIT, z)
    m1, m2, m3, m4 = _partial_traces(diagonal, layout)
    m = complex(np.mean(1.0 / (lam_q - z)))
    return ResolventBundle(z=z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
                           identity_residual=residual)


@dataclass(eq=False)
class LocalLawReport:
    """Finite-n deviations of G(z) from its block-constant limit.

    avg_err holds |m_alpha - limit| for alpha = 1..4 followed by
    |m - limit|.  benchmarks carries the entrywise reference
    phi_n + psi(z) and the averaged reference 1/(n eta); sectors is the
    entrywise maximum split by block pair, with the paired factor
    coordinates (mu, mu + n) reported separately.  checks holds the
    resolvent's self-check residuals (identity_residual,
    trace_identity); they describe the computation rather than the
    deviation, so to_json_dict leaves them out.
    """

    z: complex
    n: int
    p: int
    q: int
    entrywise_err: float
    aniso_err: float
    avg_err: list[float]
    psi: float
    phi_n: float
    benchmarks: dict = field(default_factory=dict)
    sectors: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        del d["checks"]
        return d | {"z": [self.z.real, self.z.imag]}


@lru_cache(maxsize=4)
def _test_vectors(layout: IndexLayout, seed: int) -> np.ndarray:
    """Columns: random global unit vectors, per-block unit vectors, basis vectors.

    Every (E, eta) point of a sweep uses the same set, so it is built once
    per (layout, seed) and shared read-only.
    """
    rng = np.random.default_rng(seed)
    d = layout.dim
    cols = []
    for _ in range(_N_RANDOM_VECTORS):
        v = rng.standard_normal(d)
        cols.append(v / np.linalg.norm(v))
    for sl in layout.blocks:
        v = np.zeros(d)
        v[sl] = rng.standard_normal(sl.stop - sl.start)
        cols.append(v / np.linalg.norm(v))
    for sl in layout.blocks:            # the first coordinate of each block
        v = np.zeros(d)
        v[sl.start] = 1.0
        cols.append(v)
    vectors = np.array(cols).T
    vectors.setflags(write=False)
    return vectors


def local_law_errors(factor: CanonicalFactor, z, seed: int = 0,
                     epsilon: float = 0.05) -> LocalLawReport:
    """Measure entrywise, anisotropic, and averaged deviations of G from the limit.

    G is factor.pair's resolvent, and the limit is that of the finite-n
    ratios p/n, q/n.  z must lie in the spectral window
    epsilon <= Re z <= 1, n**(-1+epsilon) <= Im z <= 1/epsilon.  The anisotropic error is the
    maximum of |u' (G - Pi) v| over all ordered pairs from a deterministic
    test set: seeded uniform unit vectors, one unit vector supported on
    each coordinate block, and representative standard basis vectors (the
    full basis-pair sweep is the entrywise error).  G is assembled by
    blocks_via_schur from the factor.  Each column panel of G is
    reduced as the assembly finishes it: Pi is subtracted on the panel,
    the sector maxima and paired34 take its entries, and V' (G - Pi) its
    columns, with V the test set; (V' (G - Pi)) V is formed once at the
    end, so no d x d array is allocated.  A z outside the window raises a
    DomainError, and a trace-identity residual above 1e-10 a
    NumericalError.
    """
    z = complex(z)
    pair = factor.pair
    n = pair.n
    reject(window_violations(n, epsilon, z.real, z.real, z.imag, z.imag), DomainError)
    layout = IndexLayout(pair.p, pair.q, n)
    pi = pi_limit(layout, z)
    vectors = _test_vectors(layout, seed)
    left_forms = np.empty((vectors.shape[1], layout.dim), dtype=complex)    # V' (G - Pi)
    sectors = {f"{a}{b}": 0.0 for a in range(1, 5) for b in range(1, 5)}
    s4 = layout.blocks[3]
    paired = 0.0

    def reduce(cols: slice, panel: np.ndarray) -> None:
        # the panel is private to this call, so it becomes (G - Pi)[:, cols] in place
        nonlocal paired
        pi.subtract_from(panel, cols)
        for b, block in enumerate(layout.blocks, 1):
            inside = layout.overlap(block, cols)
            if inside.start < inside.stop:
                for a, rows in enumerate(layout.blocks, 1):
                    key = f"{a}{b}"
                    sectors[key] = max(sectors[key], float(np.abs(panel[rows, inside]).max()))
        entries = layout.diagonal(panel, s4, cols, -n)      # the entries (mu, mu + n)
        if entries.size:
            paired = max(paired, float(np.abs(entries).max()))
        left_forms[:, cols] = _real_times(vectors.T, panel)

    bundle = blocks_via_schur(factor, z, visit=reduce)
    trace_residual = _enforce("trace identity", bundle.trace_identity_residual,
                              _TRACE_LIMIT, z)
    entrywise = max(sectors.values())
    sectors["paired34"] = paired
    aniso = float(np.abs(left_forms @ vectors).max())

    limit = stieltjes(make_model(pair.p / n, pair.q / n), z)
    avg_err = [
        abs(bundle.m1 - limit.m1),
        abs(bundle.m2 - limit.m2),
        abs(bundle.m3 - limit.m3),
        abs(bundle.m4 - limit.m4),
        abs(bundle.m - limit.m),
    ]

    psi = psi_control(layout, z)
    phi_n = pair.meta.phi_n if pair.meta.phi_n is not None else n ** -0.5
    benchmarks = {
        "entrywise": phi_n + psi,
        "averaged": 1.0 / (n * z.imag),
    }
    return LocalLawReport(
        z=z,
        n=n,
        p=layout.p,
        q=layout.q,
        entrywise_err=entrywise,
        aniso_err=aniso,
        avg_err=[float(e) for e in avg_err],
        psi=psi,
        phi_n=float(phi_n),
        benchmarks=benchmarks,
        sectors=sectors,
        checks={"identity_residual": bundle.identity_residual,
                "trace_identity": trace_residual},
    )
