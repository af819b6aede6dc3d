"""Linearization of the canonical correlation problem and its resolvent.

The (p+q+2n)-dimensional linearization matrix couples the data blocks to
two n-dimensional factor blocks through the 2x2 kernel
[[z, z^(1/2)], [z^(1/2), z]]:

    H(z) = [[0,      D     ],          D = [[X, 0], [0, Y]],
            [D',     Kinv(z)]]

where Kinv is the closed-form kernel inverse (z(z-1))**(-1)
[[z, -z^(1/2)], [-z^(1/2), z]] acting on each paired coordinate (mu,
mu + n); the kernel is never inverted numerically.  A real lam in (0, 1)
is a squared sample canonical correlation exactly when det H(lam) = 0
(det_characterization_residual checks this through the smallest singular
value of H(lam)), and for Im z > 0 the resolvent G(z) = H(z)**(-1) exists
and collects all of the whitened two-channel resolvent blocks at once.

Two routes to G are implemented: blocks_via_schur, a Schur-complement
assembly from a pair's z-free canonical_factor (the whitening and the
full SVD of the whitened cross matrix), which a sweep computes once and
reuses at every z; and resolvent(), a direct dense LU inversion of H.
local_law_errors always uses the Schur route.  resolvent() is the dense
reference: agreement of the two routes is an end-to-end check of the
block algebra.  The coordinate blocks of H and G, and the 2x2 kernels
on their paired coordinates, are written and read through
_linalg.IndexLayout.

Both routes check max |H G - I| over all d**2 entries (d = p+q+2n) and
raise above 1e-6.  The product is formed from X, Y and the kernel
inverse, one panel of at most _PANEL columns and one block of rows at a
time: X G3, Y G4, X' G1 + k00 G3 + k01 G4 and Y' G2 + k01 G3 + k00 G4.
The real data matrices multiply the complex G through its interleaved
float view, so the exact check costs 4 (p+q) n d real multiply-adds and
O(n _PANEL) memory.  The Schur route builds G's data columns first and
then each factor panel in one reused d x _PANEL buffer; X' G1 and Y' G2
are the products that assembly forms anyway, so its check adds only
X G3 and Y G4.  A caller may take the finished panels one by one
(blocks_via_schur's visit), and local_law_errors reduces them so: no
d x d array is allocated, and the largest are the d x (p+q) data columns
and the buffer.

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
from .scc_core import CanonicalFactor, canonical_factor
from .spectral_model import (SpectralModel, pi_limit, psi_control, stieltjes,
                             window_violations)

__all__ = [
    "LinearizationMatrix",
    "ResolventBundle",
    "LocalLawReport",
    "build_H",
    "det_characterization_residual",
    "resolvent",
    "blocks_via_schur",
    "local_law_errors",
]

_RESIDUAL_LIMIT = 1e-6
_TRACE_LIMIT = 1e-10        # for the trace identities, at every z of the spectral window
_PANEL = 128
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

    ``matrix`` builds the dense d x d array on first use, for the LU and
    SVD callers; _panel_residual multiplies a column panel by H without
    forming it.
    """

    X: np.ndarray
    Y: np.ndarray
    z: complex
    layout: IndexLayout

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def is_real(self) -> bool:
        """H is real symmetric exactly for real z > 0."""
        return self.z.imag == 0 and self.z.real > 0

    def _entry(self, value: complex):
        return value.real if self.is_real else value

    @property
    def kernel_inverse(self) -> tuple:
        """(diagonal, cross) entries of the closed-form 2x2 kernel inverse."""
        kinv = kernel_inverse_2x2(self.z)
        return self._entry(kinv[0, 0]), self._entry(kinv[0, 1])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense H(z): real for real z > 0, complex symmetric otherwise."""
        layout = self.layout
        s1, s2, s3, s4 = layout.blocks
        H = np.zeros((layout.dim, layout.dim), dtype=float if self.is_real else complex)
        H[s1, s3] = self.X
        H[s2, s4] = self.Y
        H[s3, s1] = self.X.T
        H[s4, s2] = self.Y.T
        diag, cross = self.kernel_inverse
        layout.add_kernel(H, diag, cross, diag)
        return H


def build_H(pair: DataPair, z) -> LinearizationMatrix:
    """H(z) for a pair.  Real symmetric for real z > 0, complex symmetric otherwise."""
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError(f"kernel is singular at z = {z}")
    if z.imag < 0:
        raise DomainError(f"z = {z} lies below the real axis")
    return LinearizationMatrix(X=pair.X, Y=pair.Y, z=z,
                               layout=IndexLayout(pair.p, pair.q, pair.n))


def det_characterization_residual(pair: DataPair, lam: float) -> float:
    """Relative smallest singular value of the linearization at a real point.

    For lam in (0, 1) that is a squared sample canonical correlation the
    linearization matrix H(lam) is singular, so this residual (smallest
    singular value over largest) vanishes to roundoff.
    """
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"determinant characterization needs 0 < lambda < 1, got {lam}")
    sv = np.linalg.svd(build_H(pair, lam).matrix, compute_uv=False)
    return float(sv[-1] / sv[0])


@dataclass(eq=False)
class ResolventBundle:
    """A computed resolvent with its partial traces and self-check data.

    m1..m4 are the per-n traces of the four diagonal blocks of G; m is
    the q-normalized trace of the resolvent of the q x q correlation
    product, recovered from the second data block of G.  The identity
    residual records max |H G - I| over every entry of the product,
    computed from the data matrices and the kernel inverse one column
    panel at a time, in O((p+q) n d) time and O(n _PANEL) extra memory
    (see the module docstring).  G is None when blocks_via_schur handed
    its panels to a visitor instead of keeping them.
    """

    G: np.ndarray | None
    z: complex
    layout: IndexLayout
    m1: complex
    m2: complex
    m3: complex
    m4: complex
    m: complex
    identity_residual: float
    route: str = "direct"

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
    s1, s2, s3, s4 = lin.layout.blocks
    G3, G4 = panel[s3], panel[s4]
    diag, cross = lin.kernel_inverse
    for block, own, other in ((top, G3, G4), (bottom, G4, G3)):
        block += diag * own
        block += cross * other
    worst = []
    for rows, block in ((s1, _real_times(lin.X, G3)), (s2, _real_times(lin.Y, G4)),
                        (s3, top), (s4, bottom)):
        on_diag = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
        block[on_diag - rows.start, on_diag - cols.start] -= 1.0
        worst.append(np.abs(block).max())
    return float(np.max(worst))


def _identity_residual(lin: LinearizationMatrix, G: np.ndarray) -> float:
    """max |H G - I| over all d**2 entries, in the Schur route's column panels."""
    s1, s2 = lin.layout.blocks[:2]
    worst = []
    for cols in _panels(0, s2.stop) + _panels(s2.stop, lin.dim):
        panel = G[:, cols]
        top, bottom = _real_times(lin.X.T, panel[s1]), _real_times(lin.Y.T, panel[s2])
        worst.append(_panel_residual(lin, cols, panel, top, bottom))
    return float(np.max(worst))


def _enforce(check: str, residual: float, limit: float, z: complex) -> float:
    if not residual <= limit:       # a NaN residual fails too
        raise NumericalError(
            f"{check} residual {residual:.3e} exceeds {limit:.0e} at z = {z}",
            achieved=residual,
        )
    return residual


def resolvent(pair: DataPair, z) -> ResolventBundle:
    """G(z) by dense LU inversion of H(z).

    A singular H, as at a real z where det H vanishes (a squared sample
    canonical correlation), and identity residuals above 1e-6 raise a
    NumericalError.
    """
    lin = build_H(pair, z)
    layout = lin.layout
    try:
        G = np.linalg.inv(lin.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linearization not invertible at z = {lin.z}: {exc}") from exc
    residual = _enforce("resolvent identity", _identity_residual(lin, G),
                        _RESIDUAL_LIMIT, lin.z)
    m1, m2, m3, m4 = _partial_traces(G.diagonal(), layout)
    Syy = pair.Y @ pair.Y.T
    s2 = layout.blocks[1]
    m = complex(np.trace(G[s2, s2] @ Syy)) / layout.q
    return ResolventBundle(
        G=G, z=lin.z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
        identity_residual=residual, route="direct",
    )


def blocks_via_schur(pair: DataPair, z, factor: CanonicalFactor | None = None, *,
                     visit=None) -> ResolventBundle:
    """Assemble G(z) from the pair's CanonicalFactor without inverting H.

    factor defaults to canonical_factor(pair).  With its A, B, sv and lam,
    the data-corner block GL, the two-channel whitened resolvent, has the
    blocks A diag(1/(lam - z)) A', -z**(-1/2) A diag(sv/(lam - z)) B' and
    B diag(1/(lam - z)) B'.  With D = diag(X, Y) and K the (un-inverted)
    kernel, G[right, left] = -K D' GL and the factor corner is
    K - K D' G[left, right].  G's data columns are built first; each
    panel of factor columns is then built in one reused buffer, and its
    identity residual taken there (see the module docstring).  Without
    visit the panels are copied into a full G.  With visit, each finished
    panel G[:, cols] is passed to visit(cols, panel) instead, the factor
    panels first and the data panels last; the visitor may overwrite the
    panel, and the bundle's G is None.  As in resolvent(), identity
    residuals above 1e-6 raise a conditioning error.
    """
    lin = build_H(pair, z)
    z = lin.z
    if not (1e-8 < abs(z) < 1e8):
        raise ParameterError(f"|z| = {abs(z)} outside the supported range for this route")
    if factor is None:
        factor = canonical_factor(pair)
    elif factor.pair is not pair:
        raise ParameterError("the canonical factor belongs to a different pair")
    layout = lin.layout
    lam_p, lam_q = factor.lam_p, factor.lam_q
    if min(np.abs(lam_p - z).min(), np.abs(lam_q - z).min()) < 1e-12:
        raise DomainError(f"z = {z} coincides with a sample eigenvalue")
    A, B, k = factor.A, factor.B, len(factor.sv)
    sz = sqrt_upper(z)
    d = layout.dim
    s1, s2, s3, s4 = layout.blocks
    data = slice(s1.start, s2.stop)     # the data corner's rows, and its columns
    data_cols = np.empty((d, data.stop), dtype=complex)     # G[:, data]

    def weighted_gram(left, weights, right):    # left diag(weights) right'
        return _real_times(left, np.multiply(weights[:, None], right.T, order="C"))

    data_cols[s1, s1] = weighted_gram(A, 1.0 / (lam_p - z), A)
    cross = -factor.sv / (sz * (lam_q[:k] - z))
    data_cols[s1, s2] = weighted_gram(A[:, :k], cross, B[:, :k])
    data_cols[s2, s1] = data_cols[s1, s2].T
    data_cols[s2, s2] = weighted_gram(B, 1.0 / (lam_q - z), B)

    G = None
    if visit is None:
        G = np.empty((d, d), dtype=complex)

        def visit(cols, panel):
            G[:, cols] = panel

    diagonal = np.empty(d, dtype=complex)

    def finish(cols: slice, panel: np.ndarray) -> float:
        # G[right, cols] = -K D' G[left, cols], with D' = diag(X', Y'), plus K
        top = _real_times(pair.X.T, panel[s1])
        bottom = _real_times(pair.Y.T, panel[s2])
        for rows, own, other in ((s3, top, bottom), (s4, bottom, top)):
            block = np.multiply(own, -z, out=panel[rows])
            block -= sz * other
        layout.add_kernel(panel, z, sz, z, cols)
        diagonal[cols] = panel[cols].diagonal()
        return _panel_residual(lin, cols, panel, top, bottom)

    residuals = [finish(cols, data_cols[:, cols]) for cols in _panels(0, data.stop)]
    buffer = np.empty((d, min(_PANEL, d - data.stop)), dtype=complex)
    for cols in _panels(data.stop, d):
        panel = buffer[:, : cols.stop - cols.start]
        panel[data] = data_cols[cols].T
        residuals.append(finish(cols, panel))
        visit(cols, panel)
    for cols in _panels(0, data.stop):      # last, as the factor panels read G[right, data]
        visit(cols, data_cols[:, cols])

    residual = _enforce("resolvent identity", float(np.max(residuals)), _RESIDUAL_LIMIT, z)
    m1, m2, m3, m4 = _partial_traces(diagonal, layout)
    m = complex(np.mean(1.0 / (lam_q - z)))
    return ResolventBundle(
        G=G, z=z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
        identity_residual=residual, route="schur",
    )


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
    route: str = "schur"
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


def local_law_errors(pair: DataPair, model: SpectralModel, z,
                     seed: int = 0, epsilon: float = 0.05,
                     factor: CanonicalFactor | None = None) -> LocalLawReport:
    """Measure entrywise, anisotropic, and averaged deviations of G from the limit.

    z must lie in the spectral window epsilon <= Re z <= 1,
    n**(-1+epsilon) <= Im z <= 1/epsilon.  The anisotropic error is the
    maximum of |u' (G - Pi) v| over all ordered pairs from a deterministic
    test set: seeded uniform unit vectors, one unit vector supported on
    each coordinate block, and representative standard basis vectors (the
    full basis-pair sweep is the entrywise error).  G is always
    assembled by blocks_via_schur, from factor (canonical_factor(pair))
    when one is given and from a fresh factor otherwise; resolvent() is
    the dense reference it is tested against.  Each column panel of G is
    reduced as the assembly finishes it: Pi is subtracted on the panel,
    the sector maxima and paired34 take its entries, and V' (G - Pi) its
    columns, with V the test set; (V' (G - Pi)) V is formed once at the
    end, so no d x d array is allocated.  A z outside the window raises a
    DomainError, and a trace-identity residual above 1e-10 a
    NumericalError.
    """
    z = complex(z)
    n = pair.n
    reject(window_violations(n, epsilon, z.real, z.real, z.imag, z.imag), DomainError)
    layout = IndexLayout(pair.p, pair.q, n)
    pi = pi_limit(model, z, *layout)
    vectors = _test_vectors(layout, seed)
    left_forms = np.empty((vectors.shape[1], layout.dim), dtype=complex)    # V' (G - Pi)
    sectors = {f"{a}{b}": 0.0 for a in range(1, 5) for b in range(1, 5)}
    first, second = layout.paired
    paired = 0.0

    def reduce(cols: slice, panel: np.ndarray) -> None:
        # the panel is private to this call, so it becomes (G - Pi)[:, cols] in place
        nonlocal paired
        pi.subtract_from(panel, cols)
        for b, block in enumerate(layout.blocks, 1):
            inside = slice(max(block.start, cols.start) - cols.start,
                           min(block.stop, cols.stop) - cols.start)
            if inside.start < inside.stop:
                for a, rows in enumerate(layout.blocks, 1):
                    key = f"{a}{b}"
                    sectors[key] = max(sectors[key], float(np.abs(panel[rows, inside]).max()))
        hit = (second >= cols.start) & (second < cols.stop)
        if hit.any():
            entries = panel[first[hit], second[hit] - cols.start]
            paired = max(paired, float(np.abs(entries).max()))
        left_forms[:, cols] = _real_times(vectors.T, panel)

    bundle = blocks_via_schur(pair, z, factor, visit=reduce)
    trace_residual = _enforce("trace identity", bundle.trace_identity_residual,
                              _TRACE_LIMIT, z)
    entrywise = max(sectors.values())
    sectors["paired34"] = paired
    aniso = float(np.abs(left_forms @ vectors).max())

    limit = stieltjes(model, z)
    avg_err = [
        abs(bundle.m1 - limit.m1),
        abs(bundle.m2 - limit.m2),
        abs(bundle.m3 - limit.m3),
        abs(bundle.m4 - limit.m4),
        abs(bundle.m - limit.m),
    ]

    psi = psi_control(model, z, n)
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
