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

Two routes to G are implemented: a direct dense LU inversion of H, and a
Schur-complement assembly that builds every block from the Cholesky
whitening of the Gram blocks and its own SVD of the whitened cross
matrix without ever forming H**(-1).  Agreement of the two routes is an
end-to-end check of the block algebra.

Both routes check max |H G - I| over all d**2 entries (d = p+q+2n) and
raise above 1e-6.  The product is formed one coordinate block of rows at
a time from X, Y and the kernel inverse, never from the dense H: X G3,
Y G4, X' G1 + k00 G3 + k01 G4 and Y' G2 + k01 G3 + k00 G4.  The real
data matrices multiply the complex G through its interleaved float view,
so the check costs 4 (p+q) n d real multiply-adds instead of the d**3
complex ones of a dense product, and it stays exact rather than a probe
estimate.  The Schur assembly uses the same block products.

The partial traces of G over the four blocks (each divided by n)
satisfy, for every realization and in exact arithmetic,

    m3 - m4 = (1 - z)(c1 - c2),
    m3 = c2 z (1 - z) m + (1 - c1 - c2) z,

with c1 = p/n, c2 = q/n and m the q-normalized trace of the resolvent of
the q x q correlation product.  These identities are used as machine-
precision self-tests of any computed G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import IndexLayout, kernel_inverse_2x2, sqrt_z
from .errors import DomainError, NumericalError, ParameterError
from .sampler import DataPair
from .scc_core import whitened_cross
from .spectral_model import SpectralModel, pi_limit, psi_control, stieltjes

__all__ = [
    "LinearizationMatrix",
    "ResolventBundle",
    "LocalLawReport",
    "build_H",
    "resolvent",
    "blocks_via_schur",
    "local_law_errors",
]

_RESIDUAL_LIMIT = 1e-6


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
    SVD callers; ``row_blocks`` multiplies by H without forming it.
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
        n, off = layout.n, layout.p + layout.q
        H = np.zeros((layout.dim, layout.dim), dtype=float if self.is_real else complex)
        H[layout.sl1, layout.sl3] = self.X
        H[layout.sl2, layout.sl4] = self.Y
        H[layout.sl3, layout.sl1] = self.X.T
        H[layout.sl4, layout.sl2] = self.Y.T
        idx = off + np.arange(n)
        diag, cross = self.kernel_inverse
        H[idx, idx] = diag
        H[n + idx, n + idx] = diag
        H[idx, n + idx] = cross
        H[n + idx, idx] = cross
        return H

    def row_blocks(self, G: np.ndarray):
        """Yield (rows, H[rows] @ G) for the four coordinate blocks of rows.

        G must be C-contiguous (its row blocks are then contiguous).  Each
        block is a fresh array, so callers may overwrite it.
        """
        layout = self.layout
        G1, G2, G3, G4 = (G[layout.block_slice(a)] for a in (1, 2, 3, 4))
        diag, cross = self.kernel_inverse
        yield layout.sl1, _real_times(self.X, G3)
        yield layout.sl2, _real_times(self.Y, G4)
        for rows, data, Gdata, own, other in ((layout.sl3, self.X, G1, G3, G4),
                                              (layout.sl4, self.Y, G2, G4, G3)):
            block = _real_times(data.T, Gdata)
            block += diag * own
            block += cross * other
            yield rows, block


def build_H(pair: DataPair, z) -> LinearizationMatrix:
    """H(z) for a pair.  Real symmetric for real z > 0, complex symmetric otherwise."""
    z = complex(z)
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
    product, recovered from the second data block of G.  The identity
    residual records max |H G - I| over every entry of the product,
    computed blockwise from the data matrices and the kernel inverse in
    O((p+q) n d) time and O(n d) extra memory (see the module docstring).
    """

    G: np.ndarray
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
        return max(abs(self.m3 - self.m4 - (1 - z) * (c1 - c2)),
                   abs(self.m3 - (c2 * z * (1 - z) * self.m + (1 - c1 - c2) * z)))


def _partial_traces(G: np.ndarray, layout: IndexLayout):
    n = layout.n
    return tuple(
        complex(np.trace(G[layout.block_slice(a), layout.block_slice(a)])) / n
        for a in (1, 2, 3, 4)
    )


def _identity_residual(lin: LinearizationMatrix, G: np.ndarray) -> float:
    """max |H G - I| over all d**2 entries, one coordinate block of rows at a time."""
    worst = 0.0
    for rows, block in lin.row_blocks(G):
        local = np.arange(rows.stop - rows.start)
        block[local, rows.start + local] -= 1.0
        worst = max(worst, float(np.abs(block).max()))
    return worst


def _enforce_residual(residual: float, z: complex) -> float:
    if residual > _RESIDUAL_LIMIT:
        raise NumericalError(
            f"resolvent identity residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:.0e} "
            f"at z = {z}",
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
    residual = _enforce_residual(_identity_residual(lin, G), lin.z)
    m1, m2, m3, m4 = _partial_traces(G, layout)
    Syy = pair.Y @ pair.Y.T
    m = complex(np.trace(G[layout.sl2, layout.sl2] @ Syy)) / layout.q
    return ResolventBundle(
        G=G, z=lin.z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
        identity_residual=residual, route="direct",
    )


def blocks_via_schur(pair: DataPair, z) -> ResolventBundle:
    """Assemble G(z) from the whitened SVD without inverting H.

    The data-corner block GL is the two-channel whitened resolvent.  With
    the whitened cross matrix M = Wx Sxy Wy' (Wx, Wy the inverse Cholesky
    factors), this route's own full SVD M = U diag(sv) V', and
    R1 = U (sv**2 - z)**(-1) U', R2 = V (sv**2 - z)**(-1) V', its blocks
    are Wx' R1 Wx, -z**(-1/2) Wx' R1 M Wy and Wy' R2 Wy: the same matrices
    for any whitening W with W S W' = I.  With D = diag(X, Y) and K the
    (un-inverted) kernel, the mixed blocks are G[right, left] = -K D' GL
    and the factor corner is K - K D' G[left, right].  Every product by D
    is split into its X and Y blocks and written straight into G.  As in
    resolvent(), identity residuals above 1e-6 raise a conditioning error.
    """
    lin = build_H(pair, z)
    z = lin.z
    if not (1e-8 < abs(z) < 1e8):
        raise ParameterError(f"|z| = {abs(z)} outside the supported range for this route")
    layout = lin.layout
    p, q, n = layout
    wc = whitened_cross(pair)
    U, sv, Vt = np.linalg.svd(wc.matrix)
    k = len(sv)
    lam_p = np.concatenate([sv ** 2, np.zeros(p - k)])
    lam_q = np.concatenate([sv ** 2, np.zeros(q - k)])
    if min(np.abs(lam_p - z).min(), np.abs(lam_q - z).min()) < 1e-12:
        raise DomainError(f"z = {z} coincides with a sample eigenvalue")
    R1 = (U * (1.0 / (lam_p - z))) @ U.T
    R2 = (Vt.T * (1.0 / (lam_q - z))) @ Vt
    sz = sqrt_z(z)
    Wx, Wy = wc.whiten_xx, wc.whiten_yy
    left, right = layout.sl_left, layout.sl_right
    G = np.empty((layout.dim, layout.dim), dtype=complex)
    G[:p, :p] = Wx.T @ R1 @ Wx
    cross = Wx.T @ R1 @ wc.matrix @ Wy
    G[:p, p:p + q] = -(1.0 / sz) * cross
    G[p:p + q, :p] = G[:p, p:p + q].T
    G[p:p + q, p:p + q] = Wy.T @ R2 @ Wy

    def apply_minus_kernel(cols: slice) -> None:
        # G[right, cols] = -K D' G[left, cols], with D' = diag(X', Y')
        top = _real_times(pair.X.T, G[:p, cols])
        bottom = _real_times(pair.Y.T, G[p:p + q, cols])
        G[layout.sl3, cols] = -(z * top + sz * bottom)
        G[layout.sl4, cols] = -(sz * top + z * bottom)

    apply_minus_kernel(left)
    G[left, right] = G[right, left].T
    apply_minus_kernel(right)
    idx = p + q + np.arange(n)
    G[idx, idx] += z
    G[n + idx, n + idx] += z
    G[idx, n + idx] += sz
    G[n + idx, idx] += sz

    residual = _enforce_residual(_identity_residual(lin, G), z)
    m1, m2, m3, m4 = _partial_traces(G, layout)
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
        return {
            "z": [self.z.real, self.z.imag],
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "entrywise_err": self.entrywise_err,
            "aniso_err": self.aniso_err,
            "avg_err": list(self.avg_err),
            "psi": self.psi,
            "phi_n": self.phi_n,
            "benchmarks": dict(self.benchmarks),
            "sectors": dict(self.sectors),
            "route": self.route,
        }


def _test_vectors(layout: IndexLayout, n_vectors: int, seed: int) -> np.ndarray:
    """Columns: random global unit vectors, per-block unit vectors, basis vectors."""
    rng = np.random.default_rng(seed)
    d = layout.dim
    cols = []
    for _ in range(n_vectors):
        v = rng.standard_normal(d)
        cols.append(v / np.linalg.norm(v))
    for a in (1, 2, 3, 4):
        sl = layout.block_slice(a)
        v = np.zeros(d)
        v[sl] = rng.standard_normal(sl.stop - sl.start)
        cols.append(v / np.linalg.norm(v))
    for pos in (0, layout.p, layout.p + layout.q, layout.p + layout.q + layout.n):
        v = np.zeros(d)
        v[pos] = 1.0
        cols.append(v)
    return np.array(cols).T


def local_law_errors(pair: DataPair, model: SpectralModel, z,
                     n_vectors: int = 24, seed: int = 0, route: str = "schur",
                     epsilon: float = 0.05) -> LocalLawReport:
    """Measure entrywise, anisotropic, and averaged deviations of G from the limit.

    z must lie in the spectral window epsilon <= Re z <= 1,
    n**(-1+epsilon) <= Im z <= 1/epsilon.  The anisotropic error is the
    maximum of |u' (G - Pi) v| over all ordered pairs from a deterministic
    test set: seeded uniform unit vectors, one unit vector supported on
    each coordinate block, and representative standard basis vectors (the
    full basis-pair sweep is the entrywise error).
    """
    z = complex(z)
    n = pair.n
    if not (epsilon <= z.real <= 1.0):
        raise DomainError(
            f"Re z = {z.real} outside the spectral window [{epsilon}, 1]"
        )
    eta_floor = n ** (-1.0 + epsilon)
    if not (eta_floor <= z.imag <= 1.0 / epsilon):
        raise DomainError(
            f"Im z = {z.imag} outside the admissible range "
            f"[n^(-1+eps), 1/eps] = [{eta_floor:.3e}, {1.0 / epsilon:.3e}]"
        )
    if route == "schur":
        bundle = blocks_via_schur(pair, z)
    elif route == "direct":
        bundle = resolvent(pair, z)
    else:
        raise ParameterError(f"route must be 'schur' or 'direct', got {route!r}")
    layout = bundle.layout
    # the bundle is private to this call, so G becomes G - Pi in place
    diff = bundle.G
    pi_limit(model, z, layout.p, layout.q, layout.n).subtract_from(diff)
    magnitude = np.abs(diff)

    entrywise = float(magnitude.max())

    sectors = {}
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            block = magnitude[layout.block_slice(a), layout.block_slice(b)]
            sectors[f"{a}{b}"] = float(block.max())
    mu = np.arange(layout.n)
    off = layout.p + layout.q
    sectors["paired34"] = float(magnitude[off + mu, off + layout.n + mu].max())

    vectors = _test_vectors(layout, n_vectors, seed)
    quad_forms = _real_times(vectors.T, diff) @ vectors
    aniso = float(np.abs(quad_forms).max())

    limit = stieltjes(model, z)
    avg_err = [
        abs(bundle.m1 - limit.m1),
        abs(bundle.m2 - limit.m2),
        abs(bundle.m3 - limit.m3),
        abs(bundle.m4 - limit.m4),
        abs(bundle.m - limit.m),
    ]

    psi = psi_control(model, z, n)
    phi_n = pair.meta.phi_n if pair.meta and pair.meta.phi_n is not None else n ** -0.5
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
        route=route,
        checks={"identity_residual": bundle.identity_residual,
                "trace_identity": bundle.trace_identity_residual},
    )
