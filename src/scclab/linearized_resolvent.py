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
Schur-complement assembly that builds every block from the SVD of the
whitened cross matrix without ever forming H**(-1).  Agreement of the
two routes is an end-to-end check of the block algebra.

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

import numpy as np

from ._linalg import (
    IndexLayout,
    kernel_inverse_2x2,
    kernel_mul_left,
    kernel_mul_right,
    sqrt_z,
)
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
_DEFAULT_REG_EXPONENT = 10


@dataclass(eq=False)
class LinearizationMatrix:
    """Dense linearization H(z) with its coordinate layout."""

    matrix: np.ndarray
    z: complex
    layout: IndexLayout
    regularized: bool = False

    @property
    def dim(self) -> int:
        return self.layout.dim


def build_H(pair: DataPair, z) -> LinearizationMatrix:
    """Assemble H(z).  Real symmetric for real z > 0, complex symmetric otherwise."""
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError(f"kernel is singular at z = {z}")
    if z.imag < 0:
        raise DomainError(f"z = {z} lies below the real axis")
    layout = IndexLayout(pair.p, pair.q, pair.n)
    p, q, n = layout.p, layout.q, layout.n
    real_case = z.imag == 0 and z.real > 0
    dtype = float if real_case else complex
    kinv = kernel_inverse_2x2(z)
    H = np.zeros((layout.dim, layout.dim), dtype=dtype)
    H[layout.sl1, layout.sl3] = pair.X
    H[layout.sl2, layout.sl4] = pair.Y
    H[layout.sl3, layout.sl1] = pair.X.T
    H[layout.sl4, layout.sl2] = pair.Y.T
    idx = np.arange(n)
    off = p + q
    diag = kinv[0, 0].real if real_case else kinv[0, 0]
    cross = kinv[0, 1].real if real_case else kinv[0, 1]
    H[off + idx, off + idx] = diag
    H[off + n + idx, off + n + idx] = diag
    H[off + idx, off + n + idx] = cross
    H[off + n + idx, off + idx] = cross
    return LinearizationMatrix(matrix=H, z=z, layout=layout)


@dataclass(eq=False)
class ResolventBundle:
    """A computed resolvent with its partial traces and self-check data.

    m1..m4 are the per-n traces of the four diagonal blocks of G; m is
    the q-normalized trace of the resolvent of the q x q correlation
    product, recovered from the second data block of G.  The identity
    residual records max |H G - I|.
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
    regularized: bool = False
    route: str = "direct"

    @property
    def c1(self) -> float:
        return self.layout.p / self.layout.n

    @property
    def c2(self) -> float:
        return self.layout.q / self.layout.n


def _partial_traces(G: np.ndarray, layout: IndexLayout):
    n = layout.n
    return tuple(
        complex(np.trace(G[layout.block_slice(a), layout.block_slice(a)])) / n
        for a in (1, 2, 3, 4)
    )


def _identity_residual(H: np.ndarray, G: np.ndarray) -> float:
    d = H.shape[0]
    R = H @ G
    R[np.arange(d), np.arange(d)] -= 1.0
    return float(np.abs(R).max())


def _enforce_residual(residual: float, z: complex) -> float:
    if residual > _RESIDUAL_LIMIT:
        raise NumericalError(
            f"resolvent identity residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:.0e} "
            f"at z = {z}",
            achieved=residual,
        )
    return residual


def resolvent(pair: DataPair, z, regularize: bool = False,
              reg_exponent: int = _DEFAULT_REG_EXPONENT) -> ResolventBundle:
    """G(z) by dense LU inversion of H(z).

    With regularize=True the data-block diagonal is shifted by
    -z n**(-reg_exponent) before inversion, which keeps H invertible at
    real z where the unregularized determinant vanishes.  The recorded
    identity residual is measured against the matrix actually inverted;
    residuals above 1e-6 raise a conditioning error.
    """
    lin = build_H(pair, z)
    H = lin.matrix
    layout = lin.layout
    if regularize:
        shift = lin.z * layout.n ** (-float(reg_exponent))
        H = H.copy()
        d_idx = np.arange(layout.p + layout.q)
        # real H can only occur for real z, where the shift is real too
        H[d_idx, d_idx] -= shift if H.dtype == complex else shift.real
    try:
        G = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linearization not invertible at z = {lin.z}: {exc}") from exc
    residual = _enforce_residual(_identity_residual(H, G), lin.z)
    m1, m2, m3, m4 = _partial_traces(G, layout)
    Syy = pair.Y @ pair.Y.T
    m = complex(np.trace(G[layout.sl2, layout.sl2] @ Syy)) / layout.q
    return ResolventBundle(
        G=G, z=lin.z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
        identity_residual=residual, regularized=regularize, route="direct",
    )


def blocks_via_schur(pair: DataPair, z) -> ResolventBundle:
    """Assemble G(z) from the whitened SVD without inverting H.

    The data-corner block is the two-channel whitened resolvent built
    from the singular value decomposition of the whitened cross matrix;
    the factor corner and the mixed blocks follow by multiplying with the
    data matrices and the (un-inverted) kernel.  As in resolvent(),
    identity residuals above 1e-6 raise a conditioning error.
    """
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError(f"kernel is singular at z = {z}")
    if z.imag < 0:
        raise DomainError(f"z = {z} lies below the real axis")
    if not (1e-8 < abs(z) < 1e8):
        raise ParameterError(f"|z| = {abs(z)} outside the supported range for this route")
    p, q, n = pair.p, pair.q, pair.n
    layout = IndexLayout(p, q, n)
    wc = whitened_cross(pair)
    k = len(wc.singular_values)
    lam_p = np.concatenate([wc.singular_values ** 2, np.zeros(p - k)])
    lam_q = np.concatenate([wc.singular_values ** 2, np.zeros(q - k)])
    if min(np.abs(lam_p - z).min(), np.abs(lam_q - z).min()) < 1e-12:
        raise DomainError(f"z = {z} coincides with a sample eigenvalue")
    R1 = (wc.U * (1.0 / (lam_p - z))) @ wc.U.T
    V = wc.Vt.T
    R2 = (V * (1.0 / (lam_q - z))) @ V.T
    sz = sqrt_z(z)
    isx, isy = wc.isqrt_xx, wc.isqrt_yy
    GL = np.empty((p + q, p + q), dtype=complex)
    GL[:p, :p] = isx @ R1 @ isx
    cross = isx @ R1 @ wc.matrix @ isy
    GL[:p, p:] = -(1.0 / sz) * cross
    GL[p:, :p] = GL[:p, p:].T
    GL[p:, p:] = isy @ R2 @ isy

    D = np.zeros((p + q, 2 * n))
    D[:p, :n] = pair.X
    D[p:, n:] = pair.Y

    W = GL @ D
    inner = D.T @ W
    GR = kernel_mul_left(kernel_mul_right(inner, z), z)
    idx = np.arange(n)
    GR[idx, idx] += z
    GR[n + idx, n + idx] += z
    GR[idx, n + idx] += sz
    GR[n + idx, idx] += sz
    GLR = -kernel_mul_right(W, z)

    G = np.empty((layout.dim, layout.dim), dtype=complex)
    G[layout.sl_left, layout.sl_left] = GL
    G[layout.sl_left, layout.sl_right] = GLR
    G[layout.sl_right, layout.sl_left] = GLR.T
    G[layout.sl_right, layout.sl_right] = GR

    residual = _enforce_residual(_identity_residual(build_H(pair, z).matrix, G), z)
    m1, m2, m3, m4 = _partial_traces(G, layout)
    m = complex(np.mean(1.0 / (lam_q - z)))
    return ResolventBundle(
        G=G, z=z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
        identity_residual=residual, regularized=False, route="schur",
    )


@dataclass(eq=False)
class LocalLawReport:
    """Finite-n deviations of G(z) from its block-constant limit.

    avg_err holds |m_alpha - limit| for alpha = 1..4 followed by
    |m - limit|.  benchmarks carries the entrywise reference
    phi_n + psi(z) and the averaged reference 1/(n eta); sectors is the
    entrywise maximum split by block pair, with the paired factor
    coordinates (mu, mu + n) reported separately.
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
    pi = pi_limit(model, z, layout.p, layout.q, layout.n)
    diff = bundle.G - pi.dense()

    entrywise = float(np.abs(diff).max())

    sectors = {}
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            block = diff[layout.block_slice(a), layout.block_slice(b)]
            sectors[f"{a}{b}"] = float(np.abs(block).max())
    mu = np.arange(layout.n)
    off = layout.p + layout.q
    sectors["paired34"] = float(np.abs(diff[off + mu, off + layout.n + mu]).max())

    vectors = _test_vectors(layout, n_vectors, seed)
    quad_forms = vectors.T @ diff @ vectors
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
    )
