"""Sample canonical correlation spectra and their classical-location bookkeeping.

The squared sample canonical correlations of a pair (X, Y) are the
eigenvalues of

    C = Sxx**(-1/2) Sxy Syy**(-1) Syx Sxx**(-1/2),

with Sxx = X X', Syy = Y Y', Sxy = X Y'.  They are computed here from
the whitened cross matrix M = Lx**(-1) Sxy Ly**(-T), where Sxx = Lx Lx'
and Syy = Ly Ly' are Cholesky factorizations; M comes from two linear
solves, so no inverse is formed.  Any whitening W with W S W' = I
differs from S**(-1/2) by an orthogonal factor on the left, so M has the
singular values of Sxx**(-1/2) Sxy Syy**(-1/2), and the spectrum stays
in [0, 1] up to roundoff.  The spectrum is the eigenvalues (values only)
of the smaller Gram matrix of M, M'M for p >= q; the p x p version
carries p - q extra zeros.  Only canonical_factor takes a full SVD of M
(the canonical weight vectors), for the Schur route of the local law.

Before whitening, the eigenvalues (values only) of Sxx and Syy are
checked against a relative floor of 1e-10; a block below it raises
SingularityError, and the smallest eigenvalues are reported as
conditioning diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, SingularityError
from .sampler import DataPair, PairMeta
from .spectral_model import SpectralModel, classical_locations

__all__ = [
    "SpectrumResult",
    "WhitenedCross",
    "CanonicalFactor",
    "sample_covariances",
    "whitened_cross",
    "canonical_factor",
    "ccc_eigenvalues",
    "rigidity_profile",
]

_CLAMP_TOL = 1e-12
_SINGULAR_FLOOR = 1e-10


def sample_covariances(pair: DataPair):
    """The three Gram blocks (Sxx, Syy, Sxy); the 1/n lives in the entries."""
    return pair.X @ pair.X.T, pair.Y @ pair.Y.T, pair.X @ pair.Y.T


@dataclass(eq=False)
class WhitenedCross:
    """Whitened cross matrix with its Cholesky factors and conditioning diagnostics."""

    matrix: np.ndarray          # Lx**(-1) Sxy Ly**(-T), p x q
    chol_xx: np.ndarray         # Lx, lower triangular, Lx Lx' = Sxx
    chol_yy: np.ndarray
    min_eig_xx: float
    min_eig_yy: float

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the smaller Gram matrix of the whitened cross matrix, descending.

        These are its min(p, q) squared singular values: the spectrum.
        """
        M = self.matrix
        gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
        return np.linalg.eigvalsh(gram)[::-1]


def _whitener(S: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of a Gram block and its smallest eigenvalue.

    Raises SingularityError when the smallest eigenvalue falls below
    1e-10 times the largest, reporting the offending value.
    """
    w = np.linalg.eigvalsh(S)
    w_min, w_max = float(w[0]), float(w[-1])
    if w_max <= 0 or w_min <= _SINGULAR_FLOOR * w_max:
        raise SingularityError(
            f"covariance block numerically singular: min eigenvalue {w_min:.3e} "
            f"vs max {w_max:.3e} (relative floor {_SINGULAR_FLOOR:.1e})",
            min_eigenvalue=w_min,
        )
    return np.linalg.cholesky(S), w_min


def whitened_cross(pair: DataPair) -> WhitenedCross:
    Sxx, Syy, Sxy = sample_covariances(pair)
    Lx, min_xx = _whitener(Sxx)
    Ly, min_yy = _whitener(Syy)
    matrix = np.linalg.solve(Ly, np.linalg.solve(Lx, Sxy).T).T
    return WhitenedCross(
        matrix=matrix,
        chol_xx=Lx,
        chol_yy=Ly,
        min_eig_xx=min_xx,
        min_eig_yy=min_yy,
    )


@dataclass(eq=False)
class CanonicalFactor:
    """The full SVD M = U diag(sv) V' of a pair's whitened cross matrix.

    The columns of A = Lx**(-T) U and B = Ly**(-T) V are the sample canonical
    weight vectors: A' Sxx A = I, B' Syy B = I and A' Sxy B = diag(sv).
    lam_p and lam_q are sv**2 zero-padded to p and q entries; min_eig_*
    are whitened_cross's conditioning.
    """

    pair: DataPair
    A: np.ndarray
    B: np.ndarray
    sv: np.ndarray
    lam_p: np.ndarray
    lam_q: np.ndarray
    min_eig_xx: float
    min_eig_yy: float


def canonical_factor(pair: DataPair) -> CanonicalFactor:
    """Whiten the pair and take the full SVD of its whitened cross matrix."""
    wc = whitened_cross(pair)
    U, sv, Vt = np.linalg.svd(wc.matrix)
    lam = sv ** 2
    return CanonicalFactor(
        pair=pair, A=np.linalg.solve(wc.chol_xx.T, U),
        B=np.linalg.solve(wc.chol_yy.T, Vt.T), sv=sv,
        lam_p=np.concatenate([lam, np.zeros(pair.p - len(sv))]),
        lam_q=np.concatenate([lam, np.zeros(pair.q - len(sv))]),
        min_eig_xx=wc.min_eig_xx, min_eig_yy=wc.min_eig_yy,
    )


@dataclass(eq=False)
class SpectrumResult:
    """Squared sample canonical correlations, descending, with diagnostics."""

    eigenvalues: np.ndarray
    p: int
    q: int
    n: int
    min_eig_xx: float
    min_eig_yy: float
    meta: PairMeta | None = None


def ccc_eigenvalues(pair: DataPair) -> SpectrumResult:
    """All q squared sample canonical correlations, descending.

    Values may stray outside [0, 1] only by roundoff; anything beyond
    1e-12 is treated as a numerical failure rather than clamped away.
    """
    wc = whitened_cross(pair)
    lam = wc.eigenvalues
    if lam[0] > 1.0 + _CLAMP_TOL:
        raise NumericalError(
            f"top squared correlation {lam[0]} exceeds 1 beyond roundoff",
            achieved=float(lam[0] - 1.0),
        )
    lam = np.clip(lam, 0.0, 1.0)
    return SpectrumResult(
        eigenvalues=lam,
        p=pair.p,
        q=pair.q,
        n=pair.n,
        min_eig_xx=wc.min_eig_xx,
        min_eig_yy=wc.min_eig_yy,
        meta=pair.meta,
    )


def rigidity_profile(result: SpectrumResult, model: SpectralModel,
                     keep_fraction: float | None = None) -> np.ndarray:
    """Normalized deviations d_i = |lambda_i - gamma_i| (i ^ (q+1-i))**(1/3) n**(2/3).

    Under eigenvalue rigidity these stay of order one uniformly in i.
    When the lower support edge is close to zero the guarantee only
    covers the upper (1 - eps) fraction of indices, so by default the
    bottom tenth is dropped whenever lambda_minus < 0.05; pass
    keep_fraction explicitly to override.  The spectrum must hold all q
    values, so p >= q.
    """
    q, n = result.q, result.n
    if len(result.eigenvalues) != q:
        raise ParameterError(f"rigidity needs all q = {q} eigenvalues (p >= q), "
                             f"got {len(result.eigenvalues)}")
    if keep_fraction is None:
        keep_fraction = 0.9 if model.lambda_minus < 0.05 else 1.0
    if not (0.0 < keep_fraction <= 1.0):
        raise ParameterError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    gamma = classical_locations(model, q)
    idx = np.arange(1, q + 1)
    weight = np.minimum(idx, q + 1 - idx) ** (1.0 / 3.0)
    d = np.abs(result.eigenvalues - gamma) * weight * n ** (2.0 / 3.0)
    keep = int(np.floor(keep_fraction * q))
    return d[:keep]

