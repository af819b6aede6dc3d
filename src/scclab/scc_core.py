"""Sample canonical correlation spectra and their classical-location bookkeeping.

The squared sample canonical correlations of a pair (X, Y) are the
eigenvalues of

    C = Sxx**(-1/2) Sxy Syy**(-1) Syx Sxx**(-1/2),

with Sxx = X X', Syy = Y Y', Sxy = X Y'.  They are computed here from
the whitened cross matrix M = Lx**(-1) Sxy Ly**(-T), where Sxx = Lx Lx'
and Syy = Ly Ly' are Cholesky factorizations.  Each factor is inverted
once, as a triangular matrix (_linalg.invert_lower), and M is two matrix
products with the inverses.  Any whitening W with W S W' = I differs
from S**(-1/2) by an orthogonal factor on the left, so M has the
singular values of Sxx**(-1/2) Sxy Syy**(-1/2), and the spectrum stays
in [0, 1] up to roundoff.  The spectrum is the eigenvalues (values only)
of the smaller Gram matrix of M, M'M for p >= q; the p x p version
carries p - q extra zeros.  Only canonical_factor takes a full SVD of M
(the canonical weight vectors), for the Schur route of the local law.

A Gram block whose smallest eigenvalue is at most 1e-10 times its
largest is numerically singular and raises SingularityError.  The guard
rarely needs the eigenvalues: the inverse factor certifies the block
(see _whitener), and only a block the certificate cannot clear takes
the exact eigenvalue rule.  Its lower bound on the smallest eigenvalue
is reported as the conditioning diagnostic min_eig_*_bound; it is the
exact smallest eigenvalue where the exact rule ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import invert_lower
from .errors import NumericalError, ParameterError, SingularityError
from .sampler import DataPair
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
_CERTIFIED_MARGIN = 100.0


def sample_covariances(pair: DataPair):
    """The three Gram blocks (Sxx, Syy, Sxy); the 1/n lives in the entries."""
    return pair.X @ pair.X.T, pair.Y @ pair.Y.T, pair.X @ pair.Y.T


@dataclass(eq=False)
class WhitenedCross:
    """Whitened cross matrix with its whiteners and conditioning diagnostics.

    min_eig_xx_bound and min_eig_yy_bound are lower bounds on the smallest
    eigenvalues of Sxx and Syy, at least lambda_min / sqrt(k) for a k x k
    block, and exact where the guard's exact rule ran.
    """

    matrix: np.ndarray          # Lx**(-1) Sxy Ly**(-T), p x q
    whitener_xx: np.ndarray     # Lx**(-1), lower triangular, with Lx Lx' = Sxx
    whitener_yy: np.ndarray
    min_eig_xx_bound: float
    min_eig_yy_bound: float

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the smaller Gram matrix of the whitened cross matrix, descending.

        These are its min(p, q) squared singular values: the spectrum.
        """
        M = self.matrix
        gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
        return np.linalg.eigvalsh(gram)[::-1]


def _exact_floor(S: np.ndarray) -> float:
    """The smallest eigenvalue of a Gram block, which must clear the relative floor.

    Raises SingularityError when it falls below 1e-10 times the largest,
    reporting the offending value.
    """
    w = np.linalg.eigvalsh(S)
    w_min, w_max = float(w[0]), float(w[-1])
    if w_max <= 0 or w_min <= _SINGULAR_FLOOR * w_max:
        raise SingularityError(
            f"covariance block numerically singular: min eigenvalue {w_min:.3e} "
            f"vs max {w_max:.3e} (relative floor {_SINGULAR_FLOOR:.1e})",
            min_eigenvalue=w_min,
        )
    return w_min


def _whitener(S: np.ndarray) -> tuple[np.ndarray, float]:
    """(L**(-1), bound) for a Gram block S = L L', bound <= its smallest eigenvalue.

    With W = L**(-1), W'W = S**(-1), whose Frobenius norm lies between
    1/lambda_min and sqrt(k)/lambda_min for a k x k block, so
    bound = 1/|W'W|_F satisfies lambda_min/sqrt(k) <= bound <= lambda_min;
    and lambda_max <= tr S.  The block passes on that certificate alone
    when bound > 100 * 1e-10 * tr S, a hundred times the singularity
    floor, and then cond(S) < 1e8.  The margin covers rounding, with u
    the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, chs. 8 and 10):
      - the computed L is the exact factor of S + E with
        |E| <= gamma_{k+1} |L||L'| elementwise, so |E|_2 <= k(k+1) u |S|_2
        to first order, under 2e-11 |S|_2 for k up to 400, and lambda_min
        moves by no more;
      - the computed triangular inverse has a relative error of order
        k u cond(L), under 1e-9 for k up to 400 when cond(S) < 1e8;
      - eigvalsh's own error is of order k u |S|_2.
    Together they stay far below the 99e-10 tr S between the pass line
    and the floor, so a certified block passes the exact rule too.  Any
    other block, and one whose Cholesky factorization or inverse fails,
    goes to that rule (_exact_floor), which raises SingularityError or
    returns the exact smallest eigenvalue as the bound.
    """
    try:
        W = invert_lower(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:
        _exact_floor(S)
        raise
    bound = 1.0 / float(np.linalg.norm(W.T @ W))
    if not bound > _CERTIFIED_MARGIN * _SINGULAR_FLOOR * float(np.trace(S)):
        bound = _exact_floor(S)
    return W, bound


def whitened_cross(pair: DataPair) -> WhitenedCross:
    Sxx, Syy, Sxy = sample_covariances(pair)
    Wx, bound_xx = _whitener(Sxx)
    Wy, bound_yy = _whitener(Syy)
    return WhitenedCross(
        matrix=Wx @ Sxy @ Wy.T,
        whitener_xx=Wx,
        whitener_yy=Wy,
        min_eig_xx_bound=bound_xx,
        min_eig_yy_bound=bound_yy,
    )


@dataclass(eq=False)
class CanonicalFactor:
    """The full SVD M = U diag(sv) V' of a pair's whitened cross matrix.

    The columns of A = Lx**(-T) U and B = Ly**(-T) V are the sample canonical
    weight vectors: A' Sxx A = I, B' Syy B = I and A' Sxy B = diag(sv).
    lam_p and lam_q are sv**2 zero-padded to p and q entries; min_eig_*_bound
    are whitened_cross's conditioning bounds.
    """

    pair: DataPair
    A: np.ndarray
    B: np.ndarray
    sv: np.ndarray
    lam_p: np.ndarray
    lam_q: np.ndarray
    min_eig_xx_bound: float
    min_eig_yy_bound: float


def canonical_factor(pair: DataPair) -> CanonicalFactor:
    """Whiten the pair and take the full SVD of its whitened cross matrix."""
    wc = whitened_cross(pair)
    U, sv, Vt = np.linalg.svd(wc.matrix)
    lam = sv ** 2
    return CanonicalFactor(
        pair=pair, A=wc.whitener_xx.T @ U, B=wc.whitener_yy.T @ Vt.T, sv=sv,
        lam_p=np.concatenate([lam, np.zeros(pair.p - len(sv))]),
        lam_q=np.concatenate([lam, np.zeros(pair.q - len(sv))]),
        min_eig_xx_bound=wc.min_eig_xx_bound, min_eig_yy_bound=wc.min_eig_yy_bound,
    )


@dataclass(eq=False)
class SpectrumResult:
    """Squared sample canonical correlations, descending, with diagnostics."""

    eigenvalues: np.ndarray
    p: int
    q: int
    n: int
    min_eig_xx_bound: float
    min_eig_yy_bound: float


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
        min_eig_xx_bound=wc.min_eig_xx_bound,
        min_eig_yy_bound=wc.min_eig_yy_bound,
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

