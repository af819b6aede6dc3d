"""Sample canonical correlation spectra and their classical-location bookkeeping.

The squared sample canonical correlations of a pair (X, Y) are the
eigenvalues of

    C = Sxx**(-1/2) Sxy Syy**(-1) Syx Sxx**(-1/2),

with Sxx = X X', Syy = Y Y', Sxy = X Y'.  They are computed here as the
squared singular values of the whitened cross matrix Wx Sxy Wy', where
Wx = Lx**(-1) and Wy = Ly**(-1) are the inverse Cholesky factors
(Sxx = Lx Lx').  Any whitening W with W S W' = I differs from S**(-1/2)
by an orthogonal factor on the left, so the singular values are those of
Sxx**(-1/2) Sxy Syy**(-1/2), and the spectrum stays in [0, 1] up to
roundoff.  Only the singular values are computed.  The companion q x q
product has the same nonzero spectrum; the p x p version carries p - q
extra zeros.

Before whitening, the eigenvalues (values only) of Sxx and Syy are
checked against a relative floor of 1e-10; a block below it raises
SingularityError, and the smallest eigenvalues are reported as
conditioning diagnostics.

Each eigenvalue lambda in (0, 1) is also characterized as a zero of the
determinant of the linearization matrix H(lambda), which this module
exposes as a smallest-singular-value residual check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, SingularityError
from .sampler import DataPair, PairMeta
from .spectral_model import SpectralModel, classical_locations

__all__ = [
    "SpectrumResult",
    "WhitenedCross",
    "sample_covariances",
    "whitened_cross",
    "ccc_eigenvalues",
    "det_characterization_residual",
    "rigidity_profile",
    "write_spectrum_csv",
]

_CLAMP_TOL = 1e-12
_SINGULAR_FLOOR = 1e-10


def sample_covariances(pair: DataPair):
    """The three Gram blocks (Sxx, Syy, Sxy); the 1/n lives in the entries."""
    return pair.X @ pair.X.T, pair.Y @ pair.Y.T, pair.X @ pair.Y.T


@dataclass(eq=False)
class WhitenedCross:
    """Whitened cross matrix with its singular values and conditioning diagnostics."""

    matrix: np.ndarray          # Wx Sxy Wy', p x q
    whiten_xx: np.ndarray       # Wx = Lx**(-1), so Wx Sxx Wx' = I
    whiten_yy: np.ndarray
    singular_values: np.ndarray
    min_eig_xx: float
    min_eig_yy: float

    @property
    def eigenvalues(self) -> np.ndarray:
        """Squared singular values, descending: the q-dim spectrum."""
        return self.singular_values ** 2


def _whitener(S: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse Cholesky factor of a Gram block and its smallest eigenvalue.

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
    # numpy's inverse rather than scipy's triangular one: scipy's LAPACK
    # runs on its own BLAS thread pool, and alternating two pools in the
    # per-trial loop made n = 800 spectra several times slower on 2 threads
    return np.linalg.inv(np.linalg.cholesky(S)), w_min


def whitened_cross(pair: DataPair) -> WhitenedCross:
    Sxx, Syy, Sxy = sample_covariances(pair)
    Wx, min_xx = _whitener(Sxx)
    Wy, min_yy = _whitener(Syy)
    matrix = Wx @ Sxy @ Wy.T
    return WhitenedCross(
        matrix=matrix,
        whiten_xx=Wx,
        whiten_yy=Wy,
        singular_values=np.linalg.svd(matrix, compute_uv=False),
        min_eig_xx=min_xx,
        min_eig_yy=min_yy,
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


def det_characterization_residual(pair: DataPair, lam: float) -> float:
    """Relative smallest singular value of the linearization at a real point.

    For lam in (0, 1) that is a squared sample canonical correlation the
    linearization matrix H(lam) is singular, so this residual (smallest
    singular value over largest) vanishes to roundoff.
    """
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"determinant characterization needs 0 < lambda < 1, got {lam}")
    from .linearized_resolvent import build_H

    H = build_H(pair, lam).matrix
    sv = np.linalg.svd(H, compute_uv=False)
    return float(sv[-1] / sv[0])


def rigidity_profile(result: SpectrumResult, model: SpectralModel,
                     keep_fraction: float | None = None) -> np.ndarray:
    """Normalized deviations d_i = |lambda_i - gamma_i| (i ^ (q+1-i))**(1/3) n**(2/3).

    Under eigenvalue rigidity these stay of order one uniformly in i.
    When the lower support edge is close to zero the guarantee only
    covers the upper (1 - eps) fraction of indices, so by default the
    bottom tenth is dropped whenever lambda_minus < 0.05; pass
    keep_fraction explicitly to override.
    """
    q, n = result.q, result.n
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


def write_spectrum_csv(result: SpectrumResult, model: SpectralModel, path) -> None:
    """One row per eigenvalue: index, lambda, gamma, normalized_deviation."""
    gamma = classical_locations(model, result.q)
    dev = rigidity_profile(result, model, keep_fraction=1.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "lambda", "gamma", "normalized_deviation"])
        for i in range(result.q):
            writer.writerow([i + 1, repr(float(result.eigenvalues[i])),
                             repr(float(gamma[i])), repr(float(dev[i]))])
