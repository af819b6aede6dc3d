"""Deterministic limit objects for squared sample canonical correlations.

For two independent data matrices with p and q rows observed over n
columns, the squared sample canonical correlations have, as p/n -> c1 and
q/n -> c2 with 0 < c2 <= c1 and c1 + c2 < 1, a deterministic limiting
spectral distribution supported on [lambda_minus, lambda_plus] with

    lambda_pm = (sqrt(c1 (1 - c2)) +- sqrt(c2 (1 - c1)))**2,

and density

    f(x) = sqrt((lambda_plus - x)(x - lambda_minus)) / (2 pi c2 x (1 - x)).

This module evaluates that density, its upper-tail quantiles (the
classical eigenvalue locations, inverted from the closed-form tail mass
below), the four partial Stieltjes transforms of
the linearized resolvent together with the off-diagonal limit h, the
block-constant limiting matrix built from them, and the fluctuation
control parameter used to benchmark finite-n resolvent errors.

With x = a + r cos(theta), a = (lambda_minus + lambda_plus)/2 and
r = (lambda_plus - lambda_minus)/2, the mass above x(theta) is, exactly,

    T(theta) = [theta - 2 (c1 - c2) atan2(sqrt(lambda_minus) sin(theta/2),
                                         sqrt(lambda_plus) cos(theta/2))
                      - 2 (1 - c1 - c2) atan2(sqrt(1 - lambda_minus) sin(theta/2),
                                             sqrt(1 - lambda_plus) cos(theta/2))]
               / (2 pi c2).

It follows from splitting 1/(x(1-x)) = 1/x + 1/(1-x) and integrating
sin(phi)**2 / (A + B cos(phi)) in closed form; the sin(theta) terms of
the two pieces cancel, and sqrt(lambda_minus lambda_plus) = c1 - c2 and
sqrt((1 - lambda_minus)(1 - lambda_plus)) = 1 - c1 - c2 make T(pi) = 1.
At c1 = c2 (so lambda_minus = 0) the first arctangent carries a zero
coefficient and needs no branch of its own.  Adaptive quadrature of the
density stays as the independent route behind support_mass.

All square roots of spectral arguments are taken on the branch with
nonnegative imaginary part.  On the real axis outside the support the
transforms are evaluated as boundary values from the upper half plane,
which makes them the genuine Stieltjes integrals there (in particular
positive to the left of the support, negative to the right).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from ._linalg import sqrt_upper, sqrt_z
from .errors import DomainError, NumericalError, ParameterError

__all__ = [
    "SpectralModel",
    "SpectralParameter",
    "StieltjesQuadruple",
    "PiDescriptor",
    "support_edges",
    "make_model",
    "density",
    "support_mass",
    "classical_location",
    "classical_locations",
    "stieltjes",
    "sc_residuals",
    "solve_m3",
    "pi_limit",
    "psi_control",
]

# quadrature accuracy contract for tail masses
_QUAD_TOL = 1e-12
_QUAD_CHECK = 1e-9
# root tolerance in theta; |dx/dtheta| = r sin(theta) < 1 keeps x within 1e-10
_THETA_TOL = 1e-12


def support_edges(c1: float, c2: float) -> tuple[float, float]:
    """Support endpoints (lambda_minus, lambda_plus) of the limit law.

    Pure arithmetic, no admissibility guard beyond nonnegativity, so the
    degenerate substitution c2 = 0 (where both edges collapse to c1) can
    be evaluated directly.
    """
    if not (0 <= c2 <= c1 <= 1):
        raise ParameterError(f"need 0 <= c2 <= c1 <= 1, got c1={c1}, c2={c2}")
    a = math.sqrt(c1 * (1.0 - c2))
    b = math.sqrt(c2 * (1.0 - c1))
    return (a - b) ** 2, (a + b) ** 2


@dataclass(frozen=True)
class SpectralModel:
    """Aspect-ratio pair with its derived spectral constants.

    c_tw is the edge rescaling constant: n**(2/3) (lambda_1 - lambda_plus) / c_tw
    converges to the same law as the rescaled top eigenvalue of a GOE matrix.
    """

    c1: float
    c2: float
    lambda_minus: float
    lambda_plus: float
    c_tw: float

    def __post_init__(self):
        _require_aspect_ratios(self.c1, self.c2)
        lm, lp = support_edges(self.c1, self.c2)
        if abs(lm - self.lambda_minus) > 1e-12 or abs(lp - self.lambda_plus) > 1e-12:
            raise ParameterError("support edges inconsistent with aspect ratios")


def aspect_ratio_violations(c1: float, c2: float) -> list[str]:
    """Every violated aspect-ratio constraint; an empty list means admissible."""
    violations = []
    if not (0.0 < c2 <= c1):
        violations.append(f"aspect ratios must satisfy 0 < c2 <= c1, got c1={c1}, c2={c2}")
    if not (c1 + c2 < 1.0):
        violations.append(f"aspect ratios must satisfy c1 + c2 < 1, got c1+c2={c1 + c2}")
    return violations


def _require_aspect_ratios(c1: float, c2: float) -> None:
    violations = aspect_ratio_violations(c1, c2)
    if violations:
        raise ParameterError("; ".join(violations))


def make_model(c1: float, c2: float) -> SpectralModel:
    """Validate the aspect ratios and precompute the spectral constants."""
    _require_aspect_ratios(c1, c2)
    lm, lp = support_edges(c1, c2)
    c_tw = ((lp ** 2) * ((1.0 - lp) ** 2) / math.sqrt(c1 * c2 * (1.0 - c1) * (1.0 - c2))) ** (1.0 / 3.0)
    return SpectralModel(c1=c1, c2=c2, lambda_minus=lm, lambda_plus=lp, c_tw=c_tw)


@dataclass(frozen=True)
class SpectralParameter:
    """A spectral argument z = E + i eta with its distance to the edges."""

    z: complex
    E: float
    eta: float
    kappa: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ParameterError(f"spectral parameter requires eta > 0, got eta={self.eta}")

    @classmethod
    def make(cls, model: SpectralModel, z: complex) -> "SpectralParameter":
        z = complex(z)
        kappa = min(abs(z.real - model.lambda_minus), abs(z.real - model.lambda_plus))
        return cls(z=z, E=z.real, eta=z.imag, kappa=kappa)


@dataclass(frozen=True)
class StieltjesQuadruple:
    """The four partial transforms, the off-diagonal limit h, and m.

    m1, m2 are the limits of the per-n traces of the two data-channel
    resolvent blocks, m3, m4 of the two factor blocks; m is the Stieltjes
    transform of the limit law itself (normalized by q instead of n).
    """

    m1: complex
    m2: complex
    m3: complex
    m4: complex
    h: complex
    m: complex


def _as_complex(z) -> complex:
    if isinstance(z, SpectralParameter):
        return complex(z.z)
    return complex(z)


def _edge_sqrt(model: SpectralModel, z: complex) -> complex:
    """sqrt((z - lambda_minus)(z - lambda_plus)) continued from the upper half plane.

    For Im z > 0 this is the nonnegative-imaginary-part root.  On the real
    axis the product crosses to the second sheet left of the support, so
    the boundary value is -sqrt there and +sqrt right of the support.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    if z.imag > 0:
        return sqrt_upper((z - lm) * (z - lp))
    E = z.real
    w = (E - lm) * (E - lp)
    if E >= lp:
        return complex(math.sqrt(max(w, 0.0)))
    if E <= lm:
        return complex(-math.sqrt(max(w, 0.0)))
    raise DomainError(
        f"real z = {E} lies inside the support [{lm}, {lp}]: branch cut"
    )


def density(model: SpectralModel, x):
    """Limit density f(x); zero off the open support interval.

    Accepts a scalar or an ndarray.  Endpoint values are zero by
    convention, which also covers x = 0 when lambda_minus = 0.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    x_arr = np.asarray(x, dtype=float)
    inside = (x_arr > lm) & (x_arr < lp)
    out = np.zeros_like(x_arr)
    xs = x_arr[inside]
    out[inside] = np.sqrt((lp - xs) * (xs - lm)) / (2.0 * np.pi * model.c2 * xs * (1.0 - xs))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def _quad_checked(fun, a, b, what):
    val, err = integrate.quad(fun, a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    if err > _QUAD_CHECK:
        raise NumericalError(
            f"quadrature for {what} did not converge: error estimate {err:.2e}",
            achieved=err,
        )
    return val


@functools.lru_cache(maxsize=None)
def _upper_half_mass(model: SpectralModel) -> float:
    mid = 0.5 * (model.lambda_minus + model.lambda_plus)
    return _tail_mass_from(model, mid)


def _tail_mass_from(model: SpectralModel, x: float) -> float:
    """Integral of the density from x up to lambda_plus.

    The substitution t = lambda_plus - s**2 (and its mirror at the lower
    edge) removes the square-root endpoint behavior, so the adaptive
    quadrature sees a smooth integrand on each piece.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    x = min(max(x, lm), lp)
    mid = 0.5 * (lm + lp)
    if x >= mid:
        s_hi = math.sqrt(lp - x)
        return _quad_checked(
            lambda s: 2.0 * s * density(model, lp - s * s), 0.0, s_hi, "upper tail mass"
        )
    lower = _quad_checked(
        lambda s: 2.0 * s * density(model, lm + s * s),
        math.sqrt(x - lm),
        math.sqrt(mid - lm),
        "lower bulk mass",
    )
    return lower + _upper_half_mass(model)


def support_mass(model: SpectralModel) -> float:
    """Total mass of the density over its support (should be 1)."""
    return _tail_mass_from(model, model.lambda_minus)


def _tail_mass_at_angle(model: SpectralModel, theta: float) -> float:
    """Closed-form mass of the density above x = a + r cos(theta), theta in [0, pi]."""
    lm, lp = model.lambda_minus, model.lambda_plus
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    lower = math.atan2(math.sqrt(lm) * s, math.sqrt(lp) * c)
    upper = math.atan2(math.sqrt(1.0 - lm) * s, math.sqrt(1.0 - lp) * c)
    c1, c2 = model.c1, model.c2
    mass = theta - 2.0 * (c1 - c2) * lower - 2.0 * (1.0 - c1 - c2) * upper
    return mass / (2.0 * math.pi * c2)


def classical_location(model: SpectralModel, j: int, q: int) -> float:
    """Classical location gamma_j: the upper (j-1)/q tail quantile.

    gamma_j = sup { x : integral of f over [x, infinity) > (j-1)/q },
    so gamma_1 is exactly lambda_plus.  The closed-form tail mass is
    monotone in theta on [0, pi]; a bracketed root in theta fixes x to
    1e-10.
    """
    if not (1 <= j <= q):
        raise ParameterError(f"need 1 <= j <= q, got j={j}, q={q}")
    if j == 1:
        return model.lambda_plus
    target = (j - 1) / q
    theta = optimize.brentq(
        lambda t: _tail_mass_at_angle(model, t) - target,
        0.0,
        math.pi,
        xtol=_THETA_TOL,
        maxiter=200,
    )
    a = 0.5 * (model.lambda_minus + model.lambda_plus)
    r = 0.5 * (model.lambda_plus - model.lambda_minus)
    return a + r * math.cos(theta)


@functools.lru_cache(maxsize=64)
def _classical_locations_cached(model: SpectralModel, q: int) -> tuple:
    return tuple(classical_location(model, j, q) for j in range(1, q + 1))


def classical_locations(model: SpectralModel, q: int) -> np.ndarray:
    """All q classical locations, descending; memoized per (model, q)."""
    return np.array(_classical_locations_cached(model, q))


def stieltjes(model: SpectralModel, z) -> StieltjesQuadruple:
    """Evaluate the limiting transform system at z.

    Admissible z: Im z > 0, or real z outside the closed support and not
    in {0, 1}.  z = 1 is a removable singularity of the m1, m2 formulas;
    the finite limits there are

        m1(1) = -c1 / (1 - c1 - c2),   m2(1) = -c2 / (1 - c1 - c2),

    with m3(1) = m4(1) = h(1) = 1 - c1 - c2.
    """
    c1, c2 = model.c1, model.c2
    z = _as_complex(z)
    if z.imag < 0:
        raise DomainError(f"z = {z} lies below the real axis")
    if z.imag == 0:
        if z.real == 0:
            raise DomainError("z = 0 is a pole of the transform system")
        if z.real == 1:
            one = 1.0 - c1 - c2
            return StieltjesQuadruple(
                m1=complex(-c1 / one),
                m2=complex(-c2 / one),
                m3=complex(one),
                m4=complex(one),
                h=complex(one),
                m=complex(-(1.0 - c2) / one),
            )
    s = _edge_sqrt(model, z)
    core = -z + c1 + c2 + s
    m1 = core / (2.0 * (1.0 - c1) * z * (1.0 - z)) - c1 / ((1.0 - c1) * z)
    m2 = core / (2.0 * (1.0 - c2) * z * (1.0 - z)) - c2 / ((1.0 - c2) * z)
    m3 = 0.5 * ((1.0 - 2.0 * c1) * z + c1 - c2 + s)
    m4 = 0.5 * ((1.0 - 2.0 * c2) * z + c2 - c1 + s)
    h = 0.5 * sqrt_z(z) * (-z + (2.0 - c1 - c2) + s)
    m = (1.0 - c2) / c2 * m2
    return StieltjesQuadruple(m1=m1, m2=m2, m3=m3, m4=m4, h=h, m=m)


def sc_residuals(model: SpectralModel, quad: StieltjesQuadruple, z) -> np.ndarray:
    """Absolute residuals of the five self-consistency relations at z.

    In order: the two reciprocal couplings m1 = -c1/m3 and m2 = -c2/m4,
    the linear difference m3 - m4 = (1-z)(c1-c2), the rational relation
    expressing m3 through (m1, m2), and the closed quadratic in m3.
    """
    c1, c2 = model.c1, model.c2
    z = _as_complex(z)
    m1, m2, m3, m4 = quad.m1, quad.m2, quad.m3, quad.m4
    r = np.empty(5)
    r[0] = abs(m1 + c1 / m3)
    r[1] = abs(m2 + c2 / m4)
    r[2] = abs(m3 - m4 - (1.0 - z) * (c1 - c2))
    r[3] = abs(m3 * (1.0 / z - (m1 + m2) + (z - 1.0) * m1 * m2) - (1.0 - (z - 1.0) * m2))
    r[4] = abs(m3 ** 2 + ((2.0 * c1 - 1.0) * z - c1 + c2) * m3 + c1 * (c1 - 1.0) * z * (z - 1.0))
    return r


def solve_m3(model: SpectralModel, z) -> complex:
    """Solve the closed quadratic for m3 and pick the upper-half-plane root.

    The quadratic is m3**2 + b m3 + c = 0 with b = (2 c1 - 1) z - c1 + c2
    and c = c1 (c1 - 1) z (z - 1).  Its discriminant factors exactly as
    (z - lambda_minus)(z - lambda_plus); that identity is asserted here
    before the root with nonnegative imaginary part is returned.
    """
    c1, c2 = model.c1, model.c2
    z = _as_complex(z)
    b = (2.0 * c1 - 1.0) * z - c1 + c2
    c = c1 * (c1 - 1.0) * z * (z - 1.0)
    disc = b * b - 4.0 * c
    factored = (z - model.lambda_minus) * (z - model.lambda_plus)
    scale = max(1.0, abs(disc), abs(factored))
    if abs(disc - factored) > 1e-10 * scale:
        raise NumericalError(
            f"discriminant mismatch at z={z}: {disc} vs edge product {factored}",
            achieved=abs(disc - factored),
        )
    s = _edge_sqrt(model, z) if z.imag == 0 else sqrt_upper(disc)
    root = 0.5 * (-b + s)
    if z.imag > 0 and root.imag < -1e-12:
        raise NumericalError(f"selected root has negative imaginary part at z={z}")
    return root


@dataclass(eq=False)
class PiDescriptor:
    """Block-constant limit of the linearized resolvent at one z.

    The matrix is diagonal except on the paired coordinates (mu, mu + n)
    of the two factor blocks, where the off-diagonal value is h.  The
    diagonal values are m1/c1 on the first p coordinates, m2/c2 on the
    next q, then m3 and m4 on the two n-blocks.
    """

    z: complex
    p: int
    q: int
    n: int
    diag1: complex
    diag2: complex
    kernel: np.ndarray
    kernel_inverse: np.ndarray

    @property
    def dim(self) -> int:
        return self.p + self.q + 2 * self.n

    def dense(self) -> np.ndarray:
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        idx = np.arange(self.n)
        off = self.p + self.q
        out[np.arange(self.p), np.arange(self.p)] = self.diag1
        rng_q = np.arange(self.p, off)
        out[rng_q, rng_q] = self.diag2
        out[off + idx, off + idx] = self.kernel[0, 0]
        out[off + self.n + idx, off + self.n + idx] = self.kernel[1, 1]
        out[off + idx, off + self.n + idx] = self.kernel[0, 1]
        out[off + self.n + idx, off + idx] = self.kernel[1, 0]
        return out


def pi_limit(model: SpectralModel, z, p: int, q: int, n: int) -> PiDescriptor:
    """Assemble the block-constant limit matrix descriptor at z.

    The caller is expected to build the model from the finite-n ratios
    p/n and q/n; a mismatch beyond 1/n is rejected.
    """
    if abs(p / n - model.c1) > 1.0 / n + 1e-12 or abs(q / n - model.c2) > 1.0 / n + 1e-12:
        raise ParameterError(
            f"dimensions (p={p}, q={q}, n={n}) inconsistent with model ratios "
            f"({model.c1}, {model.c2})"
        )
    z = _as_complex(z)
    quad = stieltjes(model, z)
    kernel = np.array([[quad.m3, quad.h], [quad.h, quad.m4]])
    sz = sqrt_z(z)
    kernel_inverse = (1.0 / (z - 1.0)) * np.array(
        [
            [1.0 - (z - 1.0) * quad.m1, -1.0 / sz],
            [-1.0 / sz, 1.0 - (z - 1.0) * quad.m2],
        ]
    )
    return PiDescriptor(
        z=z,
        p=p,
        q=q,
        n=n,
        diag1=quad.m1 / model.c1,
        diag2=quad.m2 / model.c2,
        kernel=kernel,
        kernel_inverse=kernel_inverse,
    )


def psi_control(model: SpectralModel, z, n: int) -> float:
    """Fluctuation control parameter sqrt(Im m / (n eta)) + 1/(n eta)."""
    zc = _as_complex(z)
    if zc.imag <= 0:
        raise DomainError(f"control parameter needs Im z > 0, got z = {zc}")
    quad = stieltjes(model, zc)
    n_eta = n * zc.imag
    return math.sqrt(max(quad.m.imag, 0.0) / n_eta) + 1.0 / n_eta
