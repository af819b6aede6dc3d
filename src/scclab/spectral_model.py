"""Deterministic limit objects for squared sample canonical correlations.

For two independent data matrices with p and q rows observed over n
columns, the squared sample canonical correlations have, as p/n -> c1 and
q/n -> c2 with 0 < c2 <= c1 and c1 + c2 < 1, a deterministic limiting
spectral distribution supported on [lambda_minus, lambda_plus] with

    lambda_pm = (sqrt(c1 (1 - c2)) +- sqrt(c2 (1 - c1)))**2,

and density

    f(x) = sqrt((lambda_plus - x)(x - lambda_minus)) / (2 pi c2 x (1 - x)).

This module evaluates that density and its total mass, its upper-tail
quantiles (the classical eigenvalue locations, found by bisection on the
closed-form tail mass below), the four partial Stieltjes transforms of
the linearized resolvent together with the off-diagonal limit h, a
descriptor of the block-constant limit matrix that is subtracted from a
resolvent in place rather than formed densely, and the fluctuation
control parameter used to benchmark finite-n resolvent errors.  The
last two take an IndexLayout and z, and are those of the model at the
layout's finite-n ratios p/n and q/n.

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
coefficient and needs no branch of its own.

T is increasing in theta, so the classical locations come from one
vectorized bisection in theta over all targets at once: 48 halvings of
[0, pi] leave a bracket of pi / 2**48 ~ 1.1e-14, and |dx/dtheta| =
r sin(theta) < 1 keeps x as close.  It needs no root-finding library.

support_mass integrates the density itself, so that it checks the same
function the density table prints.  In the half-angle form
x = lambda_plus cos(theta/2)**2 + lambda_minus sin(theta/2)**2 the
integrand f(x) |dx/dtheta| is even and 2 pi-periodic in theta, so the
plain trapezoid rule on [0, pi] converges geometrically (Trefethen and
Weideman, SIAM Review 2014); each halving of the step reuses the sum so
far and evaluates only the new midpoints.

The transforms are evaluated on the spectral domain Im z > 0 only, the
half plane the local law lives on; real z, including the pole z = 0 and
the removable point z = 1, is rejected.  Every square root of a spectral
argument is taken on the branch with nonnegative imaginary part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import IndexLayout, sqrt_upper
from .errors import DomainError, NumericalError, ParameterError, reject

__all__ = [
    "SpectralModel",
    "StieltjesQuadruple",
    "PiDescriptor",
    "support_edges",
    "make_model",
    "density",
    "support_mass",
    "classical_location",
    "classical_locations",
    "stieltjes",
    "pi_limit",
    "psi_control",
]

# trapezoid rule behind support_mass: first and largest interval counts
# in theta, and the contract on two successive estimates
_MASS_START = 64
_MASS_CAP = 2 ** 20
_QUAD_CHECK = 1e-9
# halvings of [0, pi] in theta behind classical_location
_BISECTIONS = 48


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
    make_model validates the ratios and derives the constants.
    """

    c1: float
    c2: float
    lambda_minus: float
    lambda_plus: float
    c_tw: float


def aspect_ratio_violations(c1: float, c2: float) -> list[str]:
    """Every violated aspect-ratio constraint; an empty list means admissible."""
    violations = []
    if not (0.0 < c2 <= c1):
        violations.append(f"aspect ratios must satisfy 0 < c2 <= c1, got c1={c1}, c2={c2}")
    if not (c1 + c2 < 1.0):
        violations.append(f"aspect ratios must satisfy c1 + c2 < 1, got c1+c2={c1 + c2}")
    return violations


def window_violations(n: int, epsilon: float, e_min: float, e_max: float,
                      eta_min: float, eta_max: float) -> list[str]:
    """Every point z = E + i eta of [e_min, e_max] x [eta_min, eta_max] outside the window.

    The local law's spectral window is eps <= E <= 1 and
    n**(-1+eps) <= eta <= 1/eps, for a window parameter 0 < eps < 1.  A
    single z passes its real part twice and its imaginary part twice.  A
    NaN bound lies outside the window.
    """
    if not (0.0 < epsilon < 1.0):
        return [f"spectral window parameter must lie in (0, 1), got {epsilon}"]
    violations = [f"E = {E} outside the spectral window [eps, 1] = [{epsilon}, 1]"
                  for E in sorted({e_min, e_max}) if not (epsilon <= E <= 1.0)]
    eta_floor = n ** (-1.0 + epsilon)
    if not eta_min >= eta_floor:
        violations.append(f"eta = {eta_min} below the admissible floor "
                          f"n^(-1+eps) = {eta_floor:.4e} of the spectral window")
    if not eta_max <= 1.0 / epsilon:
        violations.append(f"eta = {eta_max} above the admissible ceiling "
                          f"1/eps = {1.0 / epsilon:.4e} of the spectral window")
    return violations


def make_model(c1: float, c2: float) -> SpectralModel:
    """Validate the aspect ratios and precompute the spectral constants."""
    reject(aspect_ratio_violations(c1, c2))
    lm, lp = support_edges(c1, c2)
    c_tw = ((lp ** 2) * ((1.0 - lp) ** 2) / math.sqrt(c1 * c2 * (1.0 - c1) * (1.0 - c2))) ** (1.0 / 3.0)
    return SpectralModel(c1=c1, c2=c2, lambda_minus=lm, lambda_plus=lp, c_tw=c_tw)


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


def _mass_integrand(model: SpectralModel, theta: np.ndarray) -> np.ndarray:
    """The density at x(theta) times |dx/dtheta|, for theta in [0, pi].

    x(theta) = lambda_plus cos(theta/2)**2 + lambda_minus sin(theta/2)**2
    runs from lambda_plus down to lambda_minus.  At lambda_minus = 0,
    x(pi) is lambda_plus cos(pi/2)**2 ~ 1e-33 rather than 0, so the
    product keeps its finite limit lambda_plus / (2 pi c2) there.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    return density(model, lp * c * c + lm * s * s) * ((lp - lm) * s * c)


def support_mass(model: SpectralModel) -> float:
    """Total mass of the density over its support (should be 1).

    Trapezoid rule in theta on [0, pi] from _MASS_START intervals, the
    step halved until two successive estimates differ by at most
    _QUAD_CHECK.  Where that needs more than _MASS_CAP intervals, as for
    a support edge within about 1e-11 of 0 or 1 (both are 1e-12 away at
    c1 = 0.5, c2 = 0.499999), it raises NumericalError.
    """
    intervals = _MASS_START
    step = math.pi / intervals
    f = _mass_integrand(model, np.linspace(0.0, math.pi, intervals + 1))
    estimate = step * (f.sum() - 0.5 * (f[0] + f[-1]))
    while intervals < _MASS_CAP:
        midpoints = (np.arange(intervals) + 0.5) * step
        intervals *= 2
        step *= 0.5
        refined = 0.5 * estimate + step * _mass_integrand(model, midpoints).sum()
        change = abs(refined - estimate)
        estimate = float(refined)
        if change <= _QUAD_CHECK:
            return estimate
    raise NumericalError(
        f"support mass did not converge in {_MASS_CAP} trapezoid intervals: "
        f"successive estimates differ by {change:.2e}",
        achieved=float(change),
    )


def _tail_mass_at_angle(model: SpectralModel, theta):
    """Closed-form mass of the density above x = a + r cos(theta), theta in [0, pi].

    Accepts a scalar or an ndarray of angles.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    lower = np.arctan2(math.sqrt(lm) * s, math.sqrt(lp) * c)
    upper = np.arctan2(math.sqrt(1.0 - lm) * s, math.sqrt(1.0 - lp) * c)
    c1, c2 = model.c1, model.c2
    mass = theta - 2.0 * (c1 - c2) * lower - 2.0 * (1.0 - c1 - c2) * upper
    return mass / (2.0 * math.pi * c2)


def classical_location(model: SpectralModel, j, q: int):
    """Classical location gamma_j: the upper (j-1)/q tail quantile.

    gamma_j = sup { x : integral of f over [x, infinity) > (j-1)/q },
    so gamma_1 is exactly lambda_plus.  j is an integer or an integer
    array with 1 <= j <= q; a scalar j gives a float, an array the
    locations at each entry.  The closed-form tail mass is increasing in
    theta on [0, pi], so one bisection in theta serves every target:
    48 halvings fix theta to pi / 2**48 ~ 1.1e-14, and x moves by at
    most as much because |dx/dtheta| = r sin(theta) < 1.
    """
    js = np.asarray(j)
    if js.dtype.kind not in "iu" or not isinstance(q, (int, np.integer)):
        raise ParameterError(f"need integer j and q, got j={j}, q={q}")
    if not np.all((1 <= js) & (js <= q)):
        raise ParameterError(f"need 1 <= j <= q, got j={j}, q={q}")
    target = (js - 1) / q
    lo = np.zeros(js.shape)
    step = math.pi
    for _ in range(_BISECTIONS):
        step *= 0.5
        mid = lo + step
        lo = np.where(_tail_mass_at_angle(model, mid) < target, mid, lo)
    a = 0.5 * (model.lambda_minus + model.lambda_plus)
    r = 0.5 * (model.lambda_plus - model.lambda_minus)
    gamma = np.where(js == 1, model.lambda_plus, a + r * np.cos(lo + 0.5 * step))
    return float(gamma) if gamma.ndim == 0 else gamma


@functools.lru_cache(maxsize=64)
def _classical_locations_cached(model: SpectralModel, q: int) -> np.ndarray:
    return classical_location(model, np.arange(1, q + 1), q)


def classical_locations(model: SpectralModel, q: int) -> np.ndarray:
    """All q classical locations, descending; memoized per (model, q)."""
    return np.array(_classical_locations_cached(model, q))


def stieltjes(model: SpectralModel, z) -> StieltjesQuadruple:
    """Evaluate the limiting transform system at z with Im z > 0.

    Any other z, real or below the axis or with a NaN imaginary part,
    raises DomainError.
    """
    c1, c2 = model.c1, model.c2
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"the transforms need Im z > 0, got z = {z}")
    s = sqrt_upper((z - model.lambda_minus) * (z - model.lambda_plus))
    core = -z + c1 + c2 + s
    m1 = core / (2.0 * (1.0 - c1) * z * (1.0 - z)) - c1 / ((1.0 - c1) * z)
    m2 = core / (2.0 * (1.0 - c2) * z * (1.0 - z)) - c2 / ((1.0 - c2) * z)
    m3 = 0.5 * ((1.0 - 2.0 * c1) * z + c1 - c2 + s)
    m4 = 0.5 * ((1.0 - 2.0 * c2) * z + c2 - c1 + s)
    h = 0.5 * sqrt_upper(z) * (-z + (2.0 - c1 - c2) + s)
    m = (1.0 - c2) / c2 * m2
    return StieltjesQuadruple(m1=m1, m2=m2, m3=m3, m4=m4, h=h, m=m)


@dataclass(eq=False)
class PiDescriptor:
    """Block-constant limit of the linearized resolvent at one z.

    Held by its distinct values on the layout's coordinates, never as a
    dense d x d array.  The transforms are those of the layout's own
    ratios c1 = p/n and c2 = q/n, which fix the limit with z.  The
    diagonal values are m1/c1 on the first data block and m2/c2 on the
    second; the two factor blocks carry the kernel [[m3, h], [h, m4]] on
    their paired coordinates (mu, mu + n) and are zero elsewhere.
    """

    z: complex
    layout: IndexLayout
    diag1: complex
    diag2: complex
    kernel: np.ndarray

    def subtract_from(self, G: np.ndarray, cols: slice = slice(None)) -> None:
        """G -= the limit matrix, in place, touching only its nonzero entries.

        G is the column panel [:, cols] of a d x d matrix, and only the
        limit's entries in those columns are subtracted; the whole matrix
        is the panel of every column, the default.
        """
        layout = self.layout
        start, stop, _ = cols.indices(layout.dim)
        if G.shape != (layout.dim, stop - start):
            raise ParameterError(f"G has shape {G.shape}, expected {(layout.dim, stop - start)}")
        for block, value in zip(layout.blocks, (self.diag1, self.diag2)):
            layout.diagonal(G, block, cols)[...] -= value
        layout.add_kernel(G, -self.kernel[0, 0], -self.kernel[0, 1], -self.kernel[1, 1], cols)


def _finite_n_model(layout: IndexLayout) -> SpectralModel:
    """The model at the layout's own ratios p/n, q/n, for n >= 1."""
    p, q, n = layout
    if n < 1:
        raise ParameterError(f"the limit objects need n >= 1, got n = {n}")
    return make_model(p / n, q / n)


def pi_limit(layout: IndexLayout, z) -> PiDescriptor:
    """Assemble the block-constant limit matrix descriptor at z on layout.

    The limit is that of the layout's finite-n ratios p/n and q/n; a
    layout with n < 1 raises ParameterError.
    """
    model = _finite_n_model(layout)
    z = complex(z)
    quad = stieltjes(model, z)
    kernel = np.array([[quad.m3, quad.h], [quad.h, quad.m4]])
    return PiDescriptor(
        z=z,
        layout=layout,
        diag1=quad.m1 / model.c1,
        diag2=quad.m2 / model.c2,
        kernel=kernel,
    )


def psi_control(layout: IndexLayout, z) -> float:
    """Fluctuation control parameter sqrt(Im m / (n eta)) + 1/(n eta) at z on layout.

    m is the limit transform at the layout's finite-n ratios p/n and
    q/n; a layout with n < 1 raises ParameterError.
    """
    z = complex(z)
    quad = stieltjes(_finite_n_model(layout), z)
    n_eta = layout.n * z.imag
    return math.sqrt(max(quad.m.imag, 0.0) / n_eta) + 1.0 / n_eta
