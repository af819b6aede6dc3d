"""Independent reference routes that only the tests need.

Each one recomputes, by a different or more explicit path, an object the
library evaluates in a leaner form: the m3 root of the closed quadratic,
the residuals of the transforms' self-consistency relations, the dense
block-constant limit matrix, the inverse of its 2x2 kernel, the
un-inverted coupling kernel of the linearization, the dense
linearization H and its resolvent by LU inversion, the determinant
characterization of the spectrum by the smallest singular value of H,
the identity residual max |H G - I| of a whole G, the Schur route's G
collected whole from its panels, a classical location found by a
bracketed root finder one target at a time, the tail mass of the
density by adaptive quadrature, the top eigenvalues of tridiagonal GOE
draws by LAPACK's bisection (stebz), one trial at a time, random signs
by numpy's bounded-integer draw, whole sampler matrices drawn row by row
by the Generator's own calls, and the local-law report swept over a
materialized G - Pi.  One is an exact law rather than a second route:
the beta-Jacobi matrix model of the Gaussian null spectrum.
"""

import math

import numpy as np
from scipy import integrate, optimize
from scipy.linalg import eigvalsh_tridiagonal

from scclab import (LinearizationMatrix, LocalLawReport, NumericalError, ParameterError,
                    ResolventBundle, SpectralModel, StieltjesQuadruple, blocks_via_schur,
                    build_H, linearized_resolvent, make_model, pi_limit, psi_control, stieltjes)
from scclab._linalg import sqrt_upper, tridiagonal_top
from scclab.linearized_resolvent import (_RESIDUAL_LIMIT, _enforce, _panels,
                                         _partial_traces, _real_times, _test_vectors)
from scclab.spectral_model import PiDescriptor, _tail_mass_at_angle, density


def solve_m3(model: SpectralModel, z) -> complex:
    """Solve the closed quadratic for m3 and pick the upper-half-plane root.

    The quadratic is m3**2 + b m3 + c = 0 with b = (2 c1 - 1) z - c1 + c2
    and c = c1 (c1 - 1) z (z - 1).  Its discriminant factors exactly as
    (z - lambda_minus)(z - lambda_plus); that identity is asserted here
    before the root with nonnegative imaginary part is returned.
    """
    c1, c2 = model.c1, model.c2
    z = complex(z)
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
    root = 0.5 * (-b + sqrt_upper(disc))
    if root.imag < -1e-12:
        raise NumericalError(f"selected root has negative imaginary part at z={z}")
    return root


def sc_residuals(model: SpectralModel, quad: StieltjesQuadruple, z) -> np.ndarray:
    """Absolute residuals of the five self-consistency relations at z.

    In order: the two reciprocal couplings m1 = -c1/m3 and m2 = -c2/m4,
    the linear difference m3 - m4 = (1-z)(c1-c2), the rational relation
    expressing m3 through (m1, m2), and the closed quadratic in m3.
    """
    c1, c2 = model.c1, model.c2
    z = complex(z)
    m1, m2, m3, m4 = quad.m1, quad.m2, quad.m3, quad.m4
    r = np.empty(5)
    r[0] = abs(m1 + c1 / m3)
    r[1] = abs(m2 + c2 / m4)
    r[2] = abs(m3 - m4 - (1.0 - z) * (c1 - c2))
    r[3] = abs(m3 * (1.0 / z - (m1 + m2) + (z - 1.0) * m1 * m2) - (1.0 - (z - 1.0) * m2))
    r[4] = abs(m3 ** 2 + ((2.0 * c1 - 1.0) * z - c1 + c2) * m3 + c1 * (c1 - 1.0) * z * (z - 1.0))
    return r


def pi_dense(desc: PiDescriptor) -> np.ndarray:
    """The block-constant limit matrix of a descriptor as a dense d x d array."""
    p, q, n = desc.layout
    out = np.zeros((p + q + 2 * n, p + q + 2 * n), dtype=complex)
    off = p + q
    data = np.arange(off)
    idx = off + np.arange(n)
    out[data[:p], data[:p]] = desc.diag1
    out[data[p:], data[p:]] = desc.diag2
    out[idx, idx] = desc.kernel[0, 0]
    out[n + idx, n + idx] = desc.kernel[1, 1]
    out[idx, n + idx] = desc.kernel[0, 1]
    out[n + idx, idx] = desc.kernel[1, 0]
    return out


def pi_kernel_inverse(model: SpectralModel, z) -> np.ndarray:
    """Closed-form inverse of the limit's 2x2 kernel [[m3, h], [h, m4]] at z."""
    z = complex(z)
    quad = stieltjes(model, z)
    sz = sqrt_upper(z)
    return (1.0 / (z - 1.0)) * np.array([
        [1.0 - (z - 1.0) * quad.m1, -1.0 / sz],
        [-1.0 / sz, 1.0 - (z - 1.0) * quad.m2],
    ])


def integer_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random signs from rng.integers(0, 2, n), which the sampler's raw-bit signs equal."""
    return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0


def reference_row(rng: np.random.Generator, law: str, n: int, beta=None) -> np.ndarray:
    """One unit-variance row of the law, drawn by the Generator's own calls."""
    if law == "gaussian":
        return rng.standard_normal(n)
    if law == "rademacher":
        return integer_signs(rng, n)
    if law == "uniform":
        return (2.0 * rng.random(n) - 1.0) * math.sqrt(3.0)
    u = rng.random(n)
    return math.sqrt((beta - 2.0) / beta) * u ** (-1.0 / beta) * integer_signs(rng, n)


def reference_matrix(p: int, n: int, seed: int, matrix_id: int, law: str,
                     beta=None) -> np.ndarray:
    """A sampler matrix drawn row by row, each row from a fresh keyed Philox.

    Row i of matrix m is reference_row on Philox(key=(seed << 64) | (m << 32) | i),
    scaled by 1/sqrt(n); X is matrix 0 and Y matrix 1.
    """
    rows = [reference_row(np.random.Generator(np.random.Philox(
        key=(seed << 64) | (matrix_id << 32) | row)), law, n, beta) for row in range(p)]
    return np.array(rows) * (1.0 / math.sqrt(n))


def kernel_2x2(z: complex) -> np.ndarray:
    """The 2x2 coupling kernel [[z, z^(1/2)], [z^(1/2), z]]."""
    sz = sqrt_upper(z)
    return np.array([[z, sz], [sz, z]])


def dense_H(lin: LinearizationMatrix) -> np.ndarray:
    """The dense H(z) of a linearization: real for real z > 0, complex symmetric otherwise."""
    layout = lin.layout
    s1, s2, s3, s4 = layout.blocks
    real = lin.z.imag == 0 and lin.z.real > 0
    H = np.zeros((layout.dim, layout.dim), dtype=float if real else complex)
    H[s1, s3] = lin.X
    H[s2, s4] = lin.Y
    H[s3, s1] = lin.X.T
    H[s4, s2] = lin.Y.T
    diag, cross = lin.kernel_inverse
    if real:
        diag, cross = diag.real, cross.real
    layout.add_kernel(H, diag, cross, diag)
    return H


def identity_residual(lin: LinearizationMatrix, G: np.ndarray) -> float:
    """max |H G - I| over all d**2 entries of a whole G, in the Schur route's column panels.

    Each panel goes through the library's _panel_residual, so this checks
    the residual code that runs.  A real G is taken as complex.
    """
    G = np.asarray(G, dtype=complex)
    s1, s2 = lin.layout.blocks[:2]
    worst = []
    for cols in _panels(0, s2.stop) + _panels(s2.stop, lin.dim):
        panel = G[:, cols]
        top, bottom = _real_times(lin.X.T, panel[s1]), _real_times(lin.Y.T, panel[s2])
        worst.append(linearized_resolvent._panel_residual(lin, cols, panel, top, bottom))
    return float(np.max(worst))


def resolvent(pair, z) -> tuple[np.ndarray, ResolventBundle]:
    """G(z) by dense LU inversion of H(z), with its bundle; (G, bundle).

    A singular H, as at a real z where det H vanishes (a squared sample
    canonical correlation), and identity residuals above 1e-6 raise a
    NumericalError.
    """
    lin = build_H(pair, z)
    layout = lin.layout
    try:
        G = np.linalg.inv(dense_H(lin))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linearization not invertible at z = {lin.z}: {exc}") from exc
    residual = _enforce("resolvent identity", identity_residual(lin, G),
                        _RESIDUAL_LIMIT, lin.z)
    m1, m2, m3, m4 = _partial_traces(G.diagonal(), layout)
    s2 = layout.blocks[1]
    m = complex(np.trace(G[s2, s2] @ (pair.Y @ pair.Y.T))) / layout.q
    return G, ResolventBundle(z=lin.z, layout=layout, m1=m1, m2=m2, m3=m3, m4=m4, m=m,
                              identity_residual=residual)


def schur_resolvent(factor, z) -> tuple[np.ndarray, ResolventBundle]:
    """blocks_via_schur's G collected whole by a visitor, with its bundle; (G, bundle)."""
    pair = factor.pair
    d = pair.p + pair.q + 2 * pair.n
    G = np.empty((d, d), dtype=complex)

    def keep(cols, panel):
        G[:, cols] = panel

    return G, blocks_via_schur(factor, z, visit=keep)


def det_characterization_residual(pair, lam: float) -> float:
    """Relative smallest singular value of the dense linearization at a real point.

    For lam in (0, 1) that is a squared sample canonical correlation the
    linearization matrix H(lam) is singular, so this residual (smallest
    singular value over largest) vanishes to roundoff.
    """
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"determinant characterization needs 0 < lambda < 1, got {lam}")
    sv = np.linalg.svd(dense_H(build_H(pair, lam)), compute_uv=False)
    return float(sv[-1] / sv[0])


def classical_location_brentq(model: SpectralModel, j: int, q: int) -> float:
    """gamma_j by Brent's method on the closed-form tail mass in theta.

    A root tolerance of 1e-12 in theta bounds the error in x by 1e-12,
    since |dx/dtheta| = r sin(theta) < 1.
    """
    if j == 1:
        return model.lambda_plus
    target = (j - 1) / q
    theta = optimize.brentq(
        lambda t: _tail_mass_at_angle(model, t) - target,
        0.0,
        math.pi,
        xtol=1e-12,
        maxiter=200,
    )
    a = 0.5 * (model.lambda_minus + model.lambda_plus)
    r = 0.5 * (model.lambda_plus - model.lambda_minus)
    return a + r * math.cos(theta)


def _quad_checked(fun, a, b, what):
    val, err = integrate.quad(fun, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-9:
        raise NumericalError(
            f"quadrature for {what} did not converge: error estimate {err:.2e}",
            achieved=err,
        )
    return val


def tail_mass_quad(model: SpectralModel, x: float) -> float:
    """Integral of the density from x up to lambda_plus, by adaptive quadrature.

    The substitution t = lambda_plus - s**2 (and its mirror at the lower
    edge) removes the square-root endpoint behavior, so the quadrature
    sees a smooth integrand on each piece, split at the support's midpoint.
    """
    lm, lp = model.lambda_minus, model.lambda_plus
    x = min(max(x, lm), lp)
    mid = 0.5 * (lm + lp)
    upper = _quad_checked(lambda s: 2.0 * s * density(model, lp - s * s),
                          0.0, math.sqrt(lp - max(x, mid)), "upper tail mass")
    if x >= mid:
        return upper
    lower = _quad_checked(lambda s: 2.0 * s * density(model, lm + s * s),
                          math.sqrt(x - lm), math.sqrt(mid - lm), "lower bulk mass")
    return lower + upper


def tridiagonal_top_stebz(diag, off, k: int) -> np.ndarray:
    """The k largest eigenvalues, descending, of each tridiagonal by stebz."""
    n = np.shape(diag)[1]
    return np.array([eigvalsh_tridiagonal(a, b, select="i", select_range=(n - k, n - 1))[::-1]
                     for a, b in zip(diag, off)])


def goe_values_stebz(n_goe: int, trials: int, k_max: int, seed: int) -> np.ndarray:
    """Rescaled top GOE eigenvalues drawn and solved one trial at a time.

    The per-trial streams and the rescaling are those of
    edge_stats._goe_values; only the eigensolver differs.
    """
    values = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, trial))))
        diag = rng.standard_normal(n_goe) * math.sqrt(2.0)
        off = np.sqrt(rng.chisquare(np.arange(n_goe - 1, 0, -1)))
        top = tridiagonal_top_stebz(diag[None], off[None], k_max)[0] / math.sqrt(n_goe)
        values.append(n_goe ** (2.0 / 3.0) * (top - 2.0))
    return np.array(values)


def local_law_reference(factor, z, seed: int = 0) -> LocalLawReport:
    """local_law_errors reduced from the whole materialized G - Pi at once.

    G is schur_resolvent's whole G and Pi the dense limit matrix of its
    layout; the sectors, paired34 and the quadratic forms are read from
    their difference in one piece, as local_law_errors did before it took
    G's column panels one by one.  The window check is left to the caller.
    """
    z = complex(z)
    pair = factor.pair
    n = pair.n
    G, bundle = schur_resolvent(factor, z)
    layout = bundle.layout
    diff = G - pi_dense(pi_limit(layout, z))
    sectors = {}
    for a, rows in enumerate(layout.blocks, 1):
        for b, cols in enumerate(layout.blocks, 1):
            sectors[f"{a}{b}"] = float(np.abs(diff[rows, cols]).max())
    entrywise = max(sectors.values())
    sectors["paired34"] = float(np.abs(layout.diagonal(diff, layout.blocks[3], shift=-n)).max())
    vectors = _test_vectors(layout, seed)
    aniso = float(np.abs(_real_times(vectors.T, diff) @ vectors).max())
    limit = stieltjes(make_model(layout.p / n, layout.q / n), z)
    found = (bundle.m1, bundle.m2, bundle.m3, bundle.m4, bundle.m)
    expected = (limit.m1, limit.m2, limit.m3, limit.m4, limit.m)
    psi = psi_control(layout, z)
    phi_n = pair.meta.phi_n if pair.meta.phi_n is not None else n ** -0.5
    return LocalLawReport(
        z=z, n=n, p=layout.p, q=layout.q, entrywise_err=entrywise, aniso_err=aniso,
        avg_err=[float(abs(f - e)) for f, e in zip(found, expected)],
        psi=psi, phi_n=float(phi_n),
        benchmarks={"entrywise": phi_n + psi, "averaged": 1.0 / (n * z.imag)},
        sectors=sectors,
        checks={"identity_residual": bundle.identity_residual,
                "trace_identity": bundle.trace_identity_residual},
    )


def jacobi_tridiagonal(p: int, q: int, n: int, draws: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The squared canonical correlations of Gaussian data as tridiagonals, exactly in law.

    For Gaussian X (uncentered) and any independent Y, the q squared
    sample canonical correlations are the beta = 1 Jacobi ensemble with
    weight lam**((p-q-1)/2) (1-lam)**((n-p-q-1)/2).  Edelman and Sutton
    (Found. Comput. Math. 2008) draw it as the squared singular values of
    an upper-bidiagonal B: with m = q, a = p - q and b = n - p - q,
    c_i = sqrt(Beta((a+i)/2, (b+i)/2)) for i = m..1,
    c'_j = sqrt(Beta(j/2, (a+b+1+j)/2)) for j = m-1..1, s = sqrt(1 - c**2),
    diag(B) = (c_m, c_{m-1} s'_{m-1}, ..., c_1 s'_1) and
    superdiag(B) = (-s_m c'_{m-1}, ..., -s_2 c'_1).  Returns the diagonals
    (draws, q) and off-diagonals (draws, q - 1) of the tridiagonal B'B,
    whose eigenvalues those are.
    """
    m, a, b = q, p - q, n - p - q
    i = np.arange(m, 0, -1)
    j = np.arange(m - 1, 0, -1)
    c = np.sqrt(rng.beta((a + i) / 2.0, (b + i) / 2.0, size=(draws, m)))
    c_prime = np.sqrt(rng.beta(j / 2.0, (a + b + 1 + j) / 2.0, size=(draws, m - 1)))
    s, s_prime = np.sqrt(1.0 - c * c), np.sqrt(1.0 - c_prime * c_prime)
    d = np.concatenate([c[:, :1], c[:, 1:] * s_prime], axis=1)
    e = -s[:, :-1] * c_prime
    diag = d * d
    diag[:, 1:] += e * e
    return diag, d[:, :-1] * e


def jacobi_top(p: int, q: int, n: int, draws: int, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """The k largest of jacobi_tridiagonal's spectra, by _linalg.tridiagonal_top; (draws, k)."""
    return tridiagonal_top(*jacobi_tridiagonal(p, q, n, draws, rng), k)


def jacobi_spectrum(p: int, q: int, n: int, draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """All q of jacobi_tridiagonal's eigenvalues per draw, ascending, by LAPACK; (draws, q)."""
    diag, off = jacobi_tridiagonal(p, q, n, draws, rng)
    return np.array([eigvalsh_tridiagonal(a, b) for a, b in zip(diag, off)])
