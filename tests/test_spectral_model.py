"""Deterministic limit objects: edges, density, transforms, quantiles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from oracles import (classical_location_brentq, jacobi_spectrum, pi_dense, pi_kernel_inverse,
                     sc_residuals, solve_m3, tail_mass_quad)
from test_acceptance import RATIO_GRID_20

from scclab import spectral_model
from scclab._linalg import IndexLayout
from scclab import (
    DomainError,
    NumericalError,
    ParameterError,
    classical_location,
    classical_locations,
    density,
    make_model,
    pi_limit,
    psi_control,
    stieltjes,
    support_edges,
    support_mass,
)

# Edge positions and edge-scaling constants, precomputed from the closed
# forms with 50-digit arithmetic and frozen here.
EDGES_04_02 = (0.04808164115469155, 0.8319183588453087)
CTW_04_02 = 0.46381571021096923
EDGES_03_02 = (0.0133939444035328, 0.7466060555964671)
CTW_03_02 = 0.5801432992626756

# Density value at the midpoint of the support for ratios (0.4, 0.2); the
# midpoint is exactly 0.44 there.
DENSITY_MID_04_02 = 1.2657415604442794

# Stieltjes transform of the bulk law at real energies outside the support
# for ratios (0.4, 0.2), frozen from adaptive quadrature of the density
# (quadrature error below 1e-13 at every point); the transform approaches
# these real values from the upper half plane.
M_QUAD_04_02 = {
    -1.0: 0.7320508075688775,
    0.01: 4.313621179408755,
    0.9: -2.7546696784487286,
    2.0: -0.6374586088176879,
}

Z_GRID = [
    complex(0.2, 0.5), complex(0.44, 0.05), complex(0.9, 0.01),
    complex(-0.3, 0.2), complex(1.5, 1.0), complex(0.05, 0.3),
    complex(0.7, 2.0), complex(0.3, 0.001),
]


class TestEdges:
    def test_frozen_edges(self):
        lm, lp = support_edges(0.4, 0.2)
        assert lm == pytest.approx(EDGES_04_02[0], abs=1e-15)
        assert lp == pytest.approx(EDGES_04_02[1], abs=1e-15)
        lm, lp = support_edges(0.3, 0.2)
        assert lm == pytest.approx(EDGES_03_02[0], abs=1e-15)
        assert lp == pytest.approx(EDGES_03_02[1], abs=1e-15)

    def test_frozen_edge_scale(self):
        assert make_model(0.4, 0.2).c_tw == pytest.approx(CTW_04_02, abs=1e-15)
        assert make_model(0.3, 0.2).c_tw == pytest.approx(CTW_03_02, abs=1e-15)

    def test_degenerate_second_ratio(self):
        # with no second coordinate block the support collapses to a point
        assert support_edges(0.3, 0.0) == pytest.approx((0.3, 0.3))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            make_model(0.2, 0.4)       # c2 > c1
        with pytest.raises(ParameterError):
            make_model(0.6, 0.5)       # c1 + c2 >= 1
        with pytest.raises(ParameterError):
            make_model(0.4, -0.1)
        with pytest.raises(ParameterError):
            make_model(0.4, 0.0)       # degenerate ratio rejected for models

    def test_model_built_by_one_pass(self, monkeypatch):
        # make_model checks the ratios and derives the edges once
        edges, checks = [], []
        real_edges = spectral_model.support_edges
        real_checks = spectral_model.aspect_ratio_violations
        monkeypatch.setattr(spectral_model, "support_edges",
                            lambda *a: edges.append(a) or real_edges(*a))
        monkeypatch.setattr(spectral_model, "aspect_ratio_violations",
                            lambda *a: checks.append(a) or real_checks(*a))
        make_model(0.3, 0.2)
        assert edges == [(0.3, 0.2)] and checks == [(0.3, 0.2)]

    def test_edges_inside_unit_interval(self):
        for c1, c2 in [(0.4, 0.2), (0.3, 0.2), (0.45, 0.45), (0.1, 0.05)]:
            lm, lp = support_edges(c1, c2)
            assert 0.0 <= lm < lp < 1.0


class TestDensity:
    def test_midpoint_value(self, model_wide):
        mid = 0.5 * (model_wide.lambda_minus + model_wide.lambda_plus)
        assert mid == pytest.approx(0.44, abs=1e-15)
        assert density(model_wide, mid) == pytest.approx(DENSITY_MID_04_02, abs=1e-13)

    def test_vanishes_off_support(self, model_wide):
        xs = np.array([0.0, model_wide.lambda_minus - 1e-6,
                       model_wide.lambda_plus + 1e-6, 0.99])
        assert np.all(density(model_wide, xs) == 0.0)

    def test_array_matches_scalar(self, model_thin):
        xs = np.linspace(model_thin.lambda_minus, model_thin.lambda_plus, 17)
        vec = density(model_thin, xs)
        for x, v in zip(xs, vec):
            assert density(model_thin, float(x)) == pytest.approx(v, abs=0.0)

    # the grid's c1 = c2 pairs put the lower edge at 0, c1 + c2 near 1
    # puts the upper edge near 1
    @pytest.mark.parametrize("c1,c2", RATIO_GRID_20 + [
        (0.6, 1.0 - delta - 0.6) for delta in (1e-3, 1e-4, 1e-5)] + [
        ((1.0 - delta) / 2, (1.0 - delta) / 2) for delta in (1e-3, 1e-4, 1e-5)])
    def test_unit_mass(self, c1, c2):
        assert abs(support_mass(make_model(c1, c2)) - 1.0) <= 1e-10

    @pytest.fixture
    def evaluated(self, monkeypatch):
        # the number of points of each density call
        sizes = []
        real = spectral_model.density
        monkeypatch.setattr(spectral_model, "density",
                            lambda model, x: sizes.append(np.size(x)) or real(model, x))
        return sizes

    def test_halvings_evaluate_only_new_midpoints(self, evaluated):
        support_mass(make_model(0.4, 0.2))
        assert evaluated == [65, 64]

    def test_capped_intervals_raise(self, evaluated):
        # both edges lie 1e-12 from 0 and 1: the rule stops at 2**20 intervals
        with pytest.raises(NumericalError, match="did not converge") as info:
            support_mass(make_model(0.5, 0.499999))
        assert sum(evaluated) == 2 ** 20 + 1
        assert info.value.achieved > 1e-9


class TestStieltjes:
    def test_self_consistency_residuals(self, model_wide, model_thin):
        for model in (model_wide, model_thin):
            for z in Z_GRID:
                quad_t = stieltjes(model, z)
                assert sc_residuals(model, quad_t, z).max() < 1e-12

    def test_real_axis_against_quadrature(self, model_wide):
        # just above the real axis outside the support, the bulk transform
        # m meets the frozen quadrature oracle; there Im m is O(eta)
        for E, expected in M_QUAD_04_02.items():
            quad_t = stieltjes(model_wide, complex(E, 1e-12))
            assert abs(quad_t.m.imag) < 1e-10
            assert quad_t.m.real == pytest.approx(expected, rel=1e-10)

    def test_unit_point_closed_form(self, model_wide):
        # z = 1 is a removable singularity of the m1, m2 formulas; along
        # z = 1 + i eta the transforms reach its finite limits
        c1, c2 = model_wide.c1, model_wide.c2
        d = 1.0 - c1 - c2
        quad_t = stieltjes(model_wide, complex(1.0, 1e-8))
        assert quad_t.m1 == pytest.approx(-c1 / d, abs=1e-7)
        assert quad_t.m2 == pytest.approx(-c2 / d, abs=1e-7)
        assert quad_t.m3 == pytest.approx(d, abs=1e-7)
        assert quad_t.m4 == pytest.approx(d, abs=1e-7)
        assert quad_t.h == pytest.approx(d, abs=1e-7)
        assert quad_t.m == pytest.approx(-(1.0 - c2) / d, abs=1e-7)

    def test_quadratic_route_agrees(self, model_wide, model_thin):
        for model in (model_wide, model_thin):
            for z in Z_GRID:
                assert abs(solve_m3(model, z) - stieltjes(model, z).m3) < 1e-12

    def test_lower_half_plane_rejected(self, model_wide):
        with pytest.raises(DomainError):
            stieltjes(model_wide, complex(0.5, -0.1))

    def test_off_upper_half_plane_rejected(self, model_wide):
        # real z left of, inside and right of the support, the pole 0, the
        # removable point 1, and a NaN imaginary part
        for z in (-1.0, 0.0, 0.44, 1.0, 2.0, complex(0.5, math.nan)):
            with pytest.raises(DomainError, match=r"need Im z > 0"):
                stieltjes(model_wide, z)

    def test_imaginary_part_sign(self, model_wide):
        # Herglotz property: Im m > 0 in the upper half plane
        for z in Z_GRID:
            assert stieltjes(model_wide, z).m.imag > 0.0

    def test_averaged_law_on_exact_gaussian_spectra(self):
        # m_n(z) = (1/q) sum_i 1/(lambda_i - z) over the full null spectrum of
        # a Gaussian pair, drawn exactly from the beta = 1 Jacobi model (200
        # draws per n at (c1, c2) = (0.3, 0.2)), is the resolvent's m; the
        # averaged local law puts it within O(1/(n eta)) of the limit m(z).
        # So the median of n eta |m_n(z) - m(z)| stays bounded and does not
        # grow with n, in the bulk and at the upper edge, at eta = 10/n and
        # n^(-1/2).  Measured over 40 other seeds, the median read 2.4 to 3.5
        # at E = 0.4 and 1.4 to 2.3 at E = lambda_plus, with a seed-to-seed
        # spread (sd) of at most 0.18 and means of at most 2.92, so 4 lies
        # more than 5 sd above every mean.  The ratio of the n = 2000 median
        # to the n = 400 one had means 0.91 to 1.06 and sds of at most 0.10,
        # so 1.5 lies 4 sd above the largest; a rate worse than 1/(n eta) by
        # n^(1/4) would reach 5^(1/4) = 1.5 from 400 to 2000 by itself.
        medians = {}
        for n in (400, 2000):
            p, q = 3 * n // 10, n // 5
            model = make_model(p / n, q / n)
            lam = jacobi_spectrum(p, q, n, 200, np.random.default_rng(n))
            for energy, E in (("bulk", 0.4), ("edge", model.lambda_plus)):
                for scale, eta in (("10/n", 10.0 / n), ("n^-1/2", n ** -0.5)):
                    z = complex(E, eta)
                    m_n = (1.0 / (lam - z)).mean(axis=1)
                    medians[energy, scale, n] = float(
                        np.median(n * eta * np.abs(m_n - stieltjes(model, z).m)))
        for energy in ("bulk", "edge"):
            for scale in ("10/n", "n^-1/2"):
                small, large = medians[energy, scale, 400], medians[energy, scale, 2000]
                assert max(small, large) <= 4.0, medians
                assert large <= 1.5 * small, medians


class TestQuantiles:
    def test_first_quantile_is_upper_edge(self, model_thin):
        assert classical_location(model_thin, 1, 200) == model_thin.lambda_plus

    def test_monotone_decreasing(self, model_thin):
        gamma = classical_locations(model_thin, 60)
        assert np.all(np.diff(gamma) < 0)
        assert gamma[0] == model_thin.lambda_plus
        assert gamma[-1] > model_thin.lambda_minus

    @pytest.mark.parametrize("c1,c2", RATIO_GRID_20)
    def test_bisection_matches_brentq(self, c1, c2):
        model = make_model(c1, c2)
        for q in (2, 40, 60, 160, 200):
            gamma = classical_locations(model, q)
            oracle = [classical_location_brentq(model, j, q) for j in range(1, q + 1)]
            assert np.max(np.abs(gamma - oracle)) <= 1e-12
            assert np.all(np.diff(gamma) < 0)
            assert gamma[0] == model.lambda_plus

    def test_scalar_j_is_float_entry(self, model_thin):
        q = 40
        gamma = classical_locations(model_thin, q)
        for j in (1, 2, 17, np.int64(30), q):
            value = classical_location(model_thin, j, q)
            assert type(value) is float
            assert value == gamma[j - 1]

    @pytest.mark.parametrize("j", [
        0, 41, 1.5, 2.0, True, [0, 1, 2], [39, 40, 41], [1.0, 2.0], np.array([1.5]),
    ])
    def test_bad_j_rejected(self, model_thin, j):
        with pytest.raises(ParameterError):
            classical_location(model_thin, j, 40)

    def test_against_dense_tabulation(self, model_wide):
        # independent oracle: cumulative trapezoid of the density on a dense
        # grid, inverted by interpolation
        q = 40
        lm, lp = model_wide.lambda_minus, model_wide.lambda_plus
        xs = np.linspace(lm, lp, 200001)
        fs = density(model_wide, xs)
        cdf = np.concatenate([[0.0], np.cumsum((fs[1:] + fs[:-1]) / 2 * np.diff(xs))])
        cdf /= cdf[-1]
        gamma = classical_locations(model_wide, q)
        for j in range(2, q + 1):
            target = 1.0 - (j - 1) / q      # upper tail mass (j-1)/q
            oracle = np.interp(target, cdf, xs)
            assert gamma[j - 1] == pytest.approx(oracle, abs=2e-5)

    def test_edge_spacing_exponent(self, model_thin):
        # near the upper edge the tail mass scales like (lp - x)^{3/2}; the
        # tail mass at gamma_j is (j - 1)/q, so the gap lp - gamma_j should
        # scale like ((j - 1)/q)^{2/3}
        q = 500
        gamma = classical_locations(model_thin, q)
        js = np.arange(2, 126)
        gaps = model_thin.lambda_plus - gamma[js - 1]
        slope = np.polyfit(np.log((js - 1) / q), np.log(gaps), 1)[0]
        assert 0.6 <= slope <= 0.75

    def test_tail_mass_consistency(self, model_wide):
        # integral of the density above gamma_j equals (j - 1)/q
        q = 20
        gamma = classical_locations(model_wide, q)
        lp = model_wide.lambda_plus

        def f(x):
            lm = model_wide.lambda_minus
            return np.sqrt((lp - x) * (x - lm)) / (2 * np.pi * 0.2 * x * (1 - x))

        for j in (5, 10, 15):
            mass, err = quad(f, gamma[j - 1], lp, epsabs=1e-11, epsrel=1e-11, limit=200)
            assert mass == pytest.approx((j - 1) / q, abs=1e-7)


class TestClosedFormTailMass:
    """The adaptive quadrature of the density is the independent route."""

    @pytest.mark.parametrize("c1,c2", RATIO_GRID_20)
    def test_matches_quadrature(self, c1, c2):
        model = make_model(c1, c2)
        a = 0.5 * (model.lambda_minus + model.lambda_plus)
        r = 0.5 * (model.lambda_plus - model.lambda_minus)
        for theta in np.linspace(0.0, math.pi, 62)[1:-1]:
            closed = spectral_model._tail_mass_at_angle(model, theta)
            oracle = tail_mass_quad(model, a + r * math.cos(theta))
            assert abs(closed - oracle) <= 1e-10

    @pytest.mark.parametrize("c1,c2", RATIO_GRID_20)
    def test_total_mass(self, c1, c2):
        model = make_model(c1, c2)
        assert spectral_model._tail_mass_at_angle(model, 0.0) == 0.0
        assert abs(spectral_model._tail_mass_at_angle(model, math.pi) - 1.0) <= 1e-12

    def test_equal_ratios_locations(self):
        # c1 = c2 puts the lower edge at zero, where the density has a pole
        model = make_model(0.3, 0.3)
        assert model.lambda_minus == 0.0
        gamma = classical_locations(model, 80)
        assert gamma[0] == model.lambda_plus
        assert np.all(np.diff(gamma) < 0)
        assert gamma[-1] > model.lambda_minus


class TestMatrixLimit:
    def test_descriptor_inverse(self, model_wide):
        for z in (complex(0.44, 0.1), complex(0.2, 0.7), complex(1.5, 0.02)):
            desc = pi_limit(IndexLayout(40, 20, 100), z)
            dense = pi_dense(desc)
            dim = dense.shape[0]
            assert dim == 40 + 20 + 200
            kernel = desc.kernel
            kinv = pi_kernel_inverse(model_wide, z)
            assert np.max(np.abs(kernel @ kinv - np.eye(2))) < 1e-12

    def test_layout_ratios_fix_the_limit(self):
        # the limit is that of p/n and q/n however near a nominal ratio
        # lies: (120, 80, 401) is within 1/n of (0.3, 0.2), but at this z
        # diag1 differs from the nominal model's by about 4.2e-3
        z = complex(0.5, 0.3)
        desc = pi_limit(IndexLayout(120, 80, 401), z)
        exact = stieltjes(make_model(120 / 401, 80 / 401), z)
        assert desc.diag1 == exact.m1 / (120 / 401)
        assert desc.kernel[0, 1] == exact.h
        nominal = stieltjes(make_model(0.3, 0.2), z)
        assert abs(desc.diag1 - nominal.m1 / 0.3) > 1e-3

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError, match="n >= 1, got n = 0"):
            pi_limit(IndexLayout(30, 20, 0), complex(0.5, 0.3))

    def test_dense_structure(self, model_wide):
        z = complex(0.5, 0.3)
        quad_t = stieltjes(model_wide, z)
        desc = pi_limit(IndexLayout(8, 4, 20), z)
        dense = pi_dense(desc)
        assert dense[0, 0] == pytest.approx(quad_t.m1 / model_wide.c1)
        assert dense[8, 8] == pytest.approx(quad_t.m2 / model_wide.c2)
        # paired coordinates carry the 2x2 kernel
        assert dense[12, 12] == pytest.approx(quad_t.m3)
        assert dense[12 + 20, 12 + 20] == pytest.approx(quad_t.m4)
        assert dense[12, 12 + 20] == pytest.approx(quad_t.h)
        assert dense[12 + 20, 12] == pytest.approx(quad_t.h)
        # off-pair entries vanish
        assert dense[0, 1] == 0.0
        assert dense[12, 13] == 0.0

    def test_subtract_from_is_exact(self):
        # in place, on the layout's own coordinates, bit for bit the dense
        # subtraction (p != q, so a swapped data block would show)
        desc = pi_limit(IndexLayout(8, 4, 20), complex(0.5, 0.3))
        rng = np.random.default_rng(5)
        G = rng.standard_normal((52, 52)) + 1j * rng.standard_normal((52, 52))
        expected = G - pi_dense(desc)
        panels = G.copy()
        desc.subtract_from(G)
        assert np.array_equal(G, expected)
        # column panels of 5, ending inside every block: the same matrix
        for start in range(0, 52, 5):
            cols = slice(start, min(start + 5, 52))
            desc.subtract_from(panels[:, cols], cols)
        assert np.array_equal(panels, expected)
        with pytest.raises(ParameterError):
            desc.subtract_from(panels[:, :5], slice(0, 6))

    def test_bounded_norm_on_window(self):
        # the limit stays order one uniformly over the spectral window
        for E in np.linspace(0.1, 1.0, 7):
            for eta in (0.05, 0.2, 1.0):
                desc = pi_limit(IndexLayout(30, 20, 100), complex(E, eta))
                assert np.max(np.abs(pi_dense(desc))) < 50.0


class TestFluctuationControl:
    def test_decays_like_inverse_sqrt_n(self):
        z = complex(0.44, 0.3)
        psi_n = psi_control(IndexLayout(40, 20, 100), z)
        psi_4n = psi_control(IndexLayout(160, 80, 400), z)
        assert psi_n / psi_4n == pytest.approx(2.0, rel=0.25)

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError, match="n >= 1, got n = 0"):
            psi_control(IndexLayout(30, 20, 0), complex(0.44, 0.3))

    def test_real_z_rejected(self):
        with pytest.raises(DomainError, match=r"need Im z > 0"):
            psi_control(IndexLayout(40, 20, 100), 0.44)

    def test_dominates_both_terms(self, model_wide):
        z = complex(0.44, 0.05)
        n = 500
        quad_t = stieltjes(model_wide, z)
        expected = np.sqrt(quad_t.m.imag / (n * 0.05)) + 1.0 / (n * 0.05)
        assert psi_control(IndexLayout(200, 100, n), z) == pytest.approx(expected, rel=1e-12)
