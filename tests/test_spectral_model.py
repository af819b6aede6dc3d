"""Deterministic limit objects: edges, density, transforms, quantiles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from test_acceptance import RATIO_GRID_20

from scclab import spectral_model
from scclab import (
    DomainError,
    ParameterError,
    classical_location,
    classical_locations,
    density,
    make_model,
    pi_limit,
    psi_control,
    sc_residuals,
    solve_m3,
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
# (quadrature error below 1e-13 at every point).
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

    @pytest.mark.parametrize("c1,c2", [(0.4, 0.2), (0.3, 0.2), (0.45, 0.45), (0.2, 0.1)])
    def test_unit_mass(self, c1, c2):
        assert support_mass(make_model(c1, c2)) == pytest.approx(1.0, abs=1e-9)


class TestStieltjes:
    def test_self_consistency_residuals(self, model_wide, model_thin):
        for model in (model_wide, model_thin):
            for z in Z_GRID:
                quad_t = stieltjes(model, z)
                assert sc_residuals(model, quad_t, z).max() < 1e-12

    def test_real_axis_against_quadrature(self, model_wide):
        # branch continuation from the upper half plane, frozen quadrature
        # oracle for the bulk transform m
        for E, expected in M_QUAD_04_02.items():
            quad_t = stieltjes(model_wide, E)
            assert quad_t.m.imag == 0.0
            assert quad_t.m.real == pytest.approx(expected, rel=1e-10)

    def test_real_axis_is_limit_of_upper_half_plane(self, model_wide):
        for E in (-1.0, 0.01, 0.9, 2.0):
            on_axis = stieltjes(model_wide, E)
            near = stieltjes(model_wide, complex(E, 1e-9))
            assert abs(on_axis.m - near.m) < 1e-6

    def test_unit_point_closed_form(self, model_wide):
        c1, c2 = model_wide.c1, model_wide.c2
        d = 1.0 - c1 - c2
        quad_t = stieltjes(model_wide, 1.0)
        assert quad_t.m1 == pytest.approx(-c1 / d, abs=1e-14)
        assert quad_t.m2 == pytest.approx(-c2 / d, abs=1e-14)
        assert quad_t.m3 == pytest.approx(d, abs=1e-14)
        assert quad_t.m4 == pytest.approx(d, abs=1e-14)
        assert quad_t.h == pytest.approx(d, abs=1e-14)
        assert quad_t.m == pytest.approx(-(1.0 - c2) / d, abs=1e-14)

    def test_quadratic_route_agrees(self, model_wide, model_thin):
        for model in (model_wide, model_thin):
            for z in Z_GRID:
                assert abs(solve_m3(model, z) - stieltjes(model, z).m3) < 1e-12

    def test_lower_half_plane_rejected(self, model_wide):
        with pytest.raises(DomainError):
            stieltjes(model_wide, complex(0.5, -0.1))

    def test_interior_of_support_rejected_on_axis(self, model_wide):
        with pytest.raises(DomainError):
            stieltjes(model_wide, 0.44)

    def test_imaginary_part_sign(self, model_wide):
        # Herglotz property: Im m > 0 in the upper half plane
        for z in Z_GRID:
            assert stieltjes(model_wide, z).m.imag > 0.0


class TestQuantiles:
    def test_first_quantile_is_upper_edge(self, model_thin):
        assert classical_location(model_thin, 1, 200) == model_thin.lambda_plus

    def test_monotone_decreasing(self, model_thin):
        gamma = classical_locations(model_thin, 60)
        assert np.all(np.diff(gamma) < 0)
        assert gamma[0] == model_thin.lambda_plus
        assert gamma[-1] > model_thin.lambda_minus

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
            oracle = spectral_model._tail_mass_from(model, a + r * math.cos(theta))
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
            desc = pi_limit(model_wide, z, p=40, q=20, n=100)
            dense = desc.dense()
            dim = dense.shape[0]
            assert dim == 40 + 20 + 200
            kernel = desc.kernel
            kinv = desc.kernel_inverse
            assert np.max(np.abs(kernel @ kinv - np.eye(2))) < 1e-12

    def test_dense_structure(self, model_wide):
        z = complex(0.5, 0.3)
        quad_t = stieltjes(model_wide, z)
        desc = pi_limit(model_wide, z, p=8, q=4, n=20)
        dense = desc.dense()
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

    def test_bounded_norm_on_window(self, model_thin):
        # the limit stays order one uniformly over the spectral window
        for E in np.linspace(0.1, 1.0, 7):
            for eta in (0.05, 0.2, 1.0):
                desc = pi_limit(model_thin, complex(E, eta), p=30, q=20, n=100)
                assert np.max(np.abs(desc.dense())) < 50.0


class TestFluctuationControl:
    def test_decays_like_inverse_sqrt_n(self, model_wide):
        z = complex(0.44, 0.3)
        psi_n = psi_control(model_wide, z, 100)
        psi_4n = psi_control(model_wide, z, 400)
        assert psi_n / psi_4n == pytest.approx(2.0, rel=0.25)

    def test_dominates_both_terms(self, model_wide):
        z = complex(0.44, 0.05)
        n = 500
        quad_t = stieltjes(model_wide, z)
        expected = np.sqrt(quad_t.m.imag / (n * 0.05)) + 1.0 / (n * 0.05)
        assert psi_control(model_wide, z, n) == pytest.approx(expected, rel=1e-12)
