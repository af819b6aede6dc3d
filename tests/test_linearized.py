"""Linearization matrix, resolvent routes, and finite-size deviation reports."""

import numpy as np
import pytest

from scclab import (
    DomainError,
    NumericalError,
    ParameterError,
    blocks_via_schur,
    build_H,
    ccc_eigenvalues,
    local_law_errors,
    make_model,
    pi_limit,
    resolvent,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    stieltjes,
)
from scclab import linearized_resolvent
from scclab._linalg import kernel_2x2, kernel_inverse_2x2

Z_POINTS = [complex(0.3, 0.5), complex(0.7, 0.1), complex(0.5, 1.0),
            complex(0.9, 0.05), complex(0.1, 0.3)]


def _mixed_pairs(p, q, n, count):
    pairs = []
    for i in range(count):
        law = ("gaussian", "rademacher", "uniform", "pareto")[i % 4]
        if law == "gaussian":
            pairs.append(sample_gaussian(p, q, n, seed=100 + i))
        elif law == "pareto":
            pairs.append(sample_heavy_tail(p, q, n, seed=100 + i, beta=4.5))
        else:
            pairs.append(sample_bounded(p, q, n, seed=100 + i, law=law))
    return pairs


class TestBuild:
    def test_kernel_inverse_closed_form(self):
        for z in Z_POINTS + [complex(2.0, 0.0), complex(0.25, 0.0)]:
            prod = kernel_2x2(z) @ kernel_inverse_2x2(z)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-14

    def test_kernel_inverse_poles_rejected(self):
        with pytest.raises(ValueError):
            kernel_inverse_2x2(0.0)
        with pytest.raises(ValueError):
            kernel_inverse_2x2(1.0)

    def test_real_point_gives_real_symmetric_matrix(self, small_pair):
        lin = build_H(small_pair, 0.37)
        assert lin.matrix.dtype == np.float64
        assert np.array_equal(lin.matrix, lin.matrix.T)
        assert lin.dim == small_pair.p + small_pair.q + 2 * small_pair.n

    def test_complex_point_gives_complex_symmetric_matrix(self, small_pair):
        lin = build_H(small_pair, complex(0.37, 0.1))
        assert lin.matrix.dtype == np.complex128
        assert np.max(np.abs(lin.matrix - lin.matrix.T)) == 0.0

    def test_data_blocks_placed(self, small_pair):
        lin = build_H(small_pair, complex(0.5, 0.2))
        p, q, n = small_pair.p, small_pair.q, small_pair.n
        H = lin.matrix
        assert np.array_equal(H[:p, p + q: p + q + n].real, small_pair.X)
        assert np.array_equal(H[p: p + q, p + q + n:].real, small_pair.Y)
        # data corner is zero
        assert np.abs(H[: p + q, : p + q]).max() == 0.0

    def test_kernel_poles_rejected(self, small_pair):
        with pytest.raises(DomainError):
            build_H(small_pair, 0.0)
        with pytest.raises(DomainError):
            build_H(small_pair, 1.0)
        with pytest.raises(DomainError):
            build_H(small_pair, complex(0.5, -0.1))


class TestResolventRoutes:
    def test_symmetry(self, small_pair):
        for z in Z_POINTS:
            bundle = resolvent(small_pair, z)
            assert np.max(np.abs(bundle.G - bundle.G.T)) < 1e-10

    def test_identity_residual_small(self, small_pair):
        for z in Z_POINTS:
            assert resolvent(small_pair, z).identity_residual < 1e-10

    def test_trace_identities(self):
        # exact per-realization identities, holding far below the 1e-10
        # working tolerance for every entry law
        for pair in _mixed_pairs(18, 12, 60, 4):
            c1, c2 = pair.p / pair.n, pair.q / pair.n
            for z in Z_POINTS:
                b = resolvent(pair, z)
                r1 = abs(b.m3 - b.m4 - (1 - b.z) * (c1 - c2))
                r2 = abs(b.m3 - (c2 * b.z * (1 - b.z) * b.m + (1 - c1 - c2) * b.z))
                assert r1 < 1e-10
                assert r2 < 1e-10

    def test_schur_matches_direct(self):
        for pair in _mixed_pairs(18, 12, 60, 2):
            for z in Z_POINTS:
                direct = resolvent(pair, z)
                schur = blocks_via_schur(pair, z)
                scale = np.abs(direct.G).max()
                assert np.abs(schur.G - direct.G).max() / scale < 1e-8
                assert abs(schur.m - direct.m) < 1e-8
                assert schur.route == "schur"
                assert schur.identity_residual < 1e-8

    @pytest.mark.parametrize("route", [resolvent, blocks_via_schur])
    def test_identity_residual_enforced(self, small_pair, route, monkeypatch):
        monkeypatch.setattr(linearized_resolvent, "_identity_residual", lambda H, G: 1e-3)
        with pytest.raises(NumericalError) as info:
            route(small_pair, complex(0.3, 0.5))
        assert info.value.achieved == 1e-3

    def test_schur_rejects_sample_eigenvalue(self, small_pair):
        lam = float(ccc_eigenvalues(small_pair).eigenvalues[4])
        with pytest.raises(DomainError):
            blocks_via_schur(small_pair, lam)

    def test_trace_of_correlation_resolvent(self, small_pair):
        # m agrees with the direct eigenvalue sum of the q x q product
        lam = ccc_eigenvalues(small_pair).eigenvalues
        for z in Z_POINTS:
            b = resolvent(small_pair, z)
            direct = np.mean(1.0 / (lam - b.z))
            assert abs(b.m - direct) < 1e-8


class TestRegularization:
    def test_inert_away_from_spectrum(self, small_pair):
        z = complex(0.45, 0.2)
        plain = resolvent(small_pair, z)
        reg = resolvent(small_pair, z, regularize=True, reg_exponent=10)
        assert reg.regularized
        assert np.abs(reg.G - plain.G).max() < 1e-8

    def test_measurable_at_low_exponent(self, small_pair):
        # exponent 4 shifts by n**(-4), visible but within the first-order
        # perturbation bound |shift| ||G||**2
        z = complex(0.45, 0.2)
        plain = resolvent(small_pair, z)
        reg = resolvent(small_pair, z, regularize=True, reg_exponent=4)
        diff = np.abs(reg.G - plain.G).max()
        bound = abs(z) * small_pair.n ** -4.0 * np.linalg.norm(plain.G, 2) ** 2
        assert 0.0 < diff <= bound

    def test_rescues_singular_real_point(self, small_pair):
        # at a squared sample correlation the plain inversion fails while
        # a large enough shift restores invertibility
        lam = float(ccc_eigenvalues(small_pair).eigenvalues[3])
        with pytest.raises(NumericalError):
            resolvent(small_pair, lam)
        bundle = resolvent(small_pair, lam, regularize=True, reg_exponent=4)
        assert bundle.identity_residual < 1e-6


class TestResolventBounds:
    def test_norm_decay_in_eta(self, small_pair):
        # trivial resolvent bound: the spectral norm stays below 10 / eta
        # over the spectral window
        for eta in (0.1, 0.3, 1.0):
            for E in (0.1, 0.5, 0.9):
                b = blocks_via_schur(small_pair, complex(E, eta))
                assert np.linalg.norm(b.G, 2) * eta <= 10.0


class TestLocalLawReport:
    def test_structure(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        rep = local_law_errors(medium_pair, model, complex(0.5, 0.4))
        d = rep.to_json_dict()
        assert d["z"] == [0.5, 0.4]
        assert d["n"] == 100 and d["p"] == 40 and d["q"] == 20
        assert len(d["avg_err"]) == 5
        assert set(d["benchmarks"]) == {"entrywise", "averaged"}
        assert set(d["sectors"]) == {f"{a}{b}" for a in "1234" for b in "1234"} | {"paired34"}
        assert d["route"] == "schur"
        assert rep.entrywise_err == max(
            v for k, v in rep.sectors.items() if k != "paired34"
        )

    def test_routes_agree(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        z = complex(0.5, 0.4)
        a = local_law_errors(medium_pair, model, z, route="schur")
        b = local_law_errors(medium_pair, model, z, route="direct")
        assert a.entrywise_err == pytest.approx(b.entrywise_err, rel=1e-6)
        assert a.aniso_err == pytest.approx(b.aniso_err, rel=1e-6)

    def test_deviations_are_small(self, medium_pair):
        # at eta of order one the deviations sit well below their benchmarks
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        rep = local_law_errors(medium_pair, model, complex(0.5, 1.0))
        assert rep.entrywise_err < rep.benchmarks["entrywise"] * 8.0
        assert max(rep.avg_err) < 20.0 * rep.benchmarks["averaged"]

    def test_spectral_window_enforced(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        with pytest.raises(DomainError):
            local_law_errors(medium_pair, model, complex(0.01, 0.4))   # Re too small
        with pytest.raises(DomainError):
            local_law_errors(medium_pair, model, complex(1.2, 0.4))    # Re too large
        with pytest.raises(DomainError):
            local_law_errors(medium_pair, model, complex(0.5, 1e-6))   # Im below floor
        with pytest.raises(DomainError):
            local_law_errors(medium_pair, model, complex(0.5, 50.0))   # Im above 1/eps

    def test_unknown_route_rejected(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        with pytest.raises(ParameterError):
            local_law_errors(medium_pair, model, complex(0.5, 0.4), route="magic")

    def test_limit_objects_consistent(self, medium_pair):
        # the averaged deviations compare against the same transform values
        # the limit descriptor was built from
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        z = complex(0.5, 0.4)
        rep = local_law_errors(medium_pair, model, z)
        bundle = blocks_via_schur(medium_pair, z)
        limit = stieltjes(model, z)
        assert rep.avg_err[0] == pytest.approx(abs(bundle.m1 - limit.m1), rel=1e-12)
        assert rep.avg_err[4] == pytest.approx(abs(bundle.m - limit.m), rel=1e-12)

    def test_aniso_bounded_by_operator_norm(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        z = complex(0.5, 0.4)
        rep = local_law_errors(medium_pair, model, z)
        bundle = blocks_via_schur(medium_pair, z)
        pi = pi_limit(model, z, medium_pair.p, medium_pair.q, medium_pair.n)
        op = np.linalg.norm(bundle.G - pi.dense(), 2)
        assert rep.aniso_err <= op * (1.0 + 1e-12)
        assert rep.entrywise_err <= op * (1.0 + 1e-12)
