"""Linearization matrix, resolvent routes, and finite-size deviation reports."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from scclab import (
    DomainError,
    NumericalError,
    ParameterError,
    blocks_via_schur,
    build_H,
    canonical_factor,
    ccc_eigenvalues,
    local_law_errors,
    make_model,
    pi_limit,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    stieltjes,
    truncate_center_rescale,
)
from scclab import linearized_resolvent
from scclab._linalg import IndexLayout, kernel_inverse_2x2
from oracles import (dense_H, identity_residual, kernel_2x2, local_law_reference, pi_dense,
                     resolvent, schur_resolvent)

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
        H = dense_H(lin)
        assert H.dtype == np.float64
        assert np.array_equal(H, H.T)
        assert lin.dim == small_pair.p + small_pair.q + 2 * small_pair.n

    def test_complex_point_gives_complex_symmetric_matrix(self, small_pair):
        H = dense_H(build_H(small_pair, complex(0.37, 0.1)))
        assert H.dtype == np.complex128
        assert np.max(np.abs(H - H.T)) == 0.0

    def test_data_blocks_placed(self, small_pair):
        lin = build_H(small_pair, complex(0.5, 0.2))
        p, q, n = small_pair.p, small_pair.q, small_pair.n
        H = dense_H(lin)
        assert np.array_equal(H[:p, p + q: p + q + n].real, small_pair.X)
        assert np.array_equal(H[p: p + q, p + q + n:].real, small_pair.Y)
        # data corner is zero
        assert np.abs(H[: p + q, : p + q]).max() == 0.0

    @pytest.mark.parametrize("z", [0.37, complex(0.37, 0.1)])
    def test_kernel_inverse_placed(self, small_pair, z):
        # the factor corner is the kernel inverse on every paired
        # coordinate (mu, mu + n) and zero elsewhere, entry for entry
        p, q, n = small_pair.p, small_pair.q, small_pair.n
        H = dense_H(build_H(small_pair, z))
        expected = np.kron(kernel_inverse_2x2(z), np.eye(n))
        assert np.array_equal(H[p + q:, p + q:], expected)

    def test_layout_coordinates(self):
        layout = IndexLayout(5, 3, 7)
        blocks = layout.blocks
        assert [(b.start, b.stop) for b in blocks] == [(0, 5), (5, 8), (8, 15), (15, 22)]
        assert layout.dim == 22
        # the paired coordinates (mu, mu + n), read and written through the view
        entries = np.arange(22.0 * 22).reshape(22, 22)
        mu = np.arange(8, 15)
        paired = layout.diagonal(entries, blocks[3], shift=-7)
        assert np.array_equal(paired, entries[mu, mu + 7])
        paired[...] = -1.0
        assert np.array_equal(np.argwhere(entries == -1.0), np.column_stack([mu, mu + 7]))
        M = np.zeros((22, 22))
        layout.add_kernel(M, 1.0, 2.0, 3.0)
        expected = np.zeros((22, 22))
        expected[8:, 8:] = np.kron([[1.0, 2.0], [2.0, 3.0]], np.eye(7))
        assert np.array_equal(M, expected)
        # column panels of 4, ending inside every block: the same matrix
        panels = np.zeros((22, 22))
        for start in range(0, 22, 4):
            cols = slice(start, min(start + 4, 22))
            layout.add_kernel(panels[:, cols], 1.0, 2.0, 3.0, cols)
        assert np.array_equal(panels, expected)

    @pytest.mark.parametrize("cols, missed", [(slice(0, 4), (1, 2, 3)),
                                              (slice(18, 22), (0, 1, 2))])
    def test_diagonal_view_of_a_panel_that_misses_the_block(self, cols, missed):
        # columns 0..3 lie in the first data block only, 18..21 in the last
        # factor block: a block the panel misses has an empty diagonal
        # view, at any shift, and writing it changes nothing
        layout = IndexLayout(5, 3, 7)
        panel = np.zeros((22, 4))
        for b in missed:
            block = layout.blocks[b]
            inside = layout.overlap(block, cols)
            assert inside.start == inside.stop
            for shift in (0, -block.start, 7, -7):
                view = layout.diagonal(panel, block, cols, shift)
                assert view.shape == (0,)
                view[...] += 1.0
        assert not panel.any()

    def test_diagonal_view_of_a_panel_across_two_blocks(self):
        # columns 12..17 end the first factor block (12..14) and start the
        # second (15..17); each block's diagonal is written through
        layout = IndexLayout(5, 3, 7)
        cols = slice(12, 18)
        whole = np.zeros((22, 22))
        panel = whole[:, cols]
        for block, value in zip(layout.blocks[2:], (1.0, 2.0)):
            view = layout.diagonal(panel, block, cols)
            assert view.shape == (3,) and np.shares_memory(view, whole)
            view[...] += value
        assert layout.overlap(layout.blocks[2], cols) == slice(0, 3)
        assert layout.overlap(layout.blocks[3], cols) == slice(3, 6)
        expected = np.zeros((22, 22))
        expected[[12, 13, 14], [12, 13, 14]] = 1.0
        expected[[15, 16, 17], [15, 16, 17]] = 2.0
        assert np.array_equal(whole, expected)

    def test_kernel_poles_rejected(self, small_pair):
        with pytest.raises(DomainError):
            build_H(small_pair, 0.0)
        with pytest.raises(DomainError):
            build_H(small_pair, 1.0)
        with pytest.raises(DomainError):
            build_H(small_pair, complex(0.5, -0.1))

    @pytest.mark.parametrize("z", [complex(0.5, math.nan), complex(math.nan, 0.3),
                                   complex(0.5, math.inf), complex(-math.inf, 0.3)])
    def test_non_finite_z_rejected(self, small_pair, z):
        # a NaN imaginary part is neither below the axis nor on it
        with pytest.raises(DomainError, match="is not finite"):
            build_H(small_pair, z)
        with pytest.raises(DomainError, match="is not finite"):
            blocks_via_schur(canonical_factor(small_pair), z, visit=lambda cols, panel: None)


class TestResolventRoutes:
    def test_symmetry(self, small_pair):
        for z in Z_POINTS:
            G, _ = resolvent(small_pair, z)
            assert np.max(np.abs(G - G.T)) < 1e-10

    def test_identity_residual_small(self, small_pair):
        for z in Z_POINTS:
            assert resolvent(small_pair, z)[1].identity_residual < 1e-10

    def test_trace_identities(self):
        # exact per-realization identities, holding far below the 1e-10
        # working tolerance for every entry law
        for pair in _mixed_pairs(18, 12, 60, 4):
            c1, c2 = pair.p / pair.n, pair.q / pair.n
            for z in Z_POINTS:
                _, b = resolvent(pair, z)
                r1 = abs(b.m3 - b.m4 - (1 - b.z) * (c1 - c2))
                r2 = abs(b.m3 - (c2 * b.z * (1 - b.z) * b.m + (1 - c1 - c2) * b.z))
                assert r1 < 1e-10
                assert r2 < 1e-10

    def test_schur_matches_direct(self):
        for pair in _mixed_pairs(18, 12, 60, 2):
            factor = canonical_factor(pair)
            for z in Z_POINTS:
                direct_G, direct = resolvent(pair, z)
                schur_G, schur = schur_resolvent(factor, z)
                scale = np.abs(direct_G).max()
                assert np.abs(schur_G - direct_G).max() / scale < 1e-8
                assert abs(schur.m - direct.m) < 1e-8
                assert schur.identity_residual < 1e-8

    @pytest.mark.parametrize("route", [resolvent, schur_resolvent, local_law_errors],
                             ids=["resolvent", "blocks_via_schur", "local_law_errors"])
    def test_identity_residual_enforced(self, small_pair, route, monkeypatch):
        # every route takes its residual panel by panel through one helper
        monkeypatch.setattr(linearized_resolvent, "_panel_residual", lambda *args: 1e-3)
        source = small_pair if route is resolvent else canonical_factor(small_pair)
        with pytest.raises(NumericalError) as info:
            route(source, complex(0.3, 0.5))
        assert info.value.achieved == 1e-3

    @pytest.mark.parametrize("pair_name", ["small_pair", "medium_pair"])
    @pytest.mark.parametrize("route,z", [
        ("direct", 0.37),
        ("direct", complex(0.3, 0.5)),
        ("direct", complex(0.7, 0.1)),
        ("schur", 0.37),
        ("schur", complex(0.3, 0.5)),
        ("schur", complex(0.7, 0.1)),
    ])
    def test_identity_residual_matches_dense_product(self, request, pair_name, route, z):
        # the blockwise residual is max |H G - I| over every entry, so it
        # equals the dense product's value up to the rounding of the sums,
        # i.e. relative to the size of the summed terms |H| |G|
        pair = request.getfixturevalue(pair_name)
        G, bundle = (schur_resolvent(canonical_factor(pair), z) if route == "schur"
                     else resolvent(pair, z))
        lin = build_H(pair, z)
        H = dense_H(lin)
        scale = (np.abs(H) @ np.abs(G)).max()
        wrong = G.copy()
        wrong[pair.p + pair.q:] *= 1.001      # a visibly wrong inverse
        for candidate in (G, wrong):
            dense = np.abs(H @ candidate - np.eye(len(H))).max()
            structured = identity_residual(lin, candidate)
            assert abs(structured - dense) <= 1e-14 * scale
        assert bundle.identity_residual == identity_residual(lin, G)
        assert identity_residual(lin, wrong) > 1e-6

    def test_nan_fails_the_identity_check(self, small_pair):
        # a NaN must not vanish in the maxima, nor pass the limit
        z = complex(0.3, 0.5)
        G, _ = resolvent(small_pair, z)
        G[150, 150] = np.nan
        assert np.isnan(identity_residual(build_H(small_pair, z), G))
        with pytest.raises(NumericalError, match="residual nan exceeds"):
            linearized_resolvent._enforce("resolvent identity", np.nan, 1e-6, z)

    def test_direct_rejects_sample_eigenvalue(self, small_pair):
        # det H vanishes at a squared sample correlation, so the plain
        # inversion must fail its conditioning check there
        lam = float(ccc_eigenvalues(small_pair).eigenvalues[3])
        with pytest.raises(NumericalError):
            resolvent(small_pair, lam)

    def test_schur_rejects_sample_eigenvalue(self, small_pair):
        lam = float(ccc_eigenvalues(small_pair).eigenvalues[4])
        with pytest.raises(DomainError):
            schur_resolvent(canonical_factor(small_pair), lam)

    def test_schur_needs_a_visitor(self, small_pair):
        # the Schur route keeps no G, so it cannot run without a visitor
        with pytest.raises(TypeError, match="visit"):
            blocks_via_schur(canonical_factor(small_pair), complex(0.3, 0.5))

    def test_schur_rejects_far_z(self, small_pair):
        with pytest.raises(ParameterError, match=r"\|z\| = 1000000000.0 outside the supported range$"):
            blocks_via_schur(canonical_factor(small_pair), 1e9, visit=lambda cols, panel: None)

    def test_trace_of_correlation_resolvent(self, small_pair):
        # m agrees with the direct eigenvalue sum of the q x q product
        lam = ccc_eigenvalues(small_pair).eigenvalues
        for z in Z_POINTS:
            _, b = resolvent(small_pair, z)
            direct = np.mean(1.0 / (lam - b.z))
            assert abs(b.m - direct) < 1e-8


class TestResolventBounds:
    def test_norm_decay_in_eta(self, small_pair):
        # trivial resolvent bound: the spectral norm stays below 10 / eta
        # over the spectral window
        factor = canonical_factor(small_pair)
        for eta in (0.1, 0.3, 1.0):
            for E in (0.1, 0.5, 0.9):
                G, _ = schur_resolvent(factor, complex(E, eta))
                assert np.linalg.norm(G, 2) * eta <= 10.0


class TestLocalLawReport:
    def test_structure(self, medium_pair):
        rep = local_law_errors(canonical_factor(medium_pair), complex(0.5, 0.4))
        d = rep.to_json_dict()
        assert set(d) == {f.name for f in dataclasses.fields(rep)} - {"checks"}
        json.dumps(d)
        assert d["z"] == [0.5, 0.4]
        assert d["n"] == 100 and d["p"] == 40 and d["q"] == 20
        assert len(d["avg_err"]) == 5
        assert set(d["benchmarks"]) == {"entrywise", "averaged"}
        assert set(d["sectors"]) == {f"{a}{b}" for a in "1234" for b in "1234"} | {"paired34"}
        assert "route" not in d
        assert rep.entrywise_err == max(
            v for k, v in rep.sectors.items() if k != "paired34"
        )

    def test_deviations_are_small(self, medium_pair):
        # at eta of order one the deviations sit well below their benchmarks
        rep = local_law_errors(canonical_factor(medium_pair), complex(0.5, 1.0))
        assert rep.entrywise_err < rep.benchmarks["entrywise"] * 8.0
        assert max(rep.avg_err) < 20.0 * rep.benchmarks["averaged"]

    def test_spectral_window_enforced(self, medium_pair):
        factor = canonical_factor(medium_pair)
        with pytest.raises(DomainError):
            local_law_errors(factor, complex(0.01, 0.4))   # Re too small
        with pytest.raises(DomainError):
            local_law_errors(factor, complex(1.2, 0.4))    # Re too large
        with pytest.raises(DomainError):
            local_law_errors(factor, complex(0.5, 1e-6))   # Im below floor
        with pytest.raises(DomainError):
            local_law_errors(factor, complex(0.5, 50.0))   # Im above 1/eps
        with pytest.raises(DomainError, match="eta = nan below"):
            local_law_errors(factor, complex(0.5, math.nan))   # Im NaN, neither < nor >

    def test_trace_identities_enforced(self, medium_pair, monkeypatch):
        # a bundle whose traces break the exact identities by 1e-8 is
        # rejected, though its identity residual is fine
        factor = canonical_factor(medium_pair)
        real = linearized_resolvent.blocks_via_schur

        def perturbed(*args, **kwargs):
            bundle = real(*args, **kwargs)
            return dataclasses.replace(bundle, m3=bundle.m3 + 1e-8)

        monkeypatch.setattr(linearized_resolvent, "blocks_via_schur", perturbed)
        with pytest.raises(NumericalError, match="trace identity") as info:
            local_law_errors(factor, complex(0.5, 0.4))
        assert info.value.achieved == pytest.approx(1e-8, rel=1e-3)

    def test_nan_trace_identity_enforced(self, medium_pair, monkeypatch):
        # a NaN in the second identity alone must fail the check
        factor = canonical_factor(medium_pair)
        real = linearized_resolvent.blocks_via_schur
        monkeypatch.setattr(linearized_resolvent, "blocks_via_schur",
                            lambda *a, **k: dataclasses.replace(real(*a, **k), m=complex("nan")))
        with pytest.raises(NumericalError, match="trace identity residual nan"):
            local_law_errors(factor, complex(0.5, 0.4))

    def test_limit_objects_consistent(self, medium_pair):
        # the averaged deviations compare against the same transform values
        # the limit descriptor was built from
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        factor = canonical_factor(medium_pair)
        z = complex(0.5, 0.4)
        rep = local_law_errors(factor, z)
        _, bundle = schur_resolvent(factor, z)
        limit = stieltjes(model, z)
        assert rep.avg_err[0] == pytest.approx(abs(bundle.m1 - limit.m1), rel=1e-12)
        assert rep.avg_err[4] == pytest.approx(abs(bundle.m - limit.m), rel=1e-12)

    @pytest.mark.parametrize("pair_name", ["small_pair", "medium_pair"])
    def test_matches_dense_reference(self, request, pair_name):
        # reference: materialize G - Pi and sweep it densely, against the
        # limit at the finite-n ratios p/n, q/n that local_law_errors derives
        pair = request.getfixturevalue(pair_name)
        factor = canonical_factor(pair)
        z = complex(0.5, 0.4)
        rep = local_law_errors(factor, z)
        G, bundle = schur_resolvent(factor, z)
        layout = bundle.layout
        diff = G - pi_dense(pi_limit(layout, z))
        assert rep.entrywise_err == pytest.approx(np.abs(diff).max(), rel=1e-12)
        vectors = linearized_resolvent._test_vectors(layout, 0)
        aniso = np.abs(vectors.T @ diff @ vectors).max()
        assert rep.aniso_err == pytest.approx(aniso, rel=1e-12)
        p, q, n = pair.p, pair.q, pair.n
        bounds = (0, p, p + q, p + q + n, p + q + 2 * n)
        for a in (1, 2, 3, 4):
            for b in (1, 2, 3, 4):
                block = diff[bounds[a - 1]:bounds[a], bounds[b - 1]:bounds[b]]
                assert rep.sectors[f"{a}{b}"] == pytest.approx(np.abs(block).max(), rel=1e-12)
        off, mu = pair.p + pair.q, np.arange(pair.n)
        paired = np.abs(diff[off + mu, off + pair.n + mu]).max()
        assert rep.sectors["paired34"] == pytest.approx(paired, rel=1e-12)
        assert rep.checks["identity_residual"] == bundle.identity_residual
        assert rep.checks["trace_identity"] == bundle.trace_identity_residual < 1e-10

    def test_test_vectors_built_once_per_pair(self, medium_pair):
        factor = canonical_factor(medium_pair)
        linearized_resolvent._test_vectors.cache_clear()
        for z in (complex(0.4, 0.3), complex(0.6, 0.5), complex(0.6, 0.5)):
            local_law_errors(factor, z)
        info = linearized_resolvent._test_vectors.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        layout = build_H(medium_pair, complex(0.4, 0.3)).layout
        vectors = linearized_resolvent._test_vectors(layout, 0)
        assert not vectors.flags.writeable
        with pytest.raises(ValueError):
            vectors[0, 0] = 1.0

    def test_aniso_bounded_by_operator_norm(self, medium_pair):
        factor = canonical_factor(medium_pair)
        z = complex(0.5, 0.4)
        rep = local_law_errors(factor, z)
        G, bundle = schur_resolvent(factor, z)
        op = np.linalg.norm(G - pi_dense(pi_limit(bundle.layout, z)), 2)
        assert rep.aniso_err <= op * (1.0 + 1e-12)
        assert rep.entrywise_err <= op * (1.0 + 1e-12)


class TestPanels:
    @pytest.mark.parametrize("pair_name", ["small_pair", "medium_pair"])
    @pytest.mark.parametrize("panel", [None, 7, 10 ** 6])
    def test_schur_and_residual_match_dense(self, request, monkeypatch, pair_name, panel):
        # 7 divides none of p, q, n of either pair; 10**6 exceeds d
        pair = request.getfixturevalue(pair_name)
        if panel is not None:
            monkeypatch.setattr(linearized_resolvent, "_PANEL", panel)
        factor = canonical_factor(pair)
        for z in (complex(0.3, 0.5), complex(0.7, 0.1)):
            schur_G, _ = schur_resolvent(factor, z)
            direct_G, _ = resolvent(pair, z)
            assert np.abs(schur_G - direct_G).max() <= 1e-12 * np.abs(direct_G).max()
            lin = build_H(pair, z)
            H, eye = dense_H(lin), np.eye(lin.dim)
            scale = (np.abs(H) @ np.abs(schur_G)).max()
            wrong = schur_G.copy()
            wrong[-1, -1] += 1e-3                 # one entry, in the last panel
            for G in (schur_G, wrong):
                dense = np.abs(H @ G - eye).max()
                structured = identity_residual(lin, G)
                assert abs(structured - dense) <= 1e-14 * scale
            assert identity_residual(lin, wrong) > 1e-6

    def test_shared_factor_matches_fresh_reports(self, medium_pair):
        factor = canonical_factor(medium_pair)
        for z in (complex(0.3, 0.1), complex(0.5, 0.4), complex(0.8, 1.0)):
            shared = local_law_errors(factor, z)
            fresh = local_law_errors(canonical_factor(medium_pair), z)
            a, b = shared.to_json_dict(), fresh.to_json_dict()
            assert a.keys() == b.keys()
            for key in ("entrywise_err", "aniso_err", "psi", "phi_n"):
                assert a[key] == pytest.approx(b[key], abs=1e-13)
            assert np.allclose(a["avg_err"], b["avg_err"], rtol=0.0, atol=1e-13)
            for group in ("benchmarks", "sectors"):
                for key, value in b[group].items():
                    assert a[group][key] == pytest.approx(value, abs=1e-13)
            for key, value in fresh.checks.items():
                assert shared.checks[key] == pytest.approx(value, abs=1e-13)

    @pytest.mark.parametrize("panel", [None, 7, 128, 10 ** 6])
    @pytest.mark.parametrize("p, q, n", [(18, 12, 60), (40, 20, 100)])
    def test_streamed_report_equals_materialized(self, monkeypatch, panel, p, q, n):
        # the report reduced panel by panel is the one swept over the whole
        # materialized G - Pi, bit for bit, at the module's _PANEL (None)
        # and others; panels of 7 end inside every block and between
        # paired coordinates (mu, mu + n), 10**6 exceeds d.
        # aniso_err alone comes from a product split into panels: a BLAS
        # may round an entry of V' (G - Pi) differently by the product's
        # width (OpenBLAS 0.3.31 does, at 18, 12, 60), so it may move by
        # a few units in the last place
        if panel is not None:
            monkeypatch.setattr(linearized_resolvent, "_PANEL", panel)
        truncated = truncate_center_rescale(sample_heavy_tail(p, q, n, seed=7, beta=3.0), 0.2)
        for pair in _mixed_pairs(p, q, n, 4) + [truncated]:
            factor = canonical_factor(pair)
            for z in (complex(0.3, 0.5), complex(0.7, 0.1)):
                report = local_law_errors(factor, z)
                reference = local_law_reference(factor, z)
                streamed, expected = report.to_json_dict(), reference.to_json_dict()
                assert streamed.pop("aniso_err") == pytest.approx(expected.pop("aniso_err"),
                                                                  rel=4 * np.finfo(float).eps)
                assert streamed == expected
                for key, value in reference.checks.items():
                    assert abs(report.checks[key] - value) <= 1e-14

    @pytest.mark.parametrize("panel", [None, 7, 128, 10 ** 6])
    def test_visitor_gets_every_column_once(self, medium_pair, monkeypatch, panel):
        # a visitor that overwrites its panels sees the columns of the G a
        # keeping visitor collects, each once, and the traces and residual
        # are the same.  The data panels come first, and no factor panel
        # crosses from one factor block into the other
        if panel is not None:
            monkeypatch.setattr(linearized_resolvent, "_PANEL", panel)
        z = complex(0.6, 0.2)
        factor = canonical_factor(medium_pair)
        full_G, full = schur_resolvent(factor, z)
        seen = np.zeros_like(full_G)
        visits = np.zeros(len(seen), dtype=int)
        order = []

        def visit(cols, panel):
            seen[:, cols] = panel
            panel[:] = np.nan               # a visitor may overwrite its panel
            visits[cols] += 1
            order.append(cols)

        streamed = blocks_via_schur(factor, z, visit=visit)
        assert np.array_equal(seen, full_G) and np.all(visits == 1)
        s1, s2, s3, s4 = streamed.layout.blocks
        homes = [[home.start <= cols.start and cols.stop <= home.stop
                  for home in (slice(0, s2.stop), s3, s4)] for cols in order]
        assert all(sum(inside) == 1 for inside in homes)
        data = [inside[0] for inside in homes]
        assert data == sorted(data, reverse=True)
        assert all(cols.stop - cols.start <= linearized_resolvent._PANEL for cols in order)
        for name in ("m1", "m2", "m3", "m4", "m", "identity_residual"):
            assert getattr(streamed, name) == getattr(full, name)


def test_local_law_peak_memory_near_size_of_g():
    # no d x d array: G's data corner, one reused panel buffer and
    # panel-sized temporaries.  The bound in bytes is 3/4 of G at
    # (120, 80, 400), and G's d x (p+q) data columns at (240, 160, 800),
    # as a point holds O(d _PANEL + (p+q)**2)
    for (p, q, n), bound in (((120, 80, 400), 0.75 * 16 * 1000 * 1000),
                             ((240, 160, 800), 16 * 2000 * 400)):
        pair = sample_gaussian(p, q, n, seed=3)
        z = complex(0.5, 0.3)
        local_law_errors(canonical_factor(pair), z)     # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            local_law_errors(canonical_factor(pair), z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / bound:.2f} x the bound at n = {n}"
