"""Squared canonical correlation spectra and their diagnostics."""

import numpy as np
import pytest

from scclab import (
    DataPair,
    PairMeta,
    ParameterError,
    SingularityError,
    canonical_factor,
    ccc_eigenvalues,
    classical_locations,
    ks_two_sample,
    make_model,
    rigidity_profile,
    sample_covariances,
    sample_gaussian,
    sample_heavy_tail,
    whitened_cross,
)
from scclab import _linalg, scc_core
from oracles import det_characterization_residual, jacobi_top


def _pair_from(X, Y):
    return DataPair(X=np.asarray(X, dtype=float), Y=np.asarray(Y, dtype=float),
                    meta=PairMeta(distribution="fixed", seed=0, phi_n=None))


class TestSpectrum:
    def test_one_dimensional_hand_value(self):
        # single canonical pair: the squared correlation is the squared
        # cosine of the angle between the two rows, here exactly 1/2
        X = [[1.0, 0.0, 0.0, 0.0]]
        Y = [[1.0, 1.0, 0.0, 0.0]]
        res = ccc_eigenvalues(_pair_from(X, Y))
        assert res.eigenvalues.shape == (1,)
        assert res.eigenvalues[0] == pytest.approx(0.5, abs=1e-14)

    def test_shapes_and_ordering(self, medium_pair):
        res = ccc_eigenvalues(medium_pair)
        assert res.eigenvalues.shape == (medium_pair.q,)
        assert np.all(np.diff(res.eigenvalues) <= 0)
        assert np.all(res.eigenvalues >= 0.0)
        assert np.all(res.eigenvalues <= 1.0)
        assert res.p == 40 and res.q == 20 and res.n == 100

    def test_wide_side_spectrum_padding(self, medium_pair):
        # the p-sided product matrix carries the same nonzero spectrum plus
        # exactly p - q extra zeros
        Sxx, Syy, Sxy = sample_covariances(medium_pair)
        wc = whitened_cross(medium_pair)
        big = wc.matrix @ wc.matrix.T          # p x p whitened product
        eig_p = np.sort(np.linalg.eigvalsh(big))[::-1]
        res = ccc_eigenvalues(medium_pair)
        p, q = medium_pair.p, medium_pair.q
        assert np.max(np.abs(eig_p[:q] - res.eigenvalues)) < 1e-10
        assert np.max(np.abs(eig_p[q:])) < 1e-10
        assert eig_p.shape == (p,)

    def test_invariance_under_invertible_maps(self, medium_pair):
        res = ccc_eigenvalues(medium_pair)
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(5):
            # well-conditioned invertible factors: orthogonal times a
            # spread-out positive diagonal
            qa, _ = np.linalg.qr(rng.standard_normal((medium_pair.p, medium_pair.p)))
            qb, _ = np.linalg.qr(rng.standard_normal((medium_pair.q, medium_pair.q)))
            da = np.diag(rng.uniform(0.5, 2.0, medium_pair.p))
            db = np.diag(rng.uniform(0.5, 2.0, medium_pair.q))
            mapped = _pair_from((qa @ da) @ medium_pair.X, (qb @ db) @ medium_pair.Y)
            res2 = ccc_eigenvalues(mapped)
            assert np.max(np.abs(res2.eigenvalues - res.eigenvalues)) < 1e-8

    def test_singular_covariance_rejected(self):
        X = np.ones((2, 6))                    # rank-one X block
        Y = np.random.default_rng(0).standard_normal((1, 6))
        with pytest.raises(SingularityError):
            ccc_eigenvalues(_pair_from(X, Y))

    def test_near_singular_covariance_rejected_by_eigenvalue_floor(self):
        # the last row of X repeats the first up to 1e-6, so cond(Sxx) is
        # about 1e12: Cholesky still factors it, and only the eigenvalue
        # floor of 1e-10 relative stops it
        rng = np.random.Generator(np.random.Philox(key=7))
        X = rng.standard_normal((4, 40)) / np.sqrt(40)
        X[3] = X[0] + 1e-6 * rng.standard_normal(40) / np.sqrt(40)
        Y = rng.standard_normal((2, 40)) / np.sqrt(40)
        Sxx = X @ X.T
        w = np.linalg.eigvalsh(Sxx)
        assert 1e11 < w[-1] / w[0] < 1e13
        np.linalg.cholesky(Sxx)
        with pytest.raises(SingularityError) as info:
            ccc_eigenvalues(_pair_from(X, Y))
        assert info.value.min_eigenvalue == pytest.approx(w[0], rel=1e-3)

    def test_conditioning_diagnostics_positive(self, medium_pair):
        res = ccc_eigenvalues(medium_pair)
        assert res.min_eig_xx_bound > 0.0
        assert res.min_eig_yy_bound > 0.0


def _symmetric_whitening_spectrum(pair):
    """Oracle: squared singular values of Sxx**(-1/2) Sxy Syy**(-1/2) by eigh."""
    Sxx, Syy, Sxy = sample_covariances(pair)

    def inverse_sqrt(S):
        w, V = np.linalg.eigh(S)
        return (V / np.sqrt(w)) @ V.T

    sv = np.linalg.svd(inverse_sqrt(Sxx) @ Sxy @ inverse_sqrt(Syy), compute_uv=False)
    return sv ** 2


class TestSpectrumOracle:
    @pytest.mark.parametrize("name", ["small_pair", "medium_pair"])
    def test_matches_symmetric_whitening(self, name, request):
        pair = request.getfixturevalue(name)
        res = ccc_eigenvalues(pair)
        assert np.max(np.abs(res.eigenvalues - _symmetric_whitening_spectrum(pair))) < 1e-12

    @pytest.mark.parametrize("name", ["small_pair", "medium_pair"])
    def test_whiteners_whiten(self, name, request):
        # the whiteners are inverse lower Cholesky factors, W S W' = I, and
        # the cross matrix is Wx Sxy Wy'
        pair = request.getfixturevalue(name)
        Sxx, Syy, Sxy = sample_covariances(pair)
        wc = whitened_cross(pair)
        for W, S in ((wc.whitener_xx, Sxx), (wc.whitener_yy, Syy)):
            assert np.array_equal(W, np.tril(W))
            assert np.max(np.abs(W @ S @ W.T - np.eye(len(S)))) < 1e-12
            assert np.max(np.abs(np.linalg.inv(W) - np.linalg.cholesky(S))) < 1e-12
        assert np.max(np.abs(wc.whitener_xx @ Sxy @ wc.whitener_yy.T - wc.matrix)) < 1e-13

    def test_spectrum_has_min_p_q_entries(self):
        # a pair with p < q keeps p values, from the p x p Gram matrix
        pair = sample_gaussian(6, 10, 40, seed=3)
        swapped = _pair_from(pair.Y, pair.X)
        res = ccc_eigenvalues(pair)
        assert res.eigenvalues.shape == (6,)
        assert np.max(np.abs(res.eigenvalues - ccc_eigenvalues(swapped).eigenvalues[:6])) < 1e-13

    def test_gaussian_trace_mean_is_exact(self):
        # the sum of the squared canonical correlations is tr(P_X P_Y); for
        # Gaussian X, E P_X = (p/n) I by rotation invariance, so E sum = pq/n
        # exactly, for any independent Y
        p, q, n, pairs = 24, 16, 80, 1000
        sums = np.array([ccc_eigenvalues(sample_gaussian(p, q, n, seed)).eigenvalues.sum()
                         for seed in range(pairs)])
        standard_error = sums.std(ddof=1) / np.sqrt(pairs)
        assert abs(sums.mean() - p * q / n) <= 4.0 * standard_error

    @pytest.mark.parametrize("p, q, n, spectra, bound", [
        (24, 16, 80, 3000, 0.033),
        (120, 80, 400, 1000, 0.048),
    ])
    def test_gaussian_top_matches_jacobi_model(self, p, q, n, spectra, bound):
        # the Gaussian null spectrum is exactly the beta = 1 Jacobi ensemble,
        # so the KS distance of lambda_1 and of lambda_2 between direct
        # spectra and 4000 draws of its matrix model stays below the 95 %
        # two-sample DKW bound sqrt(ln 40 / 2) sqrt(1/spectra + 1/4000)
        direct = np.array([ccc_eigenvalues(sample_gaussian(p, q, n, seed)).eigenvalues[:2]
                           for seed in range(spectra)])
        model = jacobi_top(p, q, n, 4000, 2, np.random.default_rng(2008))
        for k in range(2):
            assert ks_two_sample(direct[:, k], model[:, k]) <= bound


def _pareto_pair():
    return sample_heavy_tail(120, 80, 400, seed=3, beta=4.5)


def _near_singular_x(scale):
    """A (4, 40) X whose last row repeats the first up to scale, and a (2, 40) Y."""
    rng = np.random.Generator(np.random.Philox(key=7))
    X = rng.standard_normal((4, 40)) / np.sqrt(40)
    X[3] = X[0] + scale * rng.standard_normal(40) / np.sqrt(40)
    return X, rng.standard_normal((2, 40)) / np.sqrt(40)


class TestConditioningGuard:
    @pytest.mark.parametrize("make", [lambda r: r.getfixturevalue("small_pair"),
                                      lambda r: r.getfixturevalue("medium_pair"),
                                      lambda r: _pareto_pair()],
                             ids=["small_pair", "medium_pair", "pareto_pair"])
    def test_bound_brackets_smallest_eigenvalue(self, make, request):
        # 1/|S**(-1)|_F lies in [lambda_min / sqrt(k), lambda_min] for a k x k block
        pair = make(request)
        Sxx, Syy, _ = sample_covariances(pair)
        res = ccc_eigenvalues(pair)
        for S, bound in ((Sxx, res.min_eig_xx_bound), (Syy, res.min_eig_yy_bound)):
            lam_min = np.linalg.eigvalsh(S)[0]
            assert lam_min / np.sqrt(len(S)) <= bound <= lam_min * (1 + 1e-12)

    def test_uncertified_block_takes_the_exact_rule(self, monkeypatch):
        # cond(Sxx) is about 1e9: the certificate, at most lambda_min, cannot
        # reach 100 times the floor of 1e-10 tr S, but lambda_min clears the
        # floor itself, so the exact rule passes the block and reports
        # lambda_min exactly
        X, Y = _near_singular_x(3e-5)
        Sxx = X @ X.T
        w = np.linalg.eigvalsh(Sxx)
        assert 1e-10 * w[-1] < w[0] < 100 * 1e-10 * np.trace(Sxx)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        res = ccc_eigenvalues(_pair_from(X, Y))
        assert res.min_eig_xx_bound == w[0]
        # the exact rule on Sxx, then the final eigvalsh; Syy is certified
        assert calls == [(4, 4), (2, 2)]

    def test_certified_spectrum_one_eigvalsh_no_solve(self, medium_pair, monkeypatch):
        calls = {"eigvalsh": [], "solve": []}
        for name, seen in calls.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *rest, real=real, seen=seen:
                                seen.append(a.shape) or real(a, *rest))
        ccc_eigenvalues(medium_pair)
        assert calls == {"eigvalsh": [(20, 20)], "solve": []}

    def test_inv_route_same_spectra_and_rejections(self, medium_pair, monkeypatch):
        # np.linalg.inv in place of dtrtri, as where no OpenBLAS exports it
        if _linalg._lapacke("dtrtri") is None:
            pytest.skip("no loaded OpenBLAS exports dtrtri: every run takes the inv route")
        pairs = [medium_pair, _pareto_pair()] + [sample_gaussian(20, 12, 60, seed)
                                                 for seed in range(10)]
        singular = [_pair_from(np.ones((2, 6)), np.arange(6.0)[None, :]),
                    _pair_from(*_near_singular_x(1e-6))]

        def run():
            spectra = [ccc_eigenvalues(pair) for pair in pairs]
            rejected = []
            for pair in singular:
                with pytest.raises(SingularityError) as info:
                    ccc_eigenvalues(pair)
                rejected.append(info.value.min_eigenvalue)
            return spectra, rejected

        spectra, rejected = run()
        monkeypatch.setattr(_linalg, "_lapacke", lambda routine: None)
        assert _linalg.lapacke_routines() == []
        inv_spectra, inv_rejected = run()
        assert inv_rejected == rejected
        for a, b in zip(spectra, inv_spectra):
            assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-14
            assert a.min_eig_xx_bound == pytest.approx(b.min_eig_xx_bound, rel=1e-10)

    def test_invert_lower_routes_agree(self, medium_pair, monkeypatch):
        if _linalg._lapacke("dtrtri") is None:
            pytest.skip("no loaded OpenBLAS exports dtrtri: every run takes the inv route")
        Sxx = sample_covariances(medium_pair)[0]
        L = np.linalg.cholesky(Sxx)
        inverse = _linalg.invert_lower(L.copy())
        monkeypatch.setattr(_linalg, "_lapacke", lambda routine: None)
        general = _linalg.invert_lower(L)
        for W in (inverse, general):
            assert np.array_equal(W, np.tril(W))
            assert np.max(np.abs(W @ L - np.eye(len(L)))) < 1e-13
        assert np.max(np.abs(inverse - general)) < 1e-12


class TestCanonicalFactor:
    @pytest.mark.parametrize("name", ["small_pair", "medium_pair"])
    def test_canonical_weights(self, name, request):
        # A and B whiten their Gram blocks and diagonalize the cross block
        pair = request.getfixturevalue(name)
        factor = canonical_factor(pair)
        Sxx, Syy, Sxy = sample_covariances(pair)
        A, B, q = factor.A, factor.B, pair.q
        assert np.abs(A.T @ Sxx @ A - np.eye(pair.p)).max() < 1e-12
        assert np.abs(B.T @ Syy @ B - np.eye(q)).max() < 1e-12
        cross = A.T @ Sxy @ B
        assert np.abs(cross[:q] - np.diag(factor.sv)).max() < 1e-12
        assert np.abs(cross[q:]).max() < 1e-12
        spectrum = ccc_eigenvalues(pair)
        assert np.abs(factor.lam_q - spectrum.eigenvalues).max() < 1e-14
        assert np.array_equal(factor.lam_p[q:], np.zeros(pair.p - q))
        assert (factor.min_eig_xx_bound, factor.min_eig_yy_bound) == (
            spectrum.min_eig_xx_bound, spectrum.min_eig_yy_bound)

    def test_one_svd_per_factor(self, small_pair, monkeypatch):
        # the spectrum takes no SVD and no general solve; the factor one full SVD
        calls = {"svd": [], "solve": []}
        for name, seen in calls.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, seen=seen, **kw:
                                seen.append(kw) or real(*a, **kw))
        ccc_eigenvalues(small_pair)
        assert calls == {"svd": [], "solve": []}
        canonical_factor(small_pair)
        assert calls == {"svd": [{}], "solve": []}

    def test_spectrum_goes_through_whitened_cross(self, small_pair, monkeypatch):
        # ccc_eigenvalues looks whitened_cross up on the module, so a wrapper
        # installed there (as a tracer does) sees every spectrum
        seen, real = [], scc_core.whitened_cross
        monkeypatch.setattr(scc_core, "whitened_cross",
                            lambda pair: seen.append(pair) or real(pair))
        ccc_eigenvalues(small_pair)
        canonical_factor(small_pair)
        assert seen == [small_pair, small_pair]


class TestDetCharacterization:
    def test_vanishes_at_sample_eigenvalues(self, small_pair):
        res = ccc_eigenvalues(small_pair)
        for k in (0, 5, small_pair.q - 1):
            lam = float(res.eigenvalues[k])
            assert det_characterization_residual(small_pair, lam) < 1e-10

    def test_large_away_from_spectrum(self, small_pair):
        res = ccc_eigenvalues(small_pair)
        lam = res.eigenvalues
        between = float(0.5 * (lam[0] + lam[1]))
        assert det_characterization_residual(small_pair, between) > 1e-6
        assert det_characterization_residual(small_pair, 0.999) > 1e-6

    def test_domain_check(self, small_pair):
        from scclab import ParameterError
        with pytest.raises(ParameterError):
            det_characterization_residual(small_pair, 0.0)
        with pytest.raises(ParameterError):
            det_characterization_residual(small_pair, 1.5)


class TestRigidity:
    def test_profile_formula(self, medium_pair):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        res = ccc_eigenvalues(medium_pair)
        prof = rigidity_profile(res, model, keep_fraction=1.0)
        gamma = classical_locations(model, res.q)
        i = 3                                   # fourth eigenvalue, by hand
        expected = abs(res.eigenvalues[i] - gamma[i]) * min(i + 1, res.q - i) ** (1 / 3) \
            * res.n ** (2 / 3)
        assert prof[i] == pytest.approx(expected, rel=1e-12)
        assert prof.shape == (res.q,)

    def test_default_trims_near_degenerate_lower_edge(self):
        # lower edge below 0.05 drops the bottom tenth of indices
        pair = sample_gaussian(40, 20, 100, seed=17)
        model = make_model(0.4, 0.2)
        assert model.lambda_minus < 0.05
        res = ccc_eigenvalues(pair)
        prof = rigidity_profile(res, model)
        assert prof.shape == (18,)

    def test_profile_order_one(self):
        pair = sample_gaussian(120, 80, 400, seed=23)
        model = make_model(0.3, 0.2)
        res = ccc_eigenvalues(pair)
        prof = rigidity_profile(res, model)
        assert prof.max() < 20.0

    def test_short_spectrum_rejected(self, model_thin):
        # with p < q the spectrum holds p values, not the q the profile needs
        res = ccc_eigenvalues(sample_gaussian(6, 10, 40, seed=3))
        with pytest.raises(ParameterError, match="q = 10 eigenvalues"):
            rigidity_profile(res, model_thin)

    def test_keep_fraction_above_one_rejected(self, medium_pair, model_wide):
        res = ccc_eigenvalues(medium_pair)
        with pytest.raises(ParameterError, match=r"keep_fraction must lie in \(0, 1\], got 1.5"):
            rigidity_profile(res, model_wide, keep_fraction=1.5)

    def test_counting_function_tracks_quantiles(self):
        # the number of eigenvalues above the j-th classical location stays
        # within a few indices of j - 1
        pair = sample_gaussian(120, 80, 400, seed=3)
        res = ccc_eigenvalues(pair)
        gamma = classical_locations(make_model(0.3, 0.2), 80)
        for j in range(5, 80, 5):
            count = int((res.eigenvalues >= gamma[j - 1]).sum())
            assert abs(count - (j - 1)) <= 3

