"""Squared canonical correlation spectra and their diagnostics."""

import csv

import numpy as np
import pytest

from scclab import (
    DataPair,
    PairMeta,
    SingularityError,
    ccc_eigenvalues,
    classical_locations,
    det_characterization_residual,
    make_model,
    rigidity_profile,
    sample_covariances,
    sample_gaussian,
    whitened_cross,
    write_spectrum_csv,
)


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
        assert res.min_eig_xx > 0.0
        assert res.min_eig_yy > 0.0
        assert res.meta is medium_pair.meta


def _symmetric_whitening_spectrum(pair):
    """Oracle: squared singular values of Sxx**(-1/2) Sxy Syy**(-1/2) by eigh."""
    Sxx, Syy, Sxy = sample_covariances(pair)

    def inverse_sqrt(S):
        w, V = np.linalg.eigh(S)
        return (V / np.sqrt(w)) @ V.T, w[0]

    isx, min_xx = inverse_sqrt(Sxx)
    isy, min_yy = inverse_sqrt(Syy)
    sv = np.linalg.svd(isx @ Sxy @ isy, compute_uv=False)
    return sv ** 2, min_xx, min_yy


class TestSpectrumOracle:
    @pytest.mark.parametrize("name", ["small_pair", "medium_pair"])
    def test_matches_symmetric_whitening(self, name, request):
        pair = request.getfixturevalue(name)
        lam, min_xx, min_yy = _symmetric_whitening_spectrum(pair)
        res = ccc_eigenvalues(pair)
        assert np.max(np.abs(res.eigenvalues - lam)) < 1e-12
        assert res.min_eig_xx == pytest.approx(min_xx, rel=1e-12)
        assert res.min_eig_yy == pytest.approx(min_yy, rel=1e-12)

    @pytest.mark.parametrize("name", ["small_pair", "medium_pair"])
    def test_whiteners_whiten(self, name, request):
        pair = request.getfixturevalue(name)
        Sxx, Syy, _ = sample_covariances(pair)
        wc = whitened_cross(pair)
        assert np.max(np.abs(wc.whiten_xx @ Sxx @ wc.whiten_xx.T - np.eye(pair.p))) < 1e-12
        assert np.max(np.abs(wc.whiten_yy @ Syy @ wc.whiten_yy.T - np.eye(pair.q))) < 1e-12


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

    def test_counting_function_tracks_quantiles(self):
        # the number of eigenvalues above the j-th classical location stays
        # within a few indices of j - 1
        pair = sample_gaussian(120, 80, 400, seed=3)
        res = ccc_eigenvalues(pair)
        gamma = classical_locations(make_model(0.3, 0.2), 80)
        for j in range(5, 80, 5):
            count = int((res.eigenvalues >= gamma[j - 1]).sum())
            assert abs(count - (j - 1)) <= 3


class TestSpectrumCsv:
    def test_format_and_round_trip(self, medium_pair, tmp_path):
        model = make_model(medium_pair.p / medium_pair.n, medium_pair.q / medium_pair.n)
        res = ccc_eigenvalues(medium_pair)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(res, model, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "lambda", "gamma", "normalized_deviation"]
        assert len(rows) == 1 + res.q
        # repr round trip preserves the eigenvalues bit for bit
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i + 1
            assert float(row[1]) == res.eigenvalues[i]
        gamma = classical_locations(model, res.q)
        assert float(rows[1][2]) == gamma[0]
