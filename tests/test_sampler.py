"""Sampler determinism, moments, and truncation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from scclab import (
    DataPair,
    PairMeta,
    ParameterError,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    truncate_center_rescale,
)
from scclab import sampler

from oracles import reference_matrix, reference_row


def _sample(law, p, q, n, seed):
    if law == "gaussian":
        return sample_gaussian(p, q, n, seed)
    if law == "pareto":
        return sample_heavy_tail(p, q, n, seed, beta=4.5)
    return sample_bounded(p, q, n, seed, law=law)


LAWS = ["gaussian", "rademacher", "uniform", "pareto"]

_PINNED_DIGESTS = {
    "gaussian": "c2a2291fab499ee63fb4f50f36c12b6634c404ce5dfb2ec193188d3b0b5afa0d",
    "rademacher": "1542decf18447a412dd3b44789f77c37693d916a9f7a9056442f045647ae04a6",
    "uniform": "a144f99c833a5376af073584e28347cb3a53d0e28557606cdfcb52c2de88f949",
    "pareto": "c5f539e6f2c73e46622c45a572f157ae1ccc854012704ab52298e8c11469eba7",
}


class TestDeterminism:
    @pytest.mark.parametrize("law", LAWS)
    def test_bit_identical_resample(self, law):
        a = _sample(law, 7, 5, 30, seed=42)
        b = _sample(law, 7, 5, 30, seed=42)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_seeds_differ(self):
        a = sample_gaussian(7, 5, 30, seed=1)
        b = sample_gaussian(7, 5, 30, seed=2)
        assert not np.array_equal(a.X, b.X)

    @pytest.mark.parametrize("law", LAWS)
    def test_row_extension_consistency(self, law):
        # rows are keyed individually, so growing p or q must not disturb
        # the rows already present
        small = _sample(law, 5, 3, 40, seed=9)
        large = _sample(law, 9, 7, 40, seed=9)
        assert np.array_equal(small.X, large.X[:5])
        assert np.array_equal(small.Y, large.Y[:3])

    @pytest.mark.parametrize("law", LAWS)
    def test_stream_pinned(self, law):
        # sha256 of X then Y bytes, recorded from the original sampler that
        # built one Philox(key=(seed << 64) | (matrix << 32) | row) per row;
        # the seed sets the top key bit.  A change here is a stream change.
        pair = _sample(law, 12, 7, 40, seed=2 ** 63 + 12345)
        digest = hashlib.sha256(pair.X.tobytes() + pair.Y.tobytes()).hexdigest()
        assert digest == _PINNED_DIGESTS[law]

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("dims", [(37, 21, 41), (2, 1, 3), (5, 3, 40)])
    def test_matches_reference_draw(self, law, dims):
        # the block transforms against the Generator's own calls, row by row:
        # p = 37 spans two full blocks and a partial one, and odd n leaves
        # half of the last sign word unused, which the pins do not cover
        p, q, n = dims
        seed = 2 ** 63 + 12345
        pair = _sample(law, p, q, n, seed)
        assert np.array_equal(pair.X, reference_matrix(p, n, seed, 0, law, beta=4.5))
        assert np.array_equal(pair.Y, reference_matrix(q, n, seed, 1, law, beta=4.5))

    @pytest.mark.parametrize("law", ["rademacher", "pareto"])
    @pytest.mark.parametrize("dims", [(5, 3, 41), (2, 1, 3), (5, 3, 40)])
    def test_signs_match_integer_draw(self, law, dims):
        # the raw-bit signs are the bits rng.integers(0, 2, n) consumes
        p, q, n = dims
        seed = 2 ** 63 + 12345
        pair = _sample(law, p, q, n, seed)
        assert np.array_equal(np.sign(pair.X),
                              np.sign(reference_matrix(p, n, seed, 0, law, beta=4.5)))
        assert np.array_equal(np.sign(pair.Y),
                              np.sign(reference_matrix(q, n, seed, 1, law, beta=4.5)))

    @pytest.mark.parametrize("law", ["rademacher", "uniform", "pareto"])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41])
    def test_row_words_end_where_the_draw_ends(self, law, n):
        # random_raw(words(n)) leaves the Philox where the Generator's own row
        # draw does; the sign draw also keeps the high half of its last word,
        # held (has_uint32) at odd n, which the next row's re-keying drops
        drawn, raw = np.random.Philox(key=3), np.random.Philox(key=3)
        reference_row(np.random.Generator(drawn), law, n, beta=4.5)
        last = int(raw.random_raw(sampler._LAWS[law].words(n))[-1])
        after, expected = drawn.state, raw.state
        for field in ("counter", "key"):
            assert np.array_equal(after["state"][field], expected["state"][field])
        assert np.array_equal(after["buffer"], expected["buffer"])
        assert after["buffer_pos"] == expected["buffer_pos"]
        signs = law != "uniform"
        assert after["has_uint32"] == (signs and n % 2 == 1)
        assert after["uinteger"] == (last >> 32 if signs else 0)

    @pytest.mark.parametrize("law", LAWS)
    def test_one_bit_generator_per_pair(self, law, monkeypatch):
        # every row re-keys it from a fresh state, so X and Y share one
        # Philox; test_matches_reference_draw checks the streams
        built = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(k) or real(*a, **k))
        _sample(law, 5, 3, 41, seed=7)
        assert len(built) == 1

    def test_x_and_y_streams_distinct(self):
        pair = sample_gaussian(5, 5, 40, seed=9)
        assert not np.array_equal(pair.X, pair.Y)

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            sample_gaussian(0, 3, 10, seed=0)
        with pytest.raises(ParameterError):
            sample_gaussian(10, 3, 10, seed=0)
        with pytest.raises(ParameterError):
            sample_gaussian(3, 2, 10, seed=-1)


class TestMoments:
    @pytest.mark.parametrize("law", LAWS)
    def test_mean_concentrates(self, law):
        p, q, n = 200, 100, 400
        pair = _sample(law, p, q, n, seed=3)
        unit_mean = pair.X.mean() * math.sqrt(n)
        assert abs(unit_mean) <= 4.0 / math.sqrt(p * n)

    @pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform"])
    def test_entry_variance(self, law):
        pair = _sample(law, 200, 100, 400, seed=3)
        assert (pair.X ** 2).mean() * pair.n == pytest.approx(1.0, abs=0.1)
        assert (pair.Y ** 2).mean() * pair.n == pytest.approx(1.0, abs=0.1)

    def test_heavy_tail_variance(self):
        # about 1e6 draws: the tail exponent 4.5 keeps the fourth moment
        # finite, so the variance estimator concentrates
        pair = sample_heavy_tail(999, 1, 1000, seed=3, beta=4.5)
        assert (pair.X ** 2).mean() * pair.n == pytest.approx(1.0, abs=0.05)

    def test_heavy_tail_exceedance_rate(self):
        # P(|u| > t) = (t / t0)^(-beta) on the unit scale
        beta = 4.5
        pair = sample_heavy_tail(999, 1, 1000, seed=7, beta=beta)
        u = np.abs(pair.X) * math.sqrt(pair.n)
        t0 = math.sqrt((beta - 2.0) / beta)
        for t in (1.0, 2.0, 4.0):
            expected = (t / t0) ** -beta
            observed = (u > t).mean()
            sd = math.sqrt(expected / u.size)
            assert abs(observed - expected) <= 5 * sd + 1e-6

    def test_cross_independence_surrogate(self):
        # empirical correlations between X and Y rows, and between distinct
        # rows of X, stay at the 1/sqrt(n) noise level
        pair = sample_gaussian(2, 2, 20000, seed=13)
        for a in (pair.X[0], pair.X[1]):
            for b in (pair.Y[0], pair.Y[1]):
                corr = np.corrcoef(a, b)[0, 1]
                assert abs(corr) <= 0.05
        assert abs(np.corrcoef(pair.X[0], pair.X[1])[0, 1]) <= 0.05


class TestHeavyTail:
    @staticmethod
    def _unit_entries(beta, seed):
        # about 1e6 draws on the unit-variance scale
        pair = sample_heavy_tail(999, 1, 1000, seed=seed, beta=beta)
        return np.abs(pair.X) * math.sqrt(pair.n)

    def test_edge_condition_boundary(self):
        # t**4 P(|u| > t) -> 0 exactly when beta > 4.  From t = 2 to t = 6 it
        # falls by 42 % in expectation at beta = 4.5, stays put at the
        # boundary beta = 4 and triples at beta = 3; the relative noise at
        # t = 6 is at most 12 %.
        def tail_ratio(beta):
            u = self._unit_entries(beta, 11)
            return (6.0 ** 4 * (u > 6.0).mean()) / (2.0 ** 4 * (u > 2.0).mean())

        assert tail_ratio(4.5) < 0.8
        assert 0.8 < tail_ratio(4.0) < 1.25
        assert tail_ratio(3.0) > 2.0

    def test_variance_normalizing_scale(self):
        # the law starts at t0 = sqrt((beta - 2)/beta), the scale that makes
        # the variance one (test_heavy_tail_variance checks the variance)
        u = self._unit_entries(4.5, 5)
        t0 = math.sqrt(2.5 / 4.5)
        assert u.min() >= t0 * (1.0 - 1e-12)
        assert u.min() == pytest.approx(t0, rel=1e-4)

    def test_invalid_exponent(self):
        for beta in (2.0, 1.5, float("nan")):
            with pytest.raises(ParameterError, match="beta > 2"):
                sample_heavy_tail(5, 3, 20, seed=0, beta=beta)
        with pytest.raises(ParameterError, match="requires beta"):
            sample_heavy_tail(5, 3, 20, seed=0, beta=None)


class TestMemory:
    @pytest.mark.parametrize("law", LAWS)
    def test_traced_peak_near_the_pair(self, law):
        # raw words are transformed a block of rows at a time, so the
        # temporaries stay a fraction of the pair's 640 000 bytes
        _sample(law, 120, 80, 400, seed=1)
        tracemalloc.start()
        try:
            pair = _sample(law, 120, 80, 400, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = pair.X.nbytes + pair.Y.nbytes
        assert size == 640_000
        assert peak <= 1.5 * size


class TestTruncation:
    def test_rademacher_untouched(self):
        # threshold always exceeds 1, and the clipped law is the law itself
        pair = sample_bounded(10, 6, 100, seed=4, law="rademacher")
        out = truncate_center_rescale(pair, c_phi=0.3)
        assert np.array_equal(out.X, pair.X)
        assert np.array_equal(out.Y, pair.Y)
        assert out.meta.c_phi == 0.3

    def test_gaussian_support_bound(self):
        pair = sample_gaussian(100, 50, 200, seed=8)
        out = truncate_center_rescale(pair, c_phi=0.1)
        assert out.meta.phi_n is not None
        bound = out.meta.phi_n * (1.0 + 1e-12)
        assert np.abs(out.X).max() <= bound
        assert np.abs(out.Y).max() <= bound
        # the stated support level is the threshold over the clipped scale
        threshold = 200 ** (0.5 - 0.1)
        assert out.meta.phi_n >= threshold / math.sqrt(200)

    def test_variance_restored(self):
        pair = sample_gaussian(200, 100, 400, seed=8)
        out = truncate_center_rescale(pair, c_phi=0.1)
        assert (out.X ** 2).mean() * 400 == pytest.approx(1.0, abs=0.1)

    def test_uniform_heavy_clipping_recovers_variance(self):
        # c_phi near 1/2 pushes the threshold below the uniform support
        # bound, so real mass is removed and the rescale must compensate
        pair = sample_bounded(60, 40, 100, seed=2, law="uniform")
        threshold = 100 ** (0.5 - 0.49)
        assert threshold < math.sqrt(3.0)
        out = truncate_center_rescale(pair, c_phi=0.49)
        assert (out.X ** 2).mean() * 100 == pytest.approx(1.0, abs=0.1)
        assert not np.array_equal(out.X, pair.X)

    def test_heavy_tail_zeroed_fraction(self):
        # removed entries land exactly at zero; their rate matches the tail
        beta, c_phi, n = 4.5, 0.3, 400
        pair = sample_heavy_tail(399, 399, n, seed=6, beta=beta)
        out = truncate_center_rescale(pair, c_phi=c_phi)
        threshold = n ** (0.5 - c_phi)
        t0 = math.sqrt((beta - 2.0) / beta)
        expected = (threshold / t0) ** -beta
        observed = (out.X == 0.0).mean()
        sd = math.sqrt(expected / out.X.size)
        assert abs(observed - expected) <= 5 * sd

    def test_exponent_validation(self):
        pair = sample_gaussian(5, 3, 20, seed=0)
        with pytest.raises(ParameterError):
            truncate_center_rescale(pair, c_phi=0.0)
        with pytest.raises(ParameterError):
            truncate_center_rescale(pair, c_phi=0.5)

    def test_unknown_law_rejected(self):
        # only the laws with exact clipped moments can be truncated
        base = sample_gaussian(5, 3, 20, seed=0)
        pair = DataPair(X=base.X, Y=base.Y,
                        meta=PairMeta(distribution="fixed", seed=0, phi_n=None))
        with pytest.raises(ParameterError, match="known laws"):
            truncate_center_rescale(pair, c_phi=0.25)

