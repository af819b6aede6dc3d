"""Sampler determinism, moments, truncation, and serialization."""

import hashlib
import math

import numpy as np
import pytest

from scclab import (
    DataPair,
    ParameterError,
    TailSpec,
    dump_pair,
    load_pair,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    truncate_center_rescale,
)


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


class TestTailSpec:
    def test_edge_condition_boundary(self):
        assert TailSpec.make(4.5).satisfies_edge_tail_condition
        assert not TailSpec.make(4.0).satisfies_edge_tail_condition
        assert not TailSpec.make(3.0).satisfies_edge_tail_condition

    def test_variance_normalizing_scale(self):
        spec = TailSpec.make(4.5)
        assert spec.scale == pytest.approx(math.sqrt(2.5 / 4.5))

    def test_invalid_exponent(self):
        with pytest.raises(ParameterError):
            TailSpec.make(2.0)
        with pytest.raises(ParameterError):
            TailSpec(beta=5.0, scale=0.3)


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


class TestSerialization:
    @pytest.mark.parametrize("law", LAWS)
    def test_round_trip_exact(self, law, tmp_path):
        pair = _sample(law, 7, 5, 30, seed=21)
        path = tmp_path / "pair.bin"
        dump_pair(pair, path)
        back = load_pair(path)
        assert np.array_equal(back.X, pair.X)
        assert np.array_equal(back.Y, pair.Y)
        assert back.meta == pair.meta

    def test_round_trip_truncated_meta(self, tmp_path):
        pair = truncate_center_rescale(sample_gaussian(6, 4, 50, seed=1), c_phi=0.25)
        path = tmp_path / "pair.bin"
        dump_pair(pair, path)
        back = load_pair(path)
        assert back.meta.c_phi == 0.25
        assert back.meta.phi_n == pair.meta.phi_n
        assert np.array_equal(back.X, pair.X)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "pair.bin"
        dump_pair(sample_gaussian(3, 2, 10, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParameterError):
            load_pair(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "pair.bin"
        dump_pair(sample_gaussian(3, 2, 10, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ParameterError):
            load_pair(path)
