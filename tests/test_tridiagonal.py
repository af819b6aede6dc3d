"""The top eigenvalues of tridiagonals: LAPACK's dstebz and its dense fallback.

scipy's stebz (eigvalsh_tridiagonal) is the oracle, one matrix at a
time.  The tolerances are fixed from the dtype before any comparison,
with |T|_1 the largest absolute row sum of the matrix: each eigenvalue
of _linalg.tridiagonal_top may differ by at most 4 eps |T|_1, and by at
most n eps |T|_1 on the np.linalg.eigvalsh fallback, which solves a
dense n x n matrix where no loaded OpenBLAS exports dstebz.
"""

import ctypes
import math
import tracemalloc

import numpy as np
import pytest

from scclab import _linalg, edge_stats, goe_reference
from scclab._linalg import tridiagonal_top
from scclab.errors import NumericalError
from oracles import goe_values_stebz, tridiagonal_top_stebz

EPS = np.finfo(float).eps


def _norm1(diag, off):
    radius = np.zeros_like(diag)
    radius[:, :-1] += np.abs(off)
    radius[:, 1:] += np.abs(off)
    return (np.abs(diag) + radius).max(axis=1)


def _assert_matches_stebz(diag, off, k):
    diag, off = np.atleast_2d(diag).astype(float), np.atleast_2d(off).astype(float)
    got = tridiagonal_top(diag, off, k)
    want = tridiagonal_top_stebz(diag, off, k)
    assert got.shape == want.shape == (diag.shape[0], k)
    bound = 4.0 * EPS * _norm1(diag, off)[:, None]
    assert np.all(np.abs(got - want) <= bound)
    assert np.all(np.diff(got, axis=1) <= 0.0)
    return got


def _goe_tridiagonals(n, batch, seed):
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal((batch, n)) * math.sqrt(2.0)
    off = np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1), size=(batch, n - 1)))
    return diag, off


@pytest.mark.parametrize("n, k", [
    (2, 1), (5, 1), (5, 3), (5, 4), (40, 1), (40, 3), (40, 39),
    (400, 1), (400, 3), (400, 399),
])
def test_goe_draws_match_stebz(n, k):
    diag, off = _goe_tridiagonals(n, 6, seed=n + k)
    _assert_matches_stebz(diag, off, k)


def test_wilkinson_near_double_pairs():
    # W21+: its top eigenvalues come in pairs that agree to about 1e-13
    diag = np.abs(np.arange(21) - 10.0)
    off = np.ones(20)
    got = _assert_matches_stebz(diag, off, 21)[0]
    assert 0.0 < got[0] - got[1] < 1e-12
    assert got[1] - got[2] > 0.5


def test_zero_diagonal_hits_eigenvalue_zero():
    # the odd-sized matrix has the eigenvalue 0, the midpoint of its
    # symmetric Gershgorin bounds
    got = _assert_matches_stebz(np.zeros(7), np.ones(6), 7)[0]
    assert np.abs(got[3]) <= 4.0 * EPS * 2.0


def test_tiny_off_diagonals_leave_the_diagonal():
    diag = np.array([[3.0, -1.0, 2.5, 0.0, 7.0, -4.0]])
    got = _assert_matches_stebz(diag, np.full((1, 5), 1e-150), 6)
    assert np.abs(got[0] - np.sort(diag[0])[::-1]).max() <= 4.0 * EPS * 7.0


def test_zero_pivot_count_is_exact():
    # tridiag(1, 1, 1) of size 3 has eigenvalues 1 - sqrt(2), 1, 1 + sqrt(2);
    # a Sturm count at x = 1 meets an exactly zero pivot
    diag, off = np.ones((1, 3)), np.ones((1, 2))
    _assert_matches_stebz(diag, off, 3)


def test_zero_matrix_stops():
    assert np.array_equal(tridiagonal_top(np.zeros((2, 4)), np.zeros((2, 3)), 2),
                          np.zeros((2, 2)))


def test_result_independent_of_batch():
    diag, off = _goe_tridiagonals(50, 5, seed=8)
    together = tridiagonal_top(diag, off, 3)
    for b in range(5):
        assert np.array_equal(tridiagonal_top(diag[b:b + 1], off[b:b + 1], 3), together[b:b + 1])


@pytest.mark.parametrize("info, found", [(3, 3), (0, 2)])
def test_failed_bisection_raises(monkeypatch, info, found):
    # a dstebz that reports an error, or fewer eigenvalues than asked for
    def dstebz(*args):
        ctypes.c_int64.from_address(args[10]).value = found      # M
        return info

    monkeypatch.setattr(_linalg, "_lapacke", lambda routine: dstebz)
    diag, off = _goe_tridiagonals(10, 2, seed=6)
    with pytest.raises(NumericalError, match=f"info = {info}"):
        tridiagonal_top(diag, off, 3)


class TestDenseFallback:
    """tridiagonal_top where no loaded OpenBLAS exports dstebz."""

    @pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (40, 39), (400, 3)])
    def test_matches_stebz(self, monkeypatch, n, k):
        diag, off = _goe_tridiagonals(n, 4, seed=n + k)
        bound = n * EPS * _norm1(diag, off)[:, None]
        monkeypatch.setattr(_linalg, "_lapacke", lambda routine: None)
        got = tridiagonal_top(diag, off, k)
        assert np.all(np.abs(got - tridiagonal_top_stebz(diag, off, k)) <= bound)
        assert np.all(np.diff(got, axis=1) <= 0.0)

    def test_holds_one_matrix_at_a_time(self, monkeypatch):
        n, batch = 400, 20
        diag, off = _goe_tridiagonals(n, batch, seed=9)
        monkeypatch.setattr(_linalg, "_lapacke", lambda routine: None)
        tridiagonal_top(diag[:1, :40], off[:1, :39], 3)     # warm imports and caches
        tracemalloc.start()
        try:
            tridiagonal_top(diag, off, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8       # a batch of dense matrices would take 20


class TestGoeReference:
    @pytest.mark.parametrize("args", [(400, 100, 3, 1), (60, 40, 3, 2), (2, 5, 1, 0)])
    def test_matches_stebz_path(self, args):
        values = goe_reference(*args)
        assert np.abs(values - goe_values_stebz(*args)).max() <= 1e-12

    def test_memory_does_not_grow_with_trials(self):
        edge_stats._goe_values(40, 3, 3, 5)     # warm imports and caches
        tracemalloc.start()
        try:
            edge_stats._goe_values(400, 2000, 3, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
