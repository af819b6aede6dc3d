"""Internal linear-algebra and branch helpers.

The square-root conventions here are load-bearing: every limit formula in
the package evaluates sqrt(w) on the branch with nonnegative imaginary
part, and z**(1/2) on the branch that is positive imaginary for z < 0.
Both agree with the principal branch on the upper half plane.

IndexLayout owns the coordinate structure of the linearization: its four
blocks, the paired factor coordinates and the in-place add of a 2x2
kernel on them, which H, the Schur assembly of its resolvent and the
limit matrix all go through.

tridiagonal_top finds the top eigenvalues of a batch of symmetric
tridiagonal matrices by Sturm-count multisection in plain numpy, so the
GOE edge reference needs no scipy.linalg.

one_blas_thread runs a block with every loaded OpenBLAS on one thread.
A multithreaded BLAS may sum a product in another order than a single
thread does, so results are computed under it to stay the same bytes at
any thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import NamedTuple

import numpy as np

_EPS = np.finfo(float).eps
_POINTS = 2         # trial points per interval and sweep
_ROWS = 64          # matrix rows whose pivots are held, and counted, at once
_MAX_SWEEPS = 64    # 3**64 is far beyond the 2/eps a converging bracket needs


def tridiagonal_top(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues, descending, of each tridiagonal in a batch.

    diag is (batch, n) and off (batch, n - 1); row b holds the diagonal
    and off-diagonal of matrix b.  Each eigenvalue is bracketed from the
    Gershgorin bounds and the bracket cut into _POINTS + 1 pieces per
    sweep; the number of eigenvalues below a point x is the number of
    negative pivots d_i = (a_i - x) - b_{i-1}**2 / d_{i-1} of T - x = L D L'.
    A bracket stops moving once it is narrower than
    2 eps max(|lo|, |hi|) + eps |T| (|T| the Gershgorin norm, the default
    tolerance of LAPACK's stebz), so each result depends on its own matrix
    only; sweeps end when all have stopped, and the midpoints are returned.

    A zero pivot is left to IEEE arithmetic (Demmel, Dhillon and Ren,
    ETNA 1995): b**2 / +0 = +inf makes the next pivot -inf and the one
    after a - x again.  A pivot of -0.0 counts as negative and is followed
    by +inf, so either signed zero adds one to the count.  b**2 is kept at
    least the smallest subnormal so that 0 / 0 never occurs; off-diagonals
    must stay below 1e154 so that b**2 is finite.
    """
    n = diag.shape[1]
    radius = np.zeros_like(diag)
    radius[:, :-1] += np.abs(off)
    radius[:, 1:] += np.abs(off)
    lower = (diag - radius).min(axis=1)
    upper = (diag + radius).max(axis=1)
    norm = np.maximum(np.abs(lower), np.abs(upper))
    # widen as stebz does, so rounding in the count cannot leave the bracket
    lower -= 2.0 * n * _EPS * norm
    upper += 2.0 * n * _EPS * norm

    # trial points are laid out (eigenvalue, point, matrix)
    lo = np.repeat(lower[None, :], k, axis=0)
    hi = np.repeat(upper[None, :], k, axis=0)
    index = (n - 1 - np.arange(k))[:, None, None]      # ascending index of the j-th largest
    fractions = (np.arange(1, _POINTS + 1) / (_POINTS + 1))[None, :, None]
    diag_rows = np.ascontiguousarray(diag.T)
    off2_rows = np.ascontiguousarray(np.maximum(off * off, np.finfo(float).smallest_subnormal).T)
    for _ in range(_MAX_SWEEPS):
        gap = hi - lo
        # a converged bracket stays put, so no matrix's result depends on the batch
        active = gap > 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS * norm
        if not active.any():
            break
        x = lo[:, None, :] + gap[:, None, :] * fractions
        below = _negative_pivots(diag_rows, off2_rows, x.reshape(-1)).reshape(x.shape)
        # points with at most index eigenvalues below them lie below the eigenvalue
        cut = (below <= index).sum(axis=1)[:, None, :]
        grid = np.concatenate([lo[:, None, :], x, hi[:, None, :]], axis=1)
        lo = np.where(active, np.take_along_axis(grid, cut, axis=1)[:, 0], lo)
        hi = np.where(active, np.take_along_axis(grid, cut + 1, axis=1)[:, 0], hi)
    return ((lo + hi) / 2.0).T


def _negative_pivots(diag_rows: np.ndarray, off2_rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of negative pivots of T_b - x, for many shifts x of each matrix T_b.

    diag_rows (n, batch) and off2_rows (n - 1, batch) hold the diagonals
    and squared off-diagonals row by row, and x the shifts flattened as
    (group, matrix).  Each row's entries are repeated across the groups
    _ROWS rows at a time, so every per-row step is one contiguous divide
    and subtract.
    """
    n, batch = diag_rows.shape
    shape = (-1, x.size // batch, batch)
    rows = min(_ROWS, n)
    pivots, off2 = np.empty((rows, x.size)), np.empty((rows, x.size))
    negative, quotient = np.empty((rows, x.size), dtype=bool), np.empty(x.size)
    counts = np.zeros(x.size, dtype=np.intp)
    divide, subtract = np.divide, np.subtract
    carry = None
    with np.errstate(divide="ignore"):      # a zero pivot divides by zero on purpose
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block, coupling = pivots[: stop - start], off2[: stop - start]
            np.copyto(block.reshape(shape), diag_rows[start:stop, None, :])
            block -= x
            # coupling[r] joins row start + r to the row before it
            first = 1 if start == 0 else 0
            np.copyto(coupling[first:].reshape(shape),
                      off2_rows[start + first - 1: stop - 1, None, :])
            pairs = iter(zip(block, coupling))
            if carry is None:
                carry = next(pairs)[0]
            for pivot, b2 in pairs:
                divide(b2, carry, quotient)
                subtract(pivot, quotient, pivot)
                carry = pivot
            signs = np.signbit(block, out=negative[: stop - start])
            counts += np.add.reduce(signs, axis=0, dtype=np.uint8)     # rows < 256
            carry = carry.copy()
    return counts


def _openblas_threads() -> tuple:
    """(get, set) of the thread count of each OpenBLAS mapped into this process.

    The libraries are found by path in /proc/self/maps; the functions are
    openblas_[gs]et_num_threads under the scipy_ prefix and 64_ suffix
    that the builds of numpy and scipy wheels add.  Empty where there is
    no such file or library.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            if hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Yields whether any OpenBLAS was found; the thread counts in force
    before are restored on exit.
    """
    controls = _openblas_threads()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield bool(controls)
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def sqrt_upper(w: complex) -> complex:
    """Square root of w on the branch with nonnegative imaginary part.

    For real w >= 0 this is the nonnegative real root; for real w < 0 it
    is +i*sqrt(|w|).  Not the principal branch: principal sqrt maps the
    lower half plane to Im < 0, this map folds it back up.
    """
    r = complex(np.sqrt(complex(w)))
    if r.imag > 0 or (r.imag == 0 and r.real >= 0):
        return r
    return -r


class IndexLayout(NamedTuple):
    """Coordinate structure of the (p+q+2n) linearization space.

    The one owner of H's coordinates.  blocks holds the four coordinate
    blocks in order: the p rows of the first data channel, the q of the
    second, then two n-blocks for the right factors.  paired holds the
    index arrays (mu, mu + n), mu < n, of the paired coordinates of the
    two factor blocks, on which H, G and the limit matrix carry a 2x2
    kernel; add_kernel adds one in place, to a whole matrix or to one of
    its column panels.
    """

    p: int
    q: int
    n: int

    @property
    def dim(self) -> int:
        return self.p + self.q + 2 * self.n

    @property
    def blocks(self) -> tuple[slice, slice, slice, slice]:
        p, q, n = self
        return (slice(0, p), slice(p, p + q), slice(p + q, p + q + n),
                slice(p + q + n, p + q + 2 * n))

    @property
    def paired(self) -> tuple[np.ndarray, np.ndarray]:
        first = self.p + self.q + np.arange(self.n)
        return first, first + self.n

    def add_kernel(self, M: np.ndarray, k00, k01, k11, cols: slice = slice(None)) -> None:
        """M += [[k00, k01], [k01, k11]] on every paired coordinate, in place.

        M is the column panel [:, cols] of a d x d matrix, and only the
        kernel entries in those columns are added; the whole matrix is the
        panel of every column, the default.
        """
        start, stop, _ = cols.indices(self.dim)
        first, second = self.paired
        for own, partner, k in ((first, second, k00), (second, first, k11)):
            inside = (own >= start) & (own < stop)
            own, partner = own[inside], partner[inside]
            M[own, own - start] += k
            M[partner, own - start] += k01


def kernel_inverse_2x2(z: complex) -> np.ndarray:
    """Closed-form inverse of the coupling kernel.

    det = z(z-1), so the inverse is [[z, -z^(1/2)], [-z^(1/2), z]] / (z(z-1)).
    Analytic on purpose: the kernel must never be inverted numerically.
    """
    z = complex(z)
    if z == 0 or z == 1:
        raise ValueError(f"coupling kernel is singular at z = {z}")
    det = z * (z - 1)
    sz = sqrt_upper(z)
    return np.array([[z, -sz], [-sz, z]]) / det

