"""Internal linear-algebra and branch helpers.

The square-root conventions here are load-bearing: every limit formula in
the package evaluates sqrt(w) on the branch with nonnegative imaginary
part, and z**(1/2) on the branch that is positive imaginary for z < 0.
Both agree with the principal branch on the upper half plane.

IndexLayout owns the coordinate structure of the linearization: its four
blocks, the paired factor coordinates and the in-place add of a 2x2
kernel on them, which H, the Schur assembly of its resolvent and the
limit matrix all go through.  Every structured entry lies on a diagonal
of a block, which IndexLayout hands out as a writeable view.

tridiagonal_top and invert_lower call LAPACK through LAPACKE, in the
OpenBLAS that the numpy wheel loads, as the thread controls below do:
_lapacke looks each routine up once, and numpy itself has neither
bisection for a tridiagonal nor a triangular inverse.  Where no loaded
library exports a routine, numpy does the same job on a dense matrix:
np.linalg.eigvalsh for the top eigenvalues of one tridiagonal at a time
(dstebz's bisection), np.linalg.inv by a general LU for the triangular
inverse (dtrtri).

one_blas_thread runs a block with every loaded OpenBLAS on one thread.
A multithreaded BLAS may sum a product in another order than a single
thread does, so results are computed under it to stay the same bytes at
any thread count.  openblas_runtime names the configuration and CPU
core of numpy's OpenBLAS as it runs; the core picks the kernels, and so
which bytes a result has.

steady_heap fixes the C allocator's mmap and trim thresholds at the
ceiling of glibc's dynamic rule.  A Monte Carlo trial or a local-law
point frees and reallocates the same few MB over and over; under the
dynamic rule that memory is unmapped after each repeat and zero-filled
again on the next, and with the fixed thresholds it stays on the heap.
The setting is process-wide, so only the process owner, the command
line, applies it; it changes where memory lives, never a computed value.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericalError


def _openblas_libraries() -> tuple:
    """Each OpenBLAS mapped into this process, opened with ctypes.

    The libraries are found by path in /proc/self/maps; empty where there
    is no such file or library.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in paths)


def _openblas_threads() -> tuple:
    """(get, set) of the thread count of each loaded OpenBLAS.

    The functions are openblas_[gs]et_num_threads under the scipy_ prefix
    and 64_ suffix that the builds of numpy and scipy wheels add.
    """
    controls = []
    for lib in _openblas_libraries():
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            if hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


def openblas_runtime() -> dict:
    """{"config": ..., "corename": ...} of the numpy wheel's ILP64 OpenBLAS as it runs.

    OpenBLAS picks its kernels by the CPU it finds at load time, which
    numpy's build configuration does not show; both strings are null
    where no loaded library exports scipy_openblas_get_config64_.
    """
    for lib in _openblas_libraries():
        if hasattr(lib, "scipy_openblas_get_config64_"):
            found = {}
            for field in ("config", "corename"):
                get = getattr(lib, f"scipy_openblas_get_{field}64_")
                get.argtypes, get.restype = [], ctypes.c_char_p
                found[field] = get().decode()
            return found
    return {"config": None, "corename": None}


_COL_MAJOR = 102        # LAPACK_COL_MAJOR, lapacke.h
_INT, _PTR = ctypes.c_int64, ctypes.c_void_p
_LAPACKE_ARGTYPES = {
    "dstebz": [ctypes.c_char, ctypes.c_char, _INT, ctypes.c_double, ctypes.c_double, _INT, _INT,
               ctypes.c_double, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "dtrtri": [ctypes.c_int, ctypes.c_char, ctypes.c_char, _INT, _PTR, _INT],
}


@functools.cache
def _lapacke(routine: str):
    """LAPACKE_<routine> of the numpy wheel's ILP64 OpenBLAS, or None where none is loaded.

    Looked up once per routine, on first use; numpy's own OpenBLAS is
    mapped by then.  The argument types are those of _LAPACKE_ARGTYPES.
    """
    for lib in _openblas_libraries():
        if hasattr(lib, f"scipy_LAPACKE_{routine}64_"):
            function = getattr(lib, f"scipy_LAPACKE_{routine}64_")
            function.argtypes, function.restype = _LAPACKE_ARGTYPES[routine], _INT
            return function
    return None


def lapacke_routines() -> list[str]:
    """The LAPACKE routines _lapacke finds, sorted; the others take numpy's dense route."""
    return [routine for routine in sorted(_LAPACKE_ARGTYPES) if _lapacke(routine) is not None]


def tridiagonal_top(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues, descending, of each tridiagonal in a batch.

    diag is (batch, n) and off (batch, n - 1); row b holds the diagonal
    and off-diagonal of matrix b.  LAPACK's dstebz bisects each matrix on
    its own for its eigenvalues n - k + 1 to n, to its default tolerance
    (ABSTOL = 0), so a row's result does not depend on the batch.  A
    failed bisection raises NumericalError.  Without dstebz, each matrix
    in turn is made dense and solved by np.linalg.eigvalsh.
    """
    batch, n = diag.shape
    top = np.empty((batch, k))
    dstebz = _lapacke("dstebz")
    if dstebz is None:
        dense = np.zeros((n, n))
        for row, a, b in zip(top, diag, off):
            dense.flat[:: n + 1], dense.flat[n:: n + 1] = a, b   # eigvalsh reads the lower triangle
            row[:] = np.linalg.eigvalsh(dense)[n - k:][::-1]
        return top
    diag, off = np.require(diag, np.float64, "C"), np.require(off, np.float64, "C")
    m, nsplit, w = np.empty(1, np.int64), np.empty(1, np.int64), np.empty(n)
    iblock, isplit = np.empty(n, np.int64), np.empty(n, np.int64)
    out = [array.ctypes.data for array in (m, nsplit, w, iblock, isplit)]
    for row, a, b in zip(top, diag, off):
        info = dstebz(b"I", b"E", n, 0.0, 0.0, n - k + 1, n, 0.0, a.ctypes.data, b.ctypes.data,
                      *out)
        if info != 0 or m[0] != k:
            raise NumericalError(f"dstebz failed with info = {info}, "
                                 f"{m[0]} eigenvalues found of the top {k}")
        row[:] = w[k - 1:: -1]
    return top


def invert_lower(L: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular lower triangular L, itself lower triangular.

    With dtrtri the inverse overwrites a writeable C-ordered float64 L
    (any other L is copied first), and that array is returned.  Its
    C-order bytes are L' in column-major order, so dtrtri inverting that
    upper triangle leaves L**(-1) in L's own order, and LAPACKE makes no
    transposed copy.  Without dtrtri, L is left alone and the lower
    triangle of np.linalg.inv(L) returned.  A zero on the diagonal
    raises LinAlgError either way.
    """
    dtrtri = _lapacke("dtrtri")
    if dtrtri is None:
        return np.tril(np.linalg.inv(L))
    L = np.require(L, np.float64, ("C", "W"))
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError(f"invert_lower needs a square matrix, got shape {L.shape}")
    info = dtrtri(_COL_MAJOR, b"U", b"N", n, L.ctypes.data, max(n, 1))
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtri failed with info = {info}")
    return L


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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, malloc.h
_MMAP_CEILING = 32 << 20    # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit hosts


def steady_heap() -> bool:
    """Pin the C allocator's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc raises its mmap threshold to the size of the largest mmapped
    chunk freed so far and trims the heap top past twice that, so memory
    a repeated computation frees is handed back to the kernel and faulted
    in again on the next repeat.  Pinned at the rule's 64-bit ceiling (and
    the trim threshold at the rule's twice that), blocks below 32 MiB come
    from the heap and stay mapped between repeats.  Forked children
    inherit the setting.  Returns whether both mallopt calls succeeded;
    False where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    done = [mallopt(_M_MMAP_THRESHOLD, _MMAP_CEILING),
            mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_CEILING)]
    return done == [1, 1]


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
    second, then two n-blocks for the right factors.  H, G and the limit
    matrix carry a 2x2 kernel on the paired coordinates (mu, mu + n),
    mu < n, of the two factor blocks; add_kernel adds one in place, to a
    whole matrix or to one of its column panels.  overlap is where a
    block meets a column panel, and diagonal a writeable view of one
    diagonal of the panel there, so no index array is built.
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

    def overlap(self, block: slice, cols: slice) -> slice:
        """The columns of the panel [:, cols] in block, counted from the panel's first column.

        Empty where the two do not meet.
        """
        start, stop, _ = cols.indices(self.dim)
        lo, hi = max(block.start, start), min(block.stop, stop)
        return slice(lo - start, max(lo, hi) - start)

    def diagonal(self, M: np.ndarray, block: slice, cols: slice = slice(None),
                 shift: int = 0) -> np.ndarray:
        """A writeable view of the entries (c + shift, c), c in block, of M = [:, cols].

        M is the column panel [:, cols] of a d x d matrix, the whole
        matrix by default.  The view is the diagonal of M's square
        sub-block where block meets the panel's columns, and empty where
        they do not meet.
        """
        inside = self.overlap(block, cols)
        first = cols.indices(self.dim)[0] + inside.start + shift
        return np.einsum("ii->i", M[first: first + inside.stop - inside.start, inside])

    def add_kernel(self, M: np.ndarray, k00, k01, k11, cols: slice = slice(None)) -> None:
        """M += [[k00, k01], [k01, k11]] on every paired coordinate, in place.

        M is the column panel [:, cols] of a d x d matrix, and only the
        kernel entries in those columns are added; the whole matrix is the
        panel of every column, the default.
        """
        s3, s4 = self.blocks[2:]
        for own, k, to_partner in ((s3, k00, self.n), (s4, k11, -self.n)):
            self.diagonal(M, own, cols)[...] += k
            self.diagonal(M, own, cols, to_partner)[...] += k01


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

