"""Internal linear-algebra and branch helpers.

The square-root conventions here are load-bearing: every limit formula in
the package evaluates sqrt(w) on the branch with nonnegative imaginary
part, and z**(1/2) on the branch that is positive imaginary for z < 0.
Both agree with the principal branch on the upper half plane.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


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


def sqrt_z(z: complex) -> complex:
    """z**(1/2) with nonnegative imaginary part (positive real for z > 0)."""
    return sqrt_upper(complex(z))


class IndexLayout(NamedTuple):
    """Coordinate blocks of the (p+q+2n) linearization space.

    rows/cols 0..p-1 hold the first data channel, p..p+q-1 the second,
    then two n-blocks for the right factors.  mu and mu + n form the
    paired coordinates of the last two blocks.
    """

    p: int
    q: int
    n: int

    @property
    def dim(self) -> int:
        return self.p + self.q + 2 * self.n

    @property
    def sl1(self) -> slice:
        return slice(0, self.p)

    @property
    def sl2(self) -> slice:
        return slice(self.p, self.p + self.q)

    @property
    def sl3(self) -> slice:
        return slice(self.p + self.q, self.p + self.q + self.n)

    @property
    def sl4(self) -> slice:
        return slice(self.p + self.q + self.n, self.dim)

    @property
    def sl_left(self) -> slice:
        """The p+q data coordinates."""
        return slice(0, self.p + self.q)

    @property
    def sl_right(self) -> slice:
        """The 2n factor coordinates."""
        return slice(self.p + self.q, self.dim)

    def block_slice(self, alpha: int) -> slice:
        if alpha not in (1, 2, 3, 4):
            raise ValueError(f"block index must be 1..4, got {alpha}")
        return (self.sl1, self.sl2, self.sl3, self.sl4)[alpha - 1]


def kernel_2x2(z: complex) -> np.ndarray:
    """The 2x2 coupling kernel [[z, z^(1/2)], [z^(1/2), z]]."""
    sz = sqrt_z(z)
    return np.array([[z, sz], [sz, z]])


def kernel_inverse_2x2(z: complex) -> np.ndarray:
    """Closed-form inverse of the coupling kernel.

    det = z(z-1), so the inverse is [[z, -z^(1/2)], [-z^(1/2), z]] / (z(z-1)).
    Analytic on purpose: the kernel must never be inverted numerically.
    """
    z = complex(z)
    if z == 0 or z == 1:
        raise ValueError(f"coupling kernel is singular at z = {z}")
    det = z * (z - 1)
    sz = sqrt_z(z)
    return np.array([[z, -sz], [-sz, z]]) / det

