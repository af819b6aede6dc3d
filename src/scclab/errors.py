"""Exception types shared across the package.

Every rejection carries enough context to state which constraint failed
and with what value, so callers (and the command line driver) can report
violations without re-deriving them.  Each constraint is one function that
returns its violation messages; an entry point passes their concatenation
to reject().
"""

from __future__ import annotations

import copyreg

__all__ = ["ScclabError", "ParameterError", "DomainError", "NumericalError", "SingularityError"]


class ScclabError(Exception):
    """Base class for all package-specific failures.

    An error survives pickling, as it must to leave a trial process:
    it is rebuilt from its args and attributes without calling
    __init__, whose signature differs between the subclasses.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParameterError(ScclabError, ValueError):
    """A parameter violates a documented admissibility inequality."""


class DomainError(ScclabError, ValueError):
    """A spectral argument z lies outside the admissible domain.

    Raised for a limit transform evaluated off the upper half plane
    Im z > 0, for a linearization at a non-finite z, at z = 0, z = 1 or
    below the real axis, for a resolvent at a sample eigenvalue, and for
    a local-law point outside the spectral window.
    """


class NumericalError(ScclabError, RuntimeError):
    """A numerical routine failed to reach its accuracy contract.

    Attributes
    ----------
    achieved : float or None
        The tolerance or residual actually reached, when known.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class SingularityError(NumericalError):
    """A sample covariance block is numerically singular.

    Carries the offending smallest eigenvalue so diagnostics can report
    how close to singular the matrix was.
    """

    def __init__(self, message, min_eigenvalue):
        super().__init__(message, achieved=min_eigenvalue)
        self.min_eigenvalue = min_eigenvalue


def reject(violations: list[str], error: type[ScclabError] = ParameterError) -> None:
    """Raise error with every violation message, joined by "; ", if there are any."""
    if violations:
        raise error("; ".join(violations))
