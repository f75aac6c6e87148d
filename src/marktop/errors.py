"""Exception hierarchy shared by all marktop modules."""


class MarktopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MarktopError):
    """Argument lies outside the domain of analyticity of the function."""


class InvalidInterval(MarktopError):
    """Interval endpoints are not properly ordered."""


class DegenerateCondenser(MarktopError):
    """The evaluation interval [c, d] collapses to a point."""


class BoundInvalid(MarktopError):
    """An error bound is requested outside its range of validity."""


class PencilError(MarktopError):
    """The Loewner matrix pencil is numerically singular beyond recovery."""


class PoleLocationError(MarktopError):
    """Computed poles have non-negligible imaginary parts."""


class RankDeficiency(MarktopError):
    """The interpolation system has a (numerically) non-unique nullspace."""


class Breakdown(MarktopError):
    """A reciprocal difference requires division by a vanishing value."""


class PoleHit(MarktopError):
    """Evaluation point coincides with a pole of the interpolant."""


class DimensionError(MarktopError):
    """Matrix dimensions do not conform."""


class SingularMatrix(MarktopError):
    """A linear solve encountered a (numerically) singular matrix."""


class PoleCollision(MarktopError):
    """A pole of the interpolant lies too close to the spectral interval."""


class NoConvergence(MarktopError):
    """An iteration exhausted its step budget without converging."""


class DegreeUnavailable(MarktopError):
    """The stopping rule rejects already the smallest degree m = 1."""
