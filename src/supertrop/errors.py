"""Exception types shared across the package."""


class SupertropicalError(Exception):
    """Base class for domain errors (violated preconditions, undefined operations)."""


class NotInvertibleError(SupertropicalError):
    """Raised when inverting a ghost or -inf scalar, which have no inverse."""


class DimensionMismatchError(SupertropicalError):
    """Raised when matrix or vector shapes are not conformable."""


class SizeCapExceededError(SupertropicalError):
    """Raised when a matrix kernel gets a matrix of order above
    tropmat.DEFAULT_DET_CAP (16): the subset fold has 2^n states.  The cap is
    fixed and not set per call; every kernel checks it once before any work,
    the Floyd-Warshall closure included (it decides is_definite and is
    kleene_star, and for a definite matrix the adjoint and the
    pseudo-inverse), and lawcheck.run_check and run_suite check it before
    drawing any matrix."""


class StrictlySingularError(SupertropicalError):
    """Raised when an operation needs det(A) != -inf but the matrix is strictly singular."""


class NotNonSingularError(SupertropicalError):
    """Raised when an operation requires a matrix with tangible determinant."""


class NotDefiniteError(SupertropicalError):
    """Raised when an operation requires a definite matrix."""


class BadIndicesError(SupertropicalError):
    """Raised for out-of-range or coinciding indices in elementary matrix constructors."""


class DegeneratePolynomialError(SupertropicalError):
    """Raised when asking for the roots of the identically -inf polynomial."""


class ConstraintUnsatisfiableError(SupertropicalError):
    """Raised when constrained random generation exhausts its retry budget."""


class VerificationError(SupertropicalError):
    """Raised when a result fails the self-check made before returning it."""


class ParseError(ValueError):
    """Raised for text that does not match the scalar/polynomial/matrix grammars."""
