"""Exception taxonomy shared across the library.

Every failure mode that a caller can reasonably branch on gets its own
class; plain ValueError is reserved for programmer errors (bad arguments,
malformed inputs caught at construction time).
"""


class MuLabError(Exception):
    """Base class for all library-specific errors."""


class NotOrdinary(MuLabError):
    """p divides a_p; the unit root of x^2 - a_p x + p does not exist."""


class PrecisionExhausted(MuLabError):
    """Every coefficient vanishes at working precision."""


class PrecisionInsufficient(MuLabError):
    """The p-power filtration is still nonzero at the top precision layer."""


class TruncationUnresolved(MuLabError):
    """A pivot decision depends on power-series coefficients beyond the
    T-truncation bound."""


class NotTorsion(MuLabError):
    """A relation matrix has rank < its number of columns over Q(T), so
    the module it presents is not torsion."""


class EigenspaceNotRational(MuLabError):
    """No rational eigensymbol matches the supplied Hecke data."""


class EigenspaceNotOneDimensional(MuLabError):
    """The matched eigenspace has dimension != 1."""


class DenominatorAtP(MuLabError):
    """A Mazur-Tate coefficient has p in its denominator after
    normalization."""


class NotStabilized(MuLabError):
    """No two consecutive layers produced matching Iwasawa invariants."""


class FactorizationInconclusive(MuLabError):
    """No prime below the search bound separates the two Frobenius
    eigenvalues that cut out the kernel lines."""


class BadReduction(MuLabError):
    """The curve does not have good reduction at the requested prime."""


class NoFrobeniusScalar(MuLabError):
    """No Frobenius scalar at this ell: the kernel polynomial does not
    reduce to a divisor of psi_p mod ell, or not exactly one root of the
    Frobenius polynomial mod p passes Elkies' test on it."""


class AmbiguousPair(MuLabError):
    """Two distinct character pairs satisfy every tested trace congruence."""


class SizeBound(MuLabError):
    """An exhaustive computation exceeds its configured size bound."""


class LocalTwistUnrealizable(MuLabError):
    """No global cocycle restricts to an admissible local twist at every
    labelled subgroup."""


class TameRelationError(MuLabError):
    """Sigma Tau Sigma^{-1} != Tau^v at the stated level."""


class ParseError(MuLabError):
    """Input file failed to parse or validate structurally."""


class InvalidModel(MuLabError):
    """Weierstrass model is singular or otherwise unusable."""


class InconsistentAp(MuLabError):
    """A supplied a_ell disagrees with a point count."""


class InvariantViolation(MuLabError):
    """An internal cross-check failed: isogeny invariance, mu
    monotonicity or the consistency bound during analysis; the
    determinant, cocycle identity or homomorphism check of a lift."""
