"""Exception hierarchy shared by every fglab module.

Each failure mode the library can diagnose gets its own class so callers
(and the CLI exit-code map) can dispatch without string matching.
"""


class FglabError(Exception):
    """Base class for all library errors."""


class BadArgument(FglabError, ValueError):
    """An argument value lies outside the operation's domain."""


class MixedContext(FglabError):
    """Operands disagree on prime, precision, degree cap, or modulus."""


class PrecisionExhausted(FglabError):
    """A result would carry fewer than one certified digit."""


class DivisionByZero(FglabError):
    """Divisor is zero at working precision."""


class ImpreciseValuation(FglabError):
    """Element is zero modulo the certified precision but not provably zero."""


class BadModulus(FglabError):
    """Extension modulus fails the criterion demanded by its tag."""


class NonzeroConstantTerm(FglabError):
    """Inner series of a composition has a nonzero constant term."""


class NotInvertible(FglabError):
    """Linear part is not invertible over the p-adic integers."""


class AxiomViolation(FglabError):
    """A formal-group axiom fails; carries the first witness found."""

    def __init__(self, axiom, degree, witness=None):
        self.axiom = axiom
        self.degree = degree
        self.witness = witness
        super().__init__(f"axiom {axiom!r} fails at degree {degree}"
                         + (f" (witness {witness})" if witness is not None else ""))


class NotEndomorphism(FglabError):
    """Candidate series does not commute with the group law; carries a witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not an endomorphism (witness {witness})")


class SingularStep(FglabError):
    """The degree-m difference operator of the commutant recursion is singular."""

    def __init__(self, degree, detail=""):
        self.degree = degree
        super().__init__(f"difference operator singular at degree {degree}"
                         + (f": {detail}" if detail else ""))


class NonCommutingTarget(FglabError):
    """Requested Jacobian target does not commute with the linear part."""


class VerificationFailure(FglabError):
    """A reconstructed series failed its post-hoc commutation check."""


class DivergentPoint(FglabError):
    """Evaluation point has a coordinate of non-positive valuation."""


class UnsupportedShape(FglabError):
    """Input falls outside the desk-scale cases the operation supports."""


class ParseError(FglabError):
    """Malformed series document; carries the offending line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class VersionMismatch(FglabError):
    """Document format version is not supported."""
