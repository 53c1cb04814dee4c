"""Error taxonomy shared across the workbench.

Three families matter for the CLI exit contract: malformed input
(``ParseError``, ``MalformedTable``, ``BadConstant``, ``BadPoset``,
``TooLarge``) maps to status 2, failed checks are reported as verdicts with
status 1, and ``InconsistencyDetected`` subclasses map to status 3.  An
inconsistency means a verified theorem failed on a concrete instance, which
signals a bug in the workbench itself, never in the input.

The size rule for generated models and algebra files, :func:`check_size`,
lives here too: this module imports nothing, so the CLI refuses an oversized
request before it loads numpy.
"""


class SkewbenchError(Exception):
    """Base class for all workbench errors."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class MalformedTable(SkewbenchError):
    """Operation table is not square, not closed, or names are invalid."""


class BadConstant(SkewbenchError):
    """A declared top or bottom fails its absorption law."""


class BadPoset(SkewbenchError):
    """Relation is not reflexive, antisymmetric and transitive."""


class ParseError(SkewbenchError):
    """Malformed algebra or poset document."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class TooLarge(SkewbenchError):
    """Requested instance exceeds the configured size bound."""


# the largest carrier an int16 table can index
MAX_CARRIER = 1 << 15


def check_size(what: str, terms, bound: int) -> int:
    """The element count of a carrier made of ``terms``, each an iterable of
    positive factors whose product it adds: Σ_t Π t.

    Raises TooLarge as soon as the running count passes ``bound`` or
    MAX_CARRIER, so it reads no factor past that point and forms no product
    beyond the limit times one factor: with every factor at least 2 it stops
    within 16 factors.
    """
    limit = min(bound, MAX_CARRIER)
    size = 0
    for factors in terms:
        term = 1
        for factor in factors:
            term *= factor
            if size + term > limit:
                break
        size += term
        if size > limit:
            raise TooLarge(f"{what} has more than {limit} elements, bound is {limit}")
    return size


class CostaMismatch(SkewbenchError):
    """The three characterizations of the natural partial order disagree."""


class NotComposable(SkewbenchError):
    """Green's relations fail to compose as expected; input is not a skew lattice."""


class NotACongruence(SkewbenchError):
    """A partition does not respect some operation table; witness quadruple attached."""


class PreconditionFailed(SkewbenchError):
    """Caller-side precondition was violated."""


class NotUnique(SkewbenchError):
    """A cover that should be unique is not; signals a non-conormal input."""


class AmbiguousDiff(SkewbenchError):
    """Two candidates satisfy the dual difference identities for some pair."""


class NoArrow(SkewbenchError):
    """An arrow or dual difference has no value at some pair; the witness
    names the first such pair and, for an arrow, its maximal candidates
    (two or more incomparable maxima witness non-distributivity)."""


class NotCoStronglyDistributive(PreconditionFailed):
    """Arrow derivation requires a co-strongly distributive reduct."""


class NoTop(PreconditionFailed):
    """Arrow derivation requires a top element."""


class InconsistencyDetected(SkewbenchError):
    """A theorem verified by construction failed on an instance."""


class CoherenceFailure(InconsistencyDetected):
    """Global arrow disagrees with an upset-local arrow."""


class EsakiaFormulaMismatch(InconsistencyDetected):
    """The complement-of-downset formula fails the Heyting adjunction."""


class FactorizationNotFound(InconsistencyDetected):
    """Algebra classifies as binormal but no lattice-by-rectangular splitting was found."""
