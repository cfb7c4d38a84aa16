"""Exception hierarchy.

Every domain error carries a stable machine-readable ``code`` (used by the
CLI for its JSON error envelope) and, where it helps, a ``witness`` payload
pinpointing the offending entry.
"""


class LiexError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.message = message
        self.witness = witness

    def payload(self):
        d = {"code": self.code, "message": self.message}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class NotASemigroupError(LiexError):
    """Multiplication table fails associativity or commutativity."""

    code = "not_a_semigroup"


class NoZeroElementError(LiexError):
    """Semigroup has no absorbing element where one is required."""

    code = "no_zero_element"


class NotALieAlgebraError(LiexError):
    """Structure tensor fails the Jacobi identity."""

    code = "not_a_lie_algebra"


class NotASubalgebraError(LiexError):
    """Span is not closed under the bracket."""

    code = "not_a_subalgebra"


class NotResonantError(LiexError):
    """Semigroup decomposition fails the resonance condition."""

    code = "not_resonant"


class NotReducibleError(LiexError):
    """Decomposition does not induce a reduction."""

    code = "not_reducible"


class ParameterNotRationalError(LiexError):
    """Continuous invariant of the input algebra is irrational.

    Can genuinely trigger on rational input: e.g. the 3-dim algebra whose
    adjoint action on the derived subalgebra is [[1,2],[-1,1]] has invariant
    1/sqrt(2).
    """

    code = "parameter_not_rational"


class RationalFormError(LiexError):
    """Class was identified but no rational change of basis exists or was
    found within the search bound."""

    code = "no_rational_witness"


class InputFormatError(LiexError):
    """Malformed user input (bad JSON shape, unknown name, out-of-range
    parameter).  CLI maps this to exit code 1."""

    code = "input_format"
