"""Exception vocabulary shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError/TypeError bug.
"""


class PadicError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(PadicError):
    """An operation would leave zero significant digits."""


class DivisionByZero(PadicError):
    """Division by the zero scalar (certified or exact)."""


class NonIntegral(PadicError):
    """A value required to lie in Z_p has negative valuation."""


class CertificationFailed(PadicError):
    """A normal-contraction bound failed at some depth n."""

    def __init__(self, depth: int, message: str = ""):
        self.depth = depth
        super().__init__(message or f"contraction bound violated at depth {depth}")


class NoConvergence(PadicError):
    """An iteration did not reach its target within budget."""

    def __init__(self, iterations: int, message: str = ""):
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations")


class PreconditionFailed(PadicError):
    """A documented norm/shape precondition does not hold."""


class Undecidable(PadicError):
    """The representation lacks a certificate to decide the query."""


class StructureError(PadicError):
    """An operator expression has no closed structured form.

    Internal signal; public entry points convert it to Undecidable
    where the operation's contract allows that answer.
    """


class ParseError(PadicError):
    """Malformed textual scalar, operator file, or config."""
