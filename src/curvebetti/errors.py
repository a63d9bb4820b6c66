"""The errors curvebetti raises, under one base class.  Each carries the
command line's exit code for it (2 usage or parse, 3 arithmetic) and
keeps a builtin base, so catching ValueError or ArithmeticError works.
"""


class CurvebettiError(Exception):
    """Base class; exit_code is the command line's exit status."""

    exit_code = 3


class InvalidParameters(CurvebettiError, ValueError):
    """Arguments outside the domain a builder is defined on."""

    exit_code = 2


class ParseError(CurvebettiError, ValueError):
    """A space expression that does not follow the grammar."""

    exit_code = 2

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class DimensionMismatch(CurvebettiError, ValueError):
    """Claimed dimension disagrees with the computed degree."""


class NegativeBetti(CurvebettiError, ValueError):
    """A coefficient that should be a Betti number came out negative."""


class NonExactDivision(CurvebettiError, ArithmeticError):
    """Polynomial division required exactness but a remainder survived."""


class DivisionByZero(CurvebettiError, ZeroDivisionError):
    """Division by the zero polynomial."""
