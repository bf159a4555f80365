"""Exception types shared across the package.

Anything raised on bad user input or an impossible computation derives from
StarWeylError so the CLI can map it to a diagnostic + exit code 1, keeping
genuine bugs (plain Python exceptions) distinguishable.
"""


class StarWeylError(Exception):
    """Base class for expected failures (bad input, impossible operation)."""


class IncompatibleError(StarWeylError):
    """Operands built over different generators, domains or algebras."""


class TruncationError(StarWeylError):
    """Requested order or window exceeds what the truncation retains."""


class BoxOverflowError(StarWeylError):
    """Dense oracle box cannot hold an exponent."""


class NonFiniteError(StarWeylError):
    """A numeric operation produced inf or nan."""


class ParseError(StarWeylError):
    """Expression syntax error, carrying 1-based line/column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
