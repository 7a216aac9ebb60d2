"""Exception types shared across the package."""


class WWMError(Exception):
    """Base class for all errors raised by this package."""


class GridError(WWMError):
    """Invalid grid construction."""


class ExpressionError(WWMError):
    """Parse failure in the scheme expression grammar.

    Carries the character offset into the parsed text plus 1-based
    line/column, so config files can point at the offending spot.
    """

    def __init__(self, message, offset, text=""):
        self.message = message
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        last_nl = text.rfind("\n", 0, offset)
        self.column = offset - last_nl
        super().__init__(f"{message} at offset {offset} (line {self.line}, column {self.column})")


class EvaluationError(WWMError):
    """A channel expression produced a non-finite value."""


class SchemeError(WWMError):
    """Invalid scheme construction (bad builtin parameters, bad unitary, ...)."""


class CompletenessError(WWMError):
    """A which-way scheme failed the completeness requirement."""


class StateError(WWMError):
    """Invalid slit-state parameters, or a state unsuitable for an operation."""


class ConfigError(WWMError):
    """Malformed run configuration file."""
