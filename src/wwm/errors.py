"""Exception types shared across the package."""


class WWMError(Exception):
    """Base class for all errors raised by this package."""


class GridError(WWMError):
    """Invalid grid construction."""


class ExpressionError(WWMError):
    """Parse failure in the expression grammar, at a character offset into
    the one expression parsed (a config error names its file line)."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


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
