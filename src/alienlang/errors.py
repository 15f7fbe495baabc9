"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from :class:`ToolkitError`, so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToolkitError):
    """A file or serialized object does not match its declared format."""


class UnknownTokenError(ToolkitError, LookupError):
    """A token string or token ID is not present in the vocabulary."""


class CoverageError(ToolkitError):
    """Input cannot be covered: untokenizable text or missing embedding rows."""


class ArgumentError(ToolkitError, ValueError):
    """An argument value violates an operation's preconditions."""


class CompatibilityError(ToolkitError):
    """Key and vocabulary (or two keys) do not fit each other.

    Either their fingerprints differ, or a key pairs a special token or maps
    an id outside the vocabulary.
    """


class DegenerateInputError(ToolkitError):
    """Numerically degenerate input, e.g. a zero-norm embedding row."""


class StabilityError(ToolkitError):
    """Rendered alien text does not retokenize to the transmitted IDs.

    ``position`` is the first divergent token index when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class TransportError(ToolkitError):
    """HTTP-level failure talking to a chat endpoint (after retries)."""


class ProtocolError(ToolkitError):
    """A chat endpoint answered with a malformed or unexpected payload."""
