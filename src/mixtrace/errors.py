"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A search is past its fixed bound; the message gives size and bound."""


class ModelNotCompactifiableError(InputError):
    """The operation needs a nonzero mix scalar; with m = 0 no compact
    envelope exists."""
