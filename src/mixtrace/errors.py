"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceLimitError(RuntimeError):
    """A configured search or enumeration bound was exceeded."""


class ModelNotCompactifiableError(InputError):
    """The operation needs a nonzero mix scalar; with m = 0 no compact
    envelope exists."""
