"""Exception types raised by the simulation and reconstruction code."""

from __future__ import annotations


def _show(value) -> str:
    """``repr(value)`` for a message; for an int with more digits than Python converts
    (``sys.get_int_max_str_digits()``), or a value holding one, a stand-in that names it."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {abs(value).bit_length()} bits>"
        return f"<{type(value).__name__} holding an int too long to print>"


class KerrsimError(Exception):
    """Base class for package-specific failures."""


class ConfigError(KerrsimError):
    """Invalid configuration (bad field values, malformed config file)."""


class NumericalError(KerrsimError):
    """A numerical contract was violated during a computation."""


class TruncationOverflowError(NumericalError):
    """Truncated Fock space is too small for the requested operation."""


class SubspaceSupportError(NumericalError):
    """State carries non-negligible support outside the required subspace."""


class StageError(NumericalError):
    """Pipeline stage failure; carries the name of the stage that failed."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        self.message = message
        super().__init__(f"stage '{stage}': {message}")

    def __reduce__(self):
        # rebuilt from both arguments, so a worker process's failure unpickles as itself
        return type(self), (self.stage, self.message)
