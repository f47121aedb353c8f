"""Exception types shared across the library."""

from __future__ import annotations


class MuonlabError(Exception):
    """Base class for all library-specific errors. ``key_path``, where set,
    names the field or config key at fault and prefixes the message."""

    def __init__(self, message: str = "", key_path: str | None = None):
        super().__init__(message)
        self.key_path = key_path

    def __str__(self) -> str:
        message = super().__str__()
        return f"{self.key_path}: {message}" if self.key_path else message


class ShapeError(MuonlabError, ValueError):
    """Operands have incompatible or unsupported shapes."""


class NumericError(MuonlabError, ArithmeticError):
    """A kernel produced or received non-finite values, or failed to converge."""


class DegenerateInputError(MuonlabError, ValueError):
    """Input is structurally unusable (zero matrix, rank-deficient where full rank is required)."""


class RangeError(MuonlabError, ValueError):
    """A scalar argument lies outside its documented range."""


class ConfigError(MuonlabError, ValueError):
    """Invalid run configuration. ``key_path`` points at the offending entry."""


def _require(ok: bool, field: str, rule: str, value) -> None:
    """Raise RangeError at ``field`` unless ``ok``. Write ``ok`` as the
    condition that must hold (``x > 0``, never ``not x <= 0``), so that NaN
    fails it."""
    if not ok:
        raise RangeError(f"must {rule}, got {value!r}", key_path=field)
