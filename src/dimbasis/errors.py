"""Shared error types and enumeration limits."""

from __future__ import annotations

# Subset enumeration and Graver completion are exponential in the number of
# quantities; the cap keeps accidental large inputs from hanging a session.
DEFAULT_MAX_N = 20


class SizeLimitError(Exception):
    """Raised when an input exceeds a size cap; the message names the size and the cap."""


def check_max_n(n: int, max_n: int) -> None:
    """Refuse a matrix of ``n`` quantities over the quantity cap ``max_n``."""
    if n > max_n:
        raise SizeLimitError(
            f"matrix has {n} quantities, exceeding the configured cap of {max_n}"
        )
