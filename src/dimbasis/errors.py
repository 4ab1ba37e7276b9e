"""Shared error types and enumeration limits."""

from __future__ import annotations

# Subset enumeration and Graver completion are exponential in the number of
# quantities; the cap keeps accidental large inputs from hanging a session.
DEFAULT_MAX_N = 20


class SizeLimitError(Exception):
    """Raised when an input exceeds a size cap.

    ``n`` is the size found and ``limit`` the cap: by default the quantity
    count of a matrix, otherwise what ``message`` names.
    """

    def __init__(self, n: int, limit: int, message: str | None = None):
        super().__init__(
            message or f"matrix has {n} quantities, exceeding the configured cap of {limit}"
        )
        self.n = n
        self.limit = limit
