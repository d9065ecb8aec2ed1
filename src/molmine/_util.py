"""Small internal helpers shared across modules."""

from __future__ import annotations

import hashlib


def is_utf8_str(value: object) -> bool:
    """Whether ``value`` is a string that UTF-8 can encode.

    ``json.loads`` turns an unpaired escape such as ``"\\ud800"`` into a
    string holding a lone surrogate, which no UTF-8 file can hold, so JSON
    readers check their strings with this.
    """
    if not isinstance(value, str):
        return False
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def fmt12(x: float) -> str:
    """Format a double with 12 significant digits (file output convention)."""
    return f"{x:.12g}"


def round12(x: float) -> float:
    """Round a double to 12 significant digits (JSON output convention)."""
    return float(fmt12(x))


def derive_seed(master: int, *context: object) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and context tokens.

    Hash-based so the result does not depend on platform hashing or on the
    order in which other sub-seeds were drawn.
    """
    token = "|".join([str(master), *(str(c) for c in context)])
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
