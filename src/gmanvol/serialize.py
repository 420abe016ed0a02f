"""Canonical JSON rendering and exact-rational formatting.

Every document emitted by this package goes through canonical_json_bytes so
that identical data always serializes to identical bytes: UTF-8, keys
sorted, no incidental whitespace.  Rational values travel as "p" or "p/q"
strings; they are never converted to floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction


def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as "p" (integer) or "p/q" (reduced)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def canonical_json_bytes(document, pretty: bool = False) -> bytes:
    """Serialize a JSON-compatible document to canonical UTF-8 bytes."""
    if pretty:
        text = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False)
    else:
        text = json.dumps(
            document, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
    return text.encode("utf-8")
