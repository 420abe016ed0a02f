"""Canonical JSON rendering and loading, and exact-rational formatting.

Every document emitted by this package goes through canonical_json_bytes so
that identical data always serializes to identical bytes: UTF-8, keys
sorted, no incidental whitespace.  Every JSON text read by this package
goes through _load_json, so each decoding failure is a ParseError.
Rational values travel as "p" or "p/q" strings; they are never converted
to floating point.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .errors import ParseError, RationalTooLong


def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as "p" (integer) or "p/q" (reduced).

    Raises RationalTooLong when the numerator or denominator has more
    digits than the interpreter converts to text.
    """
    f = value if type(value) is Fraction else Fraction(value)
    return _ratio_text(f.numerator, f.denominator)


def _ratio_text(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, rendered as format_rational does.

    Integer ratios are reduced here, when they are printed, and nowhere
    before.
    """
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise RationalTooLong(
            "an exact rational has more than "
            f"{sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from None


def _int_text(value: int) -> str:
    """Decimal text of a computed integer for a message, of bounded length.

    An integer with more digits than the interpreter converts to text is
    named by that limit instead of by its digits.
    """
    try:
        return str(value)
    except ValueError:
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def _load_json(data: bytes | str, name: str):
    """The value of a JSON document, with every decoding failure a ParseError.

    The message names the input as name.  Besides bytes that are not UTF-8
    and invalid JSON, this covers an integer literal beyond the
    interpreter's digit limit and nesting too deep for the decoder.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{name} is not UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # An integer literal beyond the interpreter's digit limit.
        raise ParseError(f"{name} has an integer that is too long: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{name} is nested too deeply: {exc}") from exc


def canonical_json_bytes(document, pretty: bool = False) -> bytes:
    """Serialize a JSON-compatible document to canonical UTF-8 bytes.

    A lone surrogate, which UTF-8 cannot encode, is written as its \\uXXXX
    escape, so json.loads gives back the same string.  Raises
    RationalTooLong when an integer in the document has more digits than
    the interpreter converts to text.
    """
    try:
        if pretty:
            text = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False)
        else:
            text = json.dumps(
                document, sort_keys=True, separators=(",", ":"), ensure_ascii=False
            )
    except ValueError:
        raise RationalTooLong(
            "an integer in the document has more than "
            f"{sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from None
    return text.encode("utf-8", "backslashreplace")
