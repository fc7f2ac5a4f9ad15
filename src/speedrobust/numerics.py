"""Exact arithmetic primitives shared by every algorithm in the package.

All quantities are rationals over arbitrary-precision integers; nothing in
this package ever touches a float on a computation path.  The canonical
rational type is :class:`fractions.Fraction` (always stored reduced, positive
denominator).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection


def floor_scale(units: int, rho: Fraction) -> int:
    """Greatest integer at most ``units * rho``, computed exactly.

    This is the bag size bought with ``units`` coins at robustness
    factor ``rho``.
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    rho = exact_rational(rho)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return (units * rho.numerator) // rho.denominator


def ceil_div(amount: int, parts: int) -> int:
    """Smallest integer at least ``amount / parts``.

    With ``amount`` coins spread over ``parts`` machines, some machine
    holds at least this many coins (pigeonhole).
    """
    if amount < 0:
        raise ValueError(f"amount must be >= 0, got {amount}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    return -(-amount // parts)


def _to_common_ints(values: Collection[Fraction]) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    # A list, not a generator: a tuple grown from a generator is parked on CPython's
    # free lists when freed, and long sweeps then hold megabytes of them.
    denom = lcm(*[v.denominator for v in values])
    return [v.numerator * (denom // v.denominator) for v in values], denom


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a plain integer string into an exact rational.

    Floating-point syntax is rejected on purpose: accepting it would
    silently launder rounding error into exact computations.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        raise ValueError(f"not an exact rational (floats are rejected): {text!r}")
    num, sep, den = text.partition("/")
    try:
        if sep:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def exact_rational(value: Fraction | int | str) -> Fraction:
    """``value`` as a Fraction; strings go through :func:`parse_rational`.

    Floats are rejected like float literals are: ``Fraction(0.1)`` is the
    binary approximation 3602879701896397/36028797018963968, not 1/10.
    Booleans are rejected too, rather than read as 1 and 0.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ValueError(f"not an exact rational (floats are rejected): {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational (true/false are rejected): {value!r}")
    return Fraction(value)


def exact_ints(**values: int) -> None:
    """Refuse, with ``ValueError`` naming it, any keyword value that is not an ``int``.

    Booleans are refused rather than read as 1 and 0, and floats even when integral.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def format_rational(value: Fraction | int) -> str:
    """Serialize as ``"p/q"``, or just ``"p"`` for integral values."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
