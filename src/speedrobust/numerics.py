"""Exact arithmetic primitives shared by every algorithm in the package.

All quantities are rationals over arbitrary-precision integers; nothing in
this package ever touches a float on a computation path.  The canonical
rational type is :class:`fractions.Fraction` (always stored reduced, positive
denominator).

The argument rule of every public function is here too: counts pass
:func:`exact_ints` and factors :func:`exact_factor`, and a list is not a
string, bytes or a mapping, or ``ValueError`` names them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from collections.abc import Collection, Iterable, Mapping


def floor_scale(units: int, rho: Fraction) -> int:
    """Greatest integer at most ``units * rho``, computed exactly.

    This is the bag size bought with ``units`` coins at robustness
    factor ``rho``.
    """
    exact_ints(1, units=units)
    rho = exact_factor(rho)
    return (units * rho.numerator) // rho.denominator


def ceil_div(amount: int, parts: int) -> int:
    """Smallest integer at least ``amount / parts``.

    With ``amount`` coins spread over ``parts`` machines, some machine
    holds at least this many coins (pigeonhole).
    """
    exact_ints(0, amount=amount)
    exact_ints(1, parts=parts)
    return _ceil_div(amount, parts)


def _ceil_div(amount: int, parts: int) -> int:
    """:func:`ceil_div` on checked arguments, for loops that checked them once."""
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
    if any(ch in text for ch in ".eE"):
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
    Booleans are rejected too, rather than read as 1 and 0, and so is any
    value ``Fraction()`` cannot read, with ``ValueError`` rather than its ``TypeError``.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ValueError(f"not an exact rational (floats are rejected): {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational (true/false are rejected): {value!r}")
    try:
        return Fraction(value)
    except (TypeError, OverflowError):  # None, a list, a complex; an infinite Decimal
        raise ValueError(f"not an exact rational: {value!r}") from None


def exact_ints(least: int | None = None, /, **values: int) -> None:
    """The count check: refuse any keyword value that is not an ``int``, or is below ``least``.

    Booleans are refused rather than read as 1 and 0, and floats even when integral.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and min(values.values()) < least:
        quantifier = ("", "both ", "all ")[min(len(values), 3) - 1]
        raise ValueError(f"{_listed(values)} must {quantifier}be >= {least}, "
                         f"got {_listed(map(str, values.values()))}")


def exact_factor(value: Fraction | int | str, name: str = "rho",
                 least: Fraction | int | None = None) -> Fraction:
    """The factor check: ``value`` through :func:`exact_rational`, above zero or at least ``least``."""
    value = exact_rational(value)
    if value <= 0 if least is None else value < least:
        raise ValueError(f"{name} must be {'positive' if least is None else f'>= {least}'}, got {value}")
    return value


def whole_numbers(values: Iterable[int | Fraction | str], name: str) -> list[int]:
    """``values`` as ints >= 0, each an int or read by :func:`exact_rational` with denominator 1."""
    _refuse_string(values, name)
    numbers = [value if type(value) is int else exact_rational(value) for value in values]
    for value in numbers:
        if value < 0 or value.denominator != 1:
            raise ValueError(f"{name} must be whole numbers, got {value}")
    return [int(value) for value in numbers]


def _refuse_string(values: Iterable, name: str) -> None:
    """The list check: a string, bytes or a mapping is refused rather than read by character, byte or key."""
    if isinstance(values, (str, bytes, bytearray, Mapping)):
        raise ValueError(f"{name} must be a list of values, got {type(values).__name__} {values!r}")


def _listed(items: Iterable[str]) -> str:
    """``a``, ``a and b``, or ``a, b and c``."""
    *init, last = items
    return f"{', '.join(init)} and {last}" if init else last


def format_rational(value: Fraction | int) -> str:
    """Serialize as ``"p/q"``, or just ``"p"`` for integral values; floats and booleans are refused."""
    value = exact_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_string(value: Fraction, places: int) -> str:
    """``value`` rounded half away from zero to ``places`` >= 0 digits; floats and booleans are refused.

    The sign is printed only when the rounded value is not zero: no ``-0``.
    """
    exact_ints(0, places=places)
    value = exact_rational(value)
    scaled = abs(value) * 10**places
    units = (scaled.numerator + scaled.denominator // 2) // scaled.denominator
    sign = "-" if value < 0 and units else ""
    digits = str(units).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"
