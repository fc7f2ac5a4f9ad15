"""Bag construction for infinitesimally divisible load, and its adversary.

The optimal construction splits the total load into bags whose sizes follow
the geometric weights w_j = m**(b-1-j) * (m-1)**j; the matching adversary is
a small family of speed configurations with one fast machine and m - 1 slow
ones running at those weights.  Both are computed here exactly, together
with a probe that measures how well an arbitrary bag profile survives that
adversary family.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .model import BagProfile, ScaleMismatch, SizeLimit, SpeedProfile
from .numerics import _to_common_ints, exact_factor, exact_ints
from .second_stage import _check_oracle_size, _search_min_makespan


def _check_printable_scale(machines: int, bags: int) -> None:
    """Refuse a scale machines**bags with more decimal digits than str() allows.

    The power is below 2**(bags * bit_length), so at most 3 * limit bits is
    under 10**limit.  Past that, when bags * (bit_length - 1) reaches the bit
    length of 10**limit the power is too large without being computed;
    otherwise it has fewer than twice that many bits and is compared exactly.
    A single machine's scale is 1, but its profile still holds ``bags``
    entries, so it is refused the bag counts two machines are, and the
    refusal names its bag count.  A limit of 0 lifts str()'s check but not
    the cost of computing the scale, so it reads as Python's default of 4,300
    digits, as does a Python before 3.10.7, which has no limit to read.
    """
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
             or getattr(sys.int_info, "default_max_str_digits", 4300))
    base = max(machines, 2)
    if bags * base.bit_length() <= 3 * limit:
        return
    bound = 10**limit
    if bags * (base.bit_length() - 1) >= bound.bit_length() or base**bags >= bound:
        if machines == 1:
            raise SizeLimit(f"{bags} bags on a single machine: it takes the bag counts whose "
                            f"two-machine scale has at most {limit} decimal digits")
        raise SizeLimit(f"scale {machines}**{bags} has more than {limit} decimal digits")


def sand_robustness(machines: int, bags: int) -> Fraction:
    """Tight robustness factor for divisible load: the scale over the weights' sum.

    That is m**b / (m**b - (m - 1)**b), computed without the weights.
    Equals 1 for a single machine, at any bag count and with no scale to
    check, never exceeds ``machines``, and for bags == machines increases
    toward e/(e-1) as machines grows.
    """
    exact_ints(1, machines=machines, bags=bags)
    if machines == 1:
        return Fraction(1)
    _check_printable_scale(machines, bags)
    scale = machines**bags
    return Fraction(scale, scale - (machines - 1) ** bags)


def sand_bags(machines: int, bags: int, total: Fraction | int) -> BagProfile:
    """Optimal bag sizes for divisible load: the weights rescaled to sum to ``total``.

    The weights keep all ``machines`` even with fewer bags: the clairvoyant
    optimum spreads the load over every machine, so reducing the machine
    count to ``bags`` would miss the ``sand_robustness(machines, bags)`` factor.

    The first size is total * m**(b-1) / (m**b - (m-1)**b), the first weight
    over the weights' sum, so the weights are not built.  Each later size is the
    one before times (machines-1)/machines, a Fraction product whose
    reductions are gcds against machines and machines-1 only, so past the
    first size no gcd is taken between two big numbers.  The sizes are
    non-increasing and non-negative by construction, so the profile skips
    the checks and re-sort of ``BagProfile``.  Bag counts are bounded by
    the printable scale, a single machine's like two machines'.
    """
    total = exact_factor(total, "total")
    exact_ints(1, machines=machines, bags=bags)
    _check_printable_scale(machines, bags)
    ratio = Fraction(machines - 1, machines)
    sizes = [total * Fraction(machines ** (bags - 1), machines**bags - (machines - 1) ** bags)]
    for _ in range(bags - 1):
        sizes.append(sizes[-1] * ratio)
    return BagProfile._trusted(tuple(sizes))


def _adversary_speeds(machines: int, bags: int) -> Iterator[list[int]]:
    """Integer speeds of each adversary configuration, non-increasing.

    The slow speed of configuration j is the weight
    w_j = machines**(bags-1-j) * (machines-1)**j, a running product
    w <- w // machines * (machines-1), exact while machines divides the
    weight, which holds for every weight kept.  The weights sum to
    machines**bags - (machines-1)**bags, and their prefix sums obey
    w_0 + ... + w_{k-1} == machines**bags - (machines-1) * w_{k-1}.
    Configuration j has one fast machine of speed
    machines**bags - (machines-1) * w_j and machines-1 slow machines of
    speed w_j, so every configuration sums to the scale machines**bags.
    A single machine faces one configuration.  The caller checks the counts
    and the scale.
    """
    scale = machines**bags
    if machines == 1:
        yield [scale]
        return
    w = machines ** (bags - 1)
    for _ in range(bags):
        yield [scale - (machines - 1) * w] + [w] * (machines - 1)
        w = w // machines * (machines - 1)


def adversary_configs(machines: int, bags: int) -> list[SpeedProfile]:
    """The adversary's speed configurations, one per bag index (see ``_adversary_speeds``).

    Bag counts are bounded as for :func:`sand_bags`, a single machine's like
    two machines'.
    """
    exact_ints(1, machines=machines, bags=bags)
    _check_printable_scale(machines, bags)
    return [SpeedProfile(speeds) for speeds in _adversary_speeds(machines, bags)]


def lower_bound_probe(machines: int, bags: int, profile: BagProfile | None = None) -> Fraction:
    """Worst optimal second-stage makespan of ``profile`` over the adversary family.

    ``profile`` defaults to the sand profile; any other must be a
    ``BagProfile`` (ValueError otherwise) of ``bags`` sizes summing to the
    scale machines**bags (ScaleMismatch otherwise).  Every adversary
    configuration sums to that scale, so the clairvoyant optimum is 1 and
    the returned makespan is directly a robustness ratio.  For the optimal
    sand profile the result is exactly the tight robustness factor; for any
    other profile it can only be larger.  Raises SizeLimit beyond the
    oracle's caps (16 bags, 8 machines) before it builds anything.
    """
    exact_ints(1, machines=machines, bags=bags)
    if profile is not None and not isinstance(profile, BagProfile):
        raise ValueError(f"profile must be a BagProfile, got {type(profile).__name__}")
    _check_oracle_size(bags, machines)
    scale = machines**bags
    profile = sand_bags(machines, bags, scale) if profile is None else profile
    if len(profile.sizes) != bags:
        raise ScaleMismatch(f"profile has {len(profile.sizes)} bags, expected {bags}")
    scaled, denom = _to_common_ints(profile.sizes)
    if sum(scaled) != scale * denom:
        raise ScaleMismatch(f"profile sums to {Fraction(sum(scaled), denom)}, expected scale {scale}")
    return _probe([a for a in scaled if a], list(_adversary_speeds(machines, bags)), denom)


def _probe(sizes: list[int], configs: list[list[int]], denom: int) -> Fraction:
    """Greatest optimum over ``configs`` of positive non-increasing ``sizes`` / ``denom`` summing to m**b.

    Only the maximum is needed, so the probe keeps a running maximum M as
    an integer pair and never searches further than M requires:

    1. M starts at the largest lower bound on some configuration's optimum:
       the fluid bound total / scale, and for each configuration and each
       j <= min(#sizes, machines) the prefix bound A_j / S_j, with A_j the
       sum of the j largest sizes and S_j of the configuration's j fastest
       speeds (the j largest bags sit on at most j machines, which carry at
       least A_j on at most S_j of speed).
    2. A configuration with total / speeds[0] <= M is skipped: every bag on
       its fastest machine finishes by then, so its optimum is at most M.
    3. Any other configuration is searched with M as the stop threshold (see
       ``second_stage._search_min_makespan``): the search returns the exact
       optimum when that is above M, and otherwise a makespan at or below M.

    So M only ever takes a bound or an optimum, both at most the greatest
    optimum, and after a configuration is skipped or searched M is at least
    its optimum.  The result is the greatest optimum exactly.
    """
    total = sum(sizes)
    top, unit = denom, 1  # the fluid bound total / scale, since every configuration sums to the scale
    prefixes = list(accumulate(sizes))
    for speeds in configs:
        for a, s in zip(prefixes, accumulate(speeds)):
            if a * unit > top * s:
                top, unit = a, s
    for speeds in configs:
        if total * unit <= top * speeds[0]:
            continue
        time, time_unit, _ = _search_min_makespan(sizes, speeds, (top, unit))
        if time * unit > top * time_unit:
            top, unit = time, time_unit
    return Fraction(top, unit * denom)
