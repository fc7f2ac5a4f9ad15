"""Bag construction for infinitesimally divisible load, and its adversary.

The optimal construction splits the total load into bags whose sizes follow
a geometric integer skeleton; the matching adversary is a small family of
speed configurations with one fast machine and identical slow ones.  Both are
computed here exactly, together with a probe that measures how well an
arbitrary bag profile survives that adversary family.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .model import BagProfile, ScaleMismatch, SizeLimit, SpeedProfile
from .numerics import _to_common_ints, exact_factor, exact_ints
from .second_stage import _check_oracle_size, _search_min_makespan


@dataclass(frozen=True)
class GeometricSkeleton:
    """Integer skeleton behind the optimal sand bag sizes.

    ``weights[j]`` is machines**(bags-1-j) * (machines-1)**j; ``scale`` is
    machines**bags and is what every adversary configuration sums to;
    ``weight_total`` is scale - (machines-1)**bags, the sum of all weights.
    Prefix sums obey  sum(weights[:k]) == scale - (machines-1)*weights[k-1].
    """

    machines: int
    bags: int
    weights: tuple[int, ...]
    scale: int
    weight_total: int


def _check_printable_scale(machines: int, bags: int) -> None:
    """Refuse a scale machines**bags with more decimal digits than str() allows.

    The power is below 2**(bags * bit_length), so at most 3 * limit bits is
    under 10**limit.  Past that, when bags * (bit_length - 1) reaches the bit
    length of 10**limit the power is too large without being computed;
    otherwise it has fewer than twice that many bits and is compared exactly.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or bags * machines.bit_length() <= 3 * limit:
        return
    bound = 10**limit
    if bags * (machines.bit_length() - 1) >= bound.bit_length() or machines**bags >= bound:
        raise SizeLimit(f"scale {machines}**{bags} has more than {limit} decimal digits")


def geometric_skeleton(machines: int, bags: int) -> GeometricSkeleton:
    exact_ints(1, machines=machines, bags=bags)
    _check_printable_scale(machines, bags)
    # weights[j + 1] = weights[j] * (machines - 1) / machines, exact while
    # machines divides the weight, which holds for every weight kept
    weights = []
    w = machines ** (bags - 1)
    for _ in range(bags):
        weights.append(w)
        w = w // machines * (machines - 1)
    scale = machines**bags
    return GeometricSkeleton(machines, bags, tuple(weights), scale, scale - (machines - 1) ** bags)


def sand_robustness(machines: int, bags: int) -> Fraction:
    """Tight robustness factor for divisible load: scale over weight_total.

    That is m**b / (m**b - (m - 1)**b), computed without the skeleton's
    weights.  Equals 1 for a single machine, never exceeds ``machines``, and
    for bags == machines increases toward e/(e-1) as machines grows.
    """
    exact_ints(1, machines=machines, bags=bags)
    _check_printable_scale(machines, bags)
    scale = machines**bags
    return Fraction(scale, scale - (machines - 1) ** bags)


def sand_bags(machines: int, bags: int, total: Fraction | int) -> BagProfile:
    """Optimal bag sizes for divisible load: weights rescaled to sum to ``total``.

    The skeleton keeps all ``machines`` even with fewer bags: the clairvoyant
    optimum spreads the load over every machine, so reducing the machine
    count to ``bags`` would miss the ``sand_robustness(machines, bags)`` factor.

    Sizes follow the weights' running product: each is the one before times
    (machines-1)/machines, a Fraction product whose reductions are gcds
    against machines and machines-1 only, so past the first size no gcd is
    taken between two big numbers.  The sizes are non-increasing and
    non-negative by construction, so the profile skips the checks and
    re-sort of ``BagProfile``.
    """
    total = exact_factor(total, "total")
    sk = geometric_skeleton(machines, bags)
    ratio = Fraction(machines - 1, machines)
    sizes = [total * Fraction(sk.weights[0], sk.weight_total)]
    for _ in range(bags - 1):
        sizes.append(sizes[-1] * ratio)
    return BagProfile._trusted(tuple(sizes))


def _adversary_speeds(sk: GeometricSkeleton) -> Iterator[list[int]]:
    """Integer speeds of each adversary configuration, non-increasing.

    Configuration k has one fast machine of speed scale - (machines-1) *
    weights[k] and machines-1 slow machines of speed weights[k]; every
    configuration sums to scale.  A single machine faces one configuration.
    """
    if sk.machines == 1:
        yield [sk.scale]
        return
    for w in sk.weights:
        yield [sk.scale - (sk.machines - 1) * w] + [w] * (sk.machines - 1)


def adversary_configs(machines: int, bags: int) -> list[SpeedProfile]:
    """The adversary's speed configurations, one per bag index (see ``_adversary_speeds``)."""
    return [SpeedProfile(speeds) for speeds in _adversary_speeds(geometric_skeleton(machines, bags))]


def _scaled_profile(machines: int, bags: int,
                    profile: BagProfile | None) -> tuple[GeometricSkeleton, list[int], int]:
    """The checks of :func:`adversary_optima` and :func:`lower_bound_probe`, and the scaled profile.

    The oracle's size caps are checked before the skeleton is built.
    ``profile`` defaults to the sand profile at the skeleton scale; any other
    value must be a ``BagProfile`` (ValueError otherwise) with ``bags`` sizes
    summing to the scale.  Returns the skeleton and the positive sizes, in
    non-increasing order, times their common denominator, with that
    denominator.
    """
    exact_ints(1, machines=machines, bags=bags)
    if profile is not None and not isinstance(profile, BagProfile):
        raise ValueError(f"profile must be a BagProfile, got {type(profile).__name__}")
    _check_oracle_size(bags, machines)
    sk = geometric_skeleton(machines, bags)
    if profile is None:
        profile = sand_bags(machines, bags, sk.scale)
    if len(profile.sizes) != bags:
        raise ScaleMismatch(f"profile has {len(profile.sizes)} bags, expected {bags}")
    scaled, denom = _to_common_ints(profile.sizes)
    if sum(scaled) != sk.scale * denom:
        raise ScaleMismatch(f"profile sums to {Fraction(sum(scaled), denom)}, expected scale {sk.scale}")
    return sk, [a for a in scaled if a], denom


def adversary_optima(machines: int, bags: int, profile: BagProfile | None = None) -> list[Fraction]:
    """Optimal second-stage makespan of ``profile`` on each adversary configuration.

    ``profile`` defaults to the sand profile at the skeleton scale.  The
    profile is scaled to integers once; each configuration is searched on
    its integer speeds directly.
    """
    sk, sizes, denom = _scaled_profile(machines, bags, profile)
    optima = []
    for speeds in _adversary_speeds(sk):
        time, unit, _ = _search_min_makespan(sizes, speeds)
        optima.append(Fraction(time, unit * denom))
    return optima


def lower_bound_probe(machines: int, bags: int, profile: BagProfile) -> Fraction:
    """Worst optimal second-stage makespan of ``profile`` over the adversary family.

    The caller must rescale the profile to sum to the skeleton scale (every
    adversary configuration sums to that, so the clairvoyant optimum is 1 and
    the returned makespan is directly a robustness ratio).  For the optimal
    sand profile the result is exactly the tight robustness factor; for any
    other profile it can only be larger.  Raises SizeLimit beyond the
    oracle's caps (16 bags, 8 machines).

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
    sk, sizes, denom = _scaled_profile(machines, bags, profile)
    configs = list(_adversary_speeds(sk))
    total = sk.scale * denom
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
