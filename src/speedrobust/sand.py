"""Bag construction for infinitesimally divisible load, and its adversary.

The optimal construction splits the total load into bags whose sizes follow
a geometric integer skeleton; the matching adversary is a small family of
speed configurations with one fast machine and identical slow ones.  Both are
computed here exactly, together with a probe that measures how well an
arbitrary bag profile survives that adversary family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import BagProfile, ScaleMismatch, SpeedProfile
from .second_stage import optimal_second_stage


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


def geometric_skeleton(machines: int, bags: int) -> GeometricSkeleton:
    if machines < 1 or bags < 1:
        raise ValueError("machines and bags must both be >= 1")
    weights = tuple(machines ** (bags - j) * (machines - 1) ** (j - 1) for j in range(1, bags + 1))
    scale = machines**bags
    return GeometricSkeleton(machines, bags, weights, scale, scale - (machines - 1) ** bags)


def sand_robustness(machines: int, bags: int) -> Fraction:
    """Tight robustness factor for divisible load: scale over weight_total.

    Equals 1 for a single machine, never exceeds ``machines``, and for
    bags == machines increases toward e/(e-1) as machines grows.
    """
    sk = geometric_skeleton(machines, bags)
    return Fraction(sk.scale, sk.weight_total)


def sand_bags(machines: int, bags: int, total: Fraction | int) -> BagProfile:
    """Optimal bag sizes for divisible load: weights rescaled to sum to ``total``.

    The skeleton keeps all ``machines`` even with fewer bags: the clairvoyant
    optimum spreads the load over every machine, so reducing the machine
    count to ``bags`` would miss the ``sand_robustness(machines, bags)`` factor.
    """
    total = Fraction(total)
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    sk = geometric_skeleton(machines, bags)
    return BagProfile([Fraction(w, sk.weight_total) * total for w in sk.weights])


def adversary_configs(machines: int, bags: int) -> list[SpeedProfile]:
    """The adversary's speed configurations, one per bag index.

    Configuration k has one fast machine of speed scale - (machines-1) *
    weights[k] and machines-1 slow machines of speed weights[k]; every
    configuration sums to scale.
    """
    sk = geometric_skeleton(machines, bags)
    if machines == 1:
        return [SpeedProfile([sk.scale])]
    configs = []
    for w in sk.weights:
        fast = sk.scale - (machines - 1) * w
        configs.append(SpeedProfile([fast] + [w] * (machines - 1)))
    return configs


def lower_bound_probe(machines: int, bags: int, profile: BagProfile) -> Fraction:
    """Worst optimal second-stage makespan of ``profile`` over the adversary family.

    The caller must rescale the profile to sum to the skeleton scale (every
    adversary configuration sums to that, so the clairvoyant optimum is 1 and
    the returned makespan is directly a robustness ratio).  For the optimal
    sand profile the result is exactly the tight robustness factor; for any
    other profile it can only be larger.
    """
    sk = geometric_skeleton(machines, bags)
    if len(profile.sizes) != bags:
        raise ScaleMismatch(f"profile has {len(profile.sizes)} bags, expected {bags}")
    if profile.total != sk.scale:
        raise ScaleMismatch(f"profile sums to {profile.total}, expected scale {sk.scale}")
    worst = Fraction(0)
    for config in adversary_configs(machines, bags):
        best, _ = optimal_second_stage(profile, config)
        worst = max(worst, best)
    return worst
