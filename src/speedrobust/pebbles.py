"""Greedy bag packing for jobs that are small relative to the average load.

Jobs are packed largest-first into the current bag while the capacity-style
bound allows it, then into the next bag; the bound is stated at the scale
where the total equals the machine count.  The packing runs on integers:
jobs are scaled by the lcm of their denominators, and the bound, scaled the
same way, is compared as an integer.  If every job is at most q times the
average machine load, running at the divisible-load optimum plus q is
guaranteed to pack everything.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .model import Instance
from .numerics import _to_common_ints, exact_factor


@dataclass(frozen=True)
class PebblesResult:
    """Outcome of a greedy packing run, reported in the caller's units.

    Bag k holds ``job_sizes[bag_ends[k - 1]:bag_ends[k]]`` (from 0 for k = 0), so
    job j sits in bag ``bisect_right(bag_ends, j)``; jobs from ``bag_ends[-1]`` on are unpacked.
    """

    bag_ends: tuple[int, ...]
    bag_sizes: tuple[Fraction, ...]
    packed_all: bool


def pebble_ratio(instance: Instance) -> Fraction:
    """Largest job relative to the average machine load (the q of a q-pebbles instance)."""
    return max(instance.job_sizes) * instance.machine_count / sum(instance.job_sizes)


def _pack(prefix: Sequence[int], machines: int, bags: int, rho: Fraction) -> list[int]:
    """Where each bag ends, as indices into ``prefix``, the jobs' running sums.

    The jobs are non-negative integers X_j with total T = prefix[-1].  Bag k
    starts at job i, after earlier bags of sum P = prefix[i].  At the scale
    where the total is m, a job goes into the bag (sum S) unless
    m * (S + X_j) / T > rho - P / T, that is unless m * (S + X_j) + P > cap
    with cap = floor(rho * T), since the left side is an integer.  So the bag
    takes the longest run with S <= (cap - P) // m, which one bisection
    finds, as the running sums never fall.  P never exceeds cap, since each
    bag keeps m * S + P <= cap, so the run is never negative.  Unit jobs
    pass ``range(n + 1)``, which bisect reads without building a list:
    O(bags log n) steps.
    """
    cap = rho.numerator * prefix[-1] // rho.denominator
    ends = []
    i = 0
    for _ in range(bags):
        p = prefix[i]
        i = bisect_right(prefix, p + (cap - p) // machines, i) - 1
        ends.append(i)
    return ends


def pebbles_bags(instance: Instance, rho: Fraction) -> PebblesResult:
    """Pack jobs greedily into bags under the capacity bound at factor ``rho``.

    Jobs are taken in non-increasing order.  A job goes into the current bag
    unless that would push the bag past rho - (1/m) * (size of earlier bags),
    measured at the normalized scale where the total equals the machine
    count; then the next bag is tried.  ``packed_all`` is False when jobs
    remain after the last bag, the signal that ``rho`` was too small for this
    instance.  The jobs are scaled to integers by the lcm d of their
    denominators and packed by :func:`_pack`; bag sizes are the scaled sums
    divided by d.
    """
    rho = exact_factor(rho, least=1)
    scaled, d = _to_common_ints(instance.job_sizes)
    prefix = list(accumulate(scaled, initial=0))
    ends = _pack(prefix, instance.machine_count, instance.bag_count, rho)
    sizes = tuple(Fraction(prefix[e] - prefix[s], d) for s, e in zip([0] + ends, ends))
    return PebblesResult(bag_ends=tuple(ends), bag_sizes=sizes, packed_all=ends[-1] == len(scaled))
