"""Reference computations the checkers compare the library against.

Everything here is written from the definitions in the paper and shares no
code with ``speedrobust``: a result that agrees with these functions was
computed twice, by two routes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def sand_bound(machines: int, bags: int) -> Fraction:
    """Tight divisible-load factor m**b / (m**b - (m-1)**b)."""
    scale = machines**bags
    return Fraction(scale, scale - (machines - 1) ** bags)


def coin_total(jobs: int, machines: int, rho: Fraction) -> int:
    """Total bag size of the coin construction with ``machines`` bags.

    Each bag costs ceil(coins / machines) of the coins still held and has
    size floor(cost * rho).
    """
    coins, total = jobs, 0
    for _ in range(machines):
        cost = -(-coins // machines)
        total += cost * rho.numerator // rho.denominator
        coins -= cost
    return total


def partition_counts(total_max: int, parts_max: int) -> list[list[int]]:
    """counts[n][k]: partitions of n into at most k parts, for n <= total_max.

    Uses p(n, k) = p(n, k-1) + p(n-k, k): either fewer than k parts, or
    exactly k parts, from which one can be taken off each part.
    """
    counts = [[1] * (parts_max + 1)] + [[0] * (parts_max + 1) for _ in range(total_max)]
    for n in range(1, total_max + 1):
        for k in range(1, parts_max + 1):
            counts[n][k] = counts[n][k - 1] + (counts[n - k][k] if n >= k else 0)
    return counts


def partitions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Non-increasing tuples of exactly ``parts`` non-negative ints summing to ``total``."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], left: int, cap: int) -> None:
        if len(prefix) == parts:
            if left == 0:
                out.append(tuple(prefix))
            return
        for first in range(min(cap, left), -1, -1):
            if first * (parts - len(prefix)) < left:
                break
            prefix.append(first)
            extend(prefix, left - first, first)
            prefix.pop()

    extend([], total, total)
    return out


def makespan(owners, bags, speeds) -> Fraction | None:
    """Largest load over speed; None if a positive bag sits on a speed-0 machine."""
    loads = [Fraction(0)] * len(speeds)
    for bag, machine in zip(bags, owners):
        loads[machine] += bag
    worst = Fraction(0)
    for load, speed in zip(loads, speeds):
        if speed == 0:
            if load > 0:
                return None
        else:
            worst = max(worst, load / speed)
    return worst


def largest_first(bags, speeds) -> Fraction:
    """Makespan of placing bags largest-first where each finishes earliest."""
    loads = [Fraction(0)] * len(speeds)
    live = [i for i, s in enumerate(speeds) if s > 0]
    for bag in sorted(bags, reverse=True):
        i = min(live, key=lambda j: (loads[j] + bag) / speeds[j])
        loads[i] += bag
    return max(loads[i] / speeds[i] for i in live)


def brute_force(bags, speeds) -> Fraction:
    """Minimum makespan over every assignment of bags to machines."""
    values = (makespan(owners, bags, speeds)
              for owners in itertools.product(range(len(speeds)), repeat=len(bags)))
    return min(v for v in values if v is not None)
