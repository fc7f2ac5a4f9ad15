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

from dataclasses import dataclass
from fractions import Fraction

from .model import Instance
from .numerics import _to_common_ints, exact_factor
from .sand import sand_bags


@dataclass(frozen=True)
class PebblesResult:
    """Outcome of a greedy packing run, reported in the caller's units."""

    bag_of_job: dict[int, int]
    bag_sizes: tuple[Fraction, ...]
    packed_all: bool


def pebble_ratio(instance: Instance) -> Fraction:
    """Largest job relative to the average machine load (the q of a q-pebbles instance)."""
    return max(instance.job_sizes) * instance.machine_count / instance.total


def reference_sequence(machines: int, bags: int) -> tuple[Fraction, ...]:
    """Bag sizes of the divisible-load optimum, normalized to total ``machines``.

    They satisfy a_k = rho - (1/machines) * sum(a_1..a_{k-1}) with rho the
    tight divisible-load robustness factor; the packing bound holds with
    equality on this sequence, and its partial sums are the floor that any
    successful greedy packing must dominate.
    """
    return sand_bags(machines, bags, machines).sizes


def pebbles_bags(instance: Instance, rho: Fraction) -> PebblesResult:
    """Pack jobs greedily into bags under the capacity bound at factor ``rho``.

    Jobs are taken in non-increasing order.  A job goes into the current bag
    unless that would push the bag past rho - (1/m) * (size of earlier bags),
    measured at the normalized scale where the total equals the machine
    count; then the next bag is tried.  ``packed_all`` is False when jobs
    remain after the last bag, the signal that ``rho`` was too small for this
    instance.

    The test runs on integers: with d the lcm of the job denominators, job j
    is X_j = p_j * d, T = sum(X_j), S is the current bag's sum and P the sum
    of the earlier bags.  At the normalized scale the job, the current bag and
    the earlier bags are X_j * m / T, S * m / T and P * m / T, so the test
    times T is m * (S + X_j) + P > rho * T; the left side is an integer, so
    this is m * (S + X_j) + P > floor(rho * T).  Bag sizes are S / d.
    """
    rho = exact_factor(rho, least=1)
    m, b = instance.machine_count, instance.bag_count
    scaled, d = _to_common_ints(instance.job_sizes)
    cap = rho.numerator * sum(scaled) // rho.denominator

    bag_of_job: dict[int, int] = {}
    sizes = [0] * b
    prefix = 0  # total of the bags strictly before the current one
    k = 0
    for j, x in enumerate(scaled):
        while k < b and m * (sizes[k] + x) + prefix > cap:
            prefix += sizes[k]
            k += 1
        if k >= b:
            break
        bag_of_job[j] = k
        sizes[k] += x

    return PebblesResult(
        bag_of_job=bag_of_job,
        bag_sizes=tuple(Fraction(s, d) for s in sizes),
        packed_all=len(bag_of_job) == len(scaled),
    )


def _unit_pebbles(jobs: int, machines: int, bags: int, rho: Fraction) -> list[int]:
    """Bag sizes, in packing order, of :func:`pebbles_bags` on ``jobs`` unit jobs, in O(bags).

    With unit jobs, d = 1 and T = jobs, so with cap = floor(rho * jobs) bag k
    takes jobs while m * (S + 1) + P <= cap: it gets (cap - P) // m of the
    jobs left, where P is the sum of the earlier bags.  P never exceeds cap,
    because each bag keeps m * S + P <= cap.  The jobs are all packed iff the
    sizes sum to ``jobs``.  ``rho`` is a Fraction >= 1, as for
    :func:`pebbles_bags`.
    """
    cap = rho.numerator * jobs // rho.denominator
    sizes = []
    left, prefix = jobs, 0
    for _ in range(bags):
        s = min(left, (cap - prefix) // machines)
        sizes.append(s)
        left -= s
        prefix += s
    return sizes
