"""Core domain types: instances, bag/speed profiles, assignments, makespan.

All value types are immutable and store exact rationals in canonical
non-increasing order (constructors sort).  Assignments are 0-based machine
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .numerics import _refuse_string, exact_ints, exact_rational


class InvalidAssignment(ValueError):
    """An assignment puts a positive-size bag on a speed-0 machine (or is malformed)."""


class ScaleMismatch(ValueError):
    """Inputs were not normalized to the scale the operation requires."""


class SizeLimit(ValueError):
    """Exact-search input exceeds the enforced desk-scale bounds."""


class Infeasible(ValueError):
    """No valid result exists for the given inputs."""


def _sorted_fractions(values: Iterable[Fraction | int | str], name: str) -> tuple[Fraction, ...]:
    _refuse_string(values, name)
    out = []
    for v in values:
        f = exact_rational(v)
        if f < 0:
            raise ValueError(f"negative value not allowed: {f}")
        out.append(f)
    return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class Instance:
    """A first-stage input: job processing times plus the machine and bag counts."""

    job_sizes: tuple[Fraction, ...]
    machine_count: int
    bag_count: int

    def __init__(self, job_sizes: Iterable[Fraction | int | str], machine_count: int, bag_count: int):
        exact_ints(1, machine_count=machine_count, bag_count=bag_count)
        sizes = _sorted_fractions(job_sizes, "job_sizes")
        # non-negative and non-increasing: the total is positive iff the first size is
        if not sizes or sizes[0] == 0:
            raise ValueError("total processing time must be positive")
        object.__setattr__(self, "job_sizes", sizes)
        object.__setattr__(self, "machine_count", machine_count)
        object.__setattr__(self, "bag_count", bag_count)


@dataclass(frozen=True)
class BagProfile:
    """Bag sizes committed by a first-stage algorithm, non-increasing; zeros allowed."""

    sizes: tuple[Fraction, ...]

    def __init__(self, sizes: Iterable[Fraction | int | str]):
        object.__setattr__(self, "sizes", _sorted_fractions(sizes, "sizes"))

    @classmethod
    def _trusted(cls, sizes: tuple[Fraction, ...]) -> BagProfile:
        """A profile of ``sizes`` as given, unchecked and unsorted.

        The caller guarantees what ``__init__`` would establish: a tuple of
        non-negative Fractions, non-increasing.
        """
        profile = object.__new__(cls)
        object.__setattr__(profile, "sizes", sizes)
        return profile


@dataclass(frozen=True)
class SpeedProfile:
    """Machine speeds revealed in the second stage, non-increasing, not all zero."""

    speeds: tuple[Fraction, ...]

    def __init__(self, speeds: Iterable[Fraction | int | str]):
        values = _sorted_fractions(speeds, "speeds")
        if not values or all(s == 0 for s in values):
            raise ValueError("speeds must contain at least one positive value")
        object.__setattr__(self, "speeds", values)

    @classmethod
    def _trusted(cls, speeds: tuple[Fraction, ...]) -> SpeedProfile:
        """A profile of ``speeds`` as given, unchecked and unsorted.

        The caller guarantees what ``__init__`` would establish: a tuple of
        non-negative Fractions, non-increasing, not all zero.
        """
        profile = object.__new__(cls)
        object.__setattr__(profile, "speeds", speeds)
        return profile


@dataclass(frozen=True)
class Assignment:
    """For each bag index, the 0-based machine index it was sent to."""

    machine_of_bag: tuple[int, ...]

    def __init__(self, machine_of_bag: Iterable[int]):
        _refuse_string(machine_of_bag, "machine_of_bag")
        owners = tuple(machine_of_bag)
        if any(isinstance(i, bool) or not isinstance(i, int) for i in owners):
            raise InvalidAssignment(f"machine indices must be integers, got {owners}")
        if any(i < 0 for i in owners):
            raise InvalidAssignment("machine indices must be non-negative")
        object.__setattr__(self, "machine_of_bag", owners)


@dataclass
class FractionalSolution:
    """Bag counts indexed by bag cost: ``counts[z]`` bags of cost ``z`` each.

    Counts may be fractional and must be non-negative; the sum of counts is
    at most the bag budget, with equality unless the generator ran out of
    coins before using all bags (then the shortfall stands for empty bags,
    which have no cost and cannot be keyed here).
    """

    counts: dict[int, Fraction]
    bag_budget: Fraction

    def __init__(self, counts: Mapping[int, Fraction | int], bag_budget: Fraction | int):
        budget = exact_rational(bag_budget)
        clean: dict[int, Fraction] = {}
        for z, x in counts.items():
            exact_ints(1, cost=z)
            fx = exact_rational(x)
            if fx < 0:
                raise ValueError(f"negative bag count for cost {z}: {fx}")
            if fx:
                clean[z] = fx
        if sum(clean.values(), Fraction(0)) > budget:
            raise ValueError("bag counts exceed the bag budget")
        self.counts = clean
        self.bag_budget = budget

    @classmethod
    def _trusted(cls, counts: dict[int, Fraction], bag_budget: Fraction) -> FractionalSolution:
        """A solution of ``counts`` and ``bag_budget`` as given, unchecked.

        The caller guarantees what ``__init__`` would establish: int costs >= 1
        mapped to positive Fraction counts, summing to at most the Fraction budget.
        """
        solution = object.__new__(cls)
        solution.counts = counts
        solution.bag_budget = bag_budget
        return solution


def makespan(assignment: Assignment, bags: BagProfile, speeds: SpeedProfile) -> Fraction:
    """Largest machine completion time (assigned size over speed) of an assignment.

    Machines of speed 0 accept only zero-size bags; a positive bag there makes
    the assignment invalid.
    """
    if len(assignment.machine_of_bag) != len(bags.sizes):
        raise InvalidAssignment(
            f"assignment covers {len(assignment.machine_of_bag)} bags, profile has {len(bags.sizes)}"
        )
    loads = [Fraction(0)] * len(speeds.speeds)
    for bag, machine in enumerate(assignment.machine_of_bag):
        if machine >= len(speeds.speeds):
            raise InvalidAssignment(f"bag {bag} assigned to unknown machine {machine}")
        loads[machine] += bags.sizes[bag]
    worst = Fraction(0)
    for load, speed in zip(loads, speeds.speeds):
        if speed == 0:
            if load > 0:
                raise InvalidAssignment("positive-size bag assigned to a speed-0 machine")
            continue
        worst = max(worst, load / speed)
    return worst

