"""Coin-accounting bag construction for unit jobs, plus its analysis toolkit.

A bag's cost is the number of coins paid for it, the pigeonhole guarantee
ceil(coins / machines); its size is floor(cost * rho).  The module carries the
whole apparatus built around that scheme: the cost-indexed and fractional
solution generators, the transformation factor that prices rounding a
fractional solution to an integral one, the normalized surplus with its
piecewise-linear breakpoint structure, and the dispatcher that switches to
the pebbles packing once jobs per machine exceed 60.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub, truediv

from .model import BagProfile, FractionalSolution, Infeasible, SizeLimit, _require
from .numerics import _ceil_div, _to_common_ints, exact_factor, exact_ints
from .pebbles import _pack
from .sand import sand_robustness

BRICK_ROBUSTNESS = Fraction(8, 5)

PEBBLES_CUTOVER = 60  # jobs-per-machine ratio above which the dispatcher switches
_SOLUTION = (FractionalSolution,)  # bound at import, see model._require


@dataclass(frozen=True)
class BrickSolution:
    """Bags produced by the coin-accounting construction for unit jobs.

    ``successful`` means the sizes total at least the job count, i.e. every
    job fits after trimming.
    """

    bag_sizes: tuple[int, ...]
    bag_costs: tuple[int, ...]
    total_size: int
    successful: bool


@dataclass(frozen=True)
class SurplusPoint:
    """A vertex of the piecewise-linear normalized surplus function.

    ``dropped_cost`` names the bag cost whose count reaches zero at this
    point; it is None at the integer vertices, where instead the largest bag
    cost steps up.
    """

    lam: Fraction
    surplus: Fraction
    dropped_cost: int | None = None


def _coin_levels(coins, machines, bags, count):
    """Yield the coin recurrence's (cost, count) levels until bags or coins run out.

    Cost z = ceil(coins / machines) is paid for ``count(coins - machines * (z - 1), z)``
    bags: ceiling division gives the integral construction, exact division its
    fractional relaxation.
    """
    while bags > 0 and coins > 0:
        z = -(-coins // machines)
        x = min(bags, count(coins - machines * (z - 1), z))
        yield z, x
        bags -= x
        coins -= x * z


def _coin_totals(machines: int, top: int, rho_num: int, rho_den: int) -> list[int]:
    """Total size of the integral coin construction with b = m, for every job count 0..``top``.

    Entry n equals solution_size(bricks_by_cost(n, machines, machines), rho)
    for rho = rho_num / rho_den, in plain integers, from one pass over the
    coin counts instead of one recurrence per n.

    Per bag: a bag paid from c coins costs z = ceil(c / m) and leaves
    f(c) = c - z.  A level of cost z pays x = ceil((c - m(z - 1)) / z) bags, and
    each of them leaves more than m(z - 1) coins but the last, so the ceiling
    stays z within the level: ``_coin_levels`` is f applied one bag at a time.
    Let S(c) = S(f(c)) + floor(ceil(c / m) * rho) with S(0) = 0, the size the
    bags from c pay until the coins run out.  The m bags from n then total
    S(n) - S(F(n)), where F(n) = f^m(n) is the count left after them.

    F has unit steps.  ceil(c / m) steps up exactly at c = 1 (mod m), so
    f(c) - f(c - 1) = 1 - [c = 1 (mod m)], and along the paths of n and n - 1
    the counts stay one apart until n's path meets a count = 1 (mod m), then
    coincide.  So F(n) - F(n - 1) = 1 exactly when none of the first m counts
    on n's path is 1 (mod m).  ``run[c]`` counts the counts on c's path before
    the first such one: 0 at the first count m(z - 1) + 1 of each level, and
    run[f(c)] + 1 otherwise.  F is the running sum of [run >= m].
    """
    m = machines
    size = [0] * (top + 1)
    run = [0] * (top + 1)
    for z in range(1, -(-top // m) + 1):
        unit = (z * rho_num) // rho_den  # floor(z * rho), the size of one bag of cost z
        first = m * (z - 1) + 1
        size[first] = size[first - z] + unit
        for c in range(first + 1, min(first + m, top + 1)):
            size[c] = size[c - z] + unit
            run[c] = run[c - z] + 1
    return list(map(sub, size, map(size.__getitem__, accumulate(map(m.__le__, run)))))


def bricks_bags(jobs: int, machines: int, bags: int, rho: Fraction) -> BrickSolution:
    """Build ``bags`` bags for ``jobs`` unit jobs by iterated coin payment.

    Each round pays cost z = ceil(remaining / machines) for a bag of size
    floor(z * rho).  Once the coins run out, the remaining bags are emitted
    with cost 0 and size 0 so the profile keeps its full length.
    """
    exact_ints(1, jobs=jobs, machines=machines, bags=bags)
    rho = exact_factor(rho, least=1)
    costs = [z for z, x in _coin_levels(jobs, machines, bags, _ceil_div) for _ in range(x)]
    costs += [0] * (bags - len(costs))
    sizes = tuple(z * rho.numerator // rho.denominator for z in costs)
    total = sum(sizes)
    return BrickSolution(sizes, tuple(costs), total, total >= jobs)


def bricks_by_cost(jobs: int, machines: int, bags: int) -> FractionalSolution:
    """Integral bag counts per cost: the cost multiset of :func:`bricks_bags`, batched."""
    exact_ints(1, jobs=jobs, machines=machines, bags=bags)
    # Int costs >= 1 with int counts >= 1 summing to at most bags: nothing left to check.
    levels = _coin_levels(jobs, machines, bags, _ceil_div)
    return FractionalSolution._trusted({z: Fraction(x) for z, x in levels}, Fraction(bags))


def bricks_fractional(jobs: Fraction, machines: Fraction, bags: Fraction) -> FractionalSolution:
    """Fractional bag counts per cost; inputs may themselves be non-integral.

    Identical to :func:`bricks_by_cost` except the count per cost is not
    rounded up, so every cost strictly between the extremes is used exactly
    machines / cost times and the whole solution scales linearly when jobs,
    machines and bags are scaled together.
    """
    jobs = exact_factor(jobs, "jobs")
    machines = exact_factor(machines, "machines")
    bags = exact_factor(bags, "bags")
    return FractionalSolution(dict(_coin_levels(jobs, machines, bags, truediv)), bags)


def solution_size(solution: FractionalSolution, rho: Fraction) -> Fraction:
    """Total bag size of a cost-indexed solution: sum of count * floor(cost * rho).

    Summed in integers over the counts' common denominator, so each level
    costs one integer product rather than a ``Fraction`` product and sum.
    Raises ValueError unless ``solution`` is a FractionalSolution.
    """
    _require("solution_size", (solution,), _SOLUTION)
    rho = exact_factor(rho)
    num, den = rho.numerator, rho.denominator
    counts, d = _to_common_ints(solution.counts.values())
    return Fraction(sum(x * (z * num // den) for z, x in zip(solution.counts, counts)), d)


def transformation_factor(cost: int, rho: Fraction) -> Fraction:
    """Size change per unit of count moved when rounding cost ``cost`` up.

    Rounding the count at this cost up (paid for by shaving cost-1 bags below
    it and topping up with cost-1-coin bags) changes the solution size by
    this factor times the amount rounded.  Negative values are the ones that
    can shrink a solution.
    """
    exact_ints(2, cost=cost)
    rho = exact_factor(rho)
    return _transformation_factor(cost, rho.numerator, rho.denominator)


def _transformation_factor(z: int, num: int, den: int) -> Fraction:
    """floor(z*rho) - (z * floor((z-1)*rho) - floor(rho)) / (z-1) for rho = num / den."""
    return z * num // den - Fraction(z * ((z - 1) * num // den) - num // den, z - 1)


def negative_factor_sum(max_cost: int, rho: Fraction) -> Fraction:
    """Sum of the negative transformation factors for costs 2..max_cost.

    Bounds from below the total size lost when rounding a fractional solution
    integral, since each cost is rounded at most once by less than one bag.
    """
    exact_ints(2, max_cost=max_cost)
    num, den = exact_factor(rho).as_integer_ratio()
    factors = (_transformation_factor(z, num, den) for z in range(2, max_cost + 1))
    return sum((f for f in factors if f < 0), Fraction(0))


def normalized_surplus(lam: Fraction) -> Fraction:
    """Fractional-solution size beyond the job count, per machine.

    Because the fractional construction scales, this depends only on the
    jobs-per-machine ratio; it is evaluated at one machine and one bag.
    """
    lam = exact_factor(lam, "lam")
    solution = bricks_fractional(lam, Fraction(1), Fraction(1))
    return solution_size(solution, BRICK_ROBUSTNESS) - lam


def surplus_breakpoints(lambda_max: Fraction) -> list[SurplusPoint]:
    """All vertices of the normalized surplus on [1, lambda_max], in order.

    The surplus is piecewise linear.  Vertices sit at the integers (where the
    largest bag cost steps up) and at the points where the count of the
    smallest bag cost reaches zero; the latter are found by linear
    extrapolation of that count, which between integers falls at rate one
    over the next integer.
    """
    lambda_max = exact_factor(lambda_max, "lambda_max", least=1)
    lam, dropped = Fraction(1), None
    points = []
    while lam <= lambda_max:  # one solution per vertex gives its surplus and the next vertex
        solution = bricks_fractional(lam, Fraction(1), Fraction(1))
        points.append(SurplusPoint(lam, solution_size(solution, BRICK_ROBUSTNESS) - lam, dropped))
        next_integer = lam.numerator // lam.denominator + 1
        lowest = min(solution.counts)
        drop_at = lam + solution.counts[lowest] * next_integer
        if drop_at < next_integer:
            lam, dropped = drop_at, lowest
        else:
            lam, dropped = Fraction(next_integer), None
    return points


def robust_bags(jobs: int, machines: int, bags: int) -> BagProfile:
    """Bag profile for unit jobs; within 8/5 of optimal is certified for bags == machines only.

    Up to 60 jobs per machine this is the coin construction at factor 8/5,
    when its sizes reach the job count, filled from the front: a bag that
    starts s jobs in keeps min(size, jobs - s), clamped at 0.  That is a
    full prefix, one partial bag and zeros, the same sizes as removing the
    smallest bags first and then shrinking one, so no size increases.
    Otherwise it is the greedy small-jobs packing at
    ``sand_robustness(machines, bags) + machines / jobs``: the unit jobs'
    running sums are ``range(jobs + 1)``, so :func:`pebbles._pack` packs
    them in O(bags log jobs) steps rather than one step per job; ``bisect``
    reads no range that long for ``jobs >= sys.maxsize``, which raise SizeLimit.

    With bags == machines the coin sizes reach the job count and the
    coin-paying assigner places them at 8/5 on every integral speed profile
    (the success and robustness sweeps), and past 60 jobs per machine the
    packing's factor is below 8/5.  Other bag counts carry no 8/5 guarantee:
    with fewer bags the exact oracle over n <= 12 finds worst cases of 2 at
    (machines 3, bags 2) and 3 at (machines 4, bags 2).

    Both branches' sizes are non-increasing (the coin sizes since their costs
    are, the packing's since bag k holds min((cap - P) // machines, jobs - P)
    after P jobs), so the profile skips the checks and re-sort of ``BagProfile``.
    """
    exact_ints(1, jobs=jobs, machines=machines, bags=bags)
    if jobs <= PEBBLES_CUTOVER * machines:
        solution = bricks_bags(jobs, machines, bags, BRICK_ROBUSTNESS)
        if solution.successful:
            starts = accumulate(solution.bag_sizes, initial=0)
            return BagProfile._trusted(tuple(Fraction(max(0, min(a, jobs - s)))
                                             for a, s in zip(solution.bag_sizes, starts)))
    if jobs >= sys.maxsize:
        raise SizeLimit(f"the pebbles packing takes jobs < sys.maxsize = {sys.maxsize}, got {jobs}")
    rho = sand_robustness(machines, bags) + Fraction(machines, jobs)
    ends = _pack(range(jobs + 1), machines, bags, rho)
    if ends[-1] < jobs:
        raise Infeasible(
            f"no construction packed jobs={jobs} machines={machines} bags={bags}"
        )
    return BagProfile._trusted(tuple(Fraction(e - s) for s, e in zip([0] + ends, ends)))

