"""Second-stage assigners plus an exact optimal-assignment oracle.

Two greedy assigners mirror the two accounting schemes used by the bag
builders: capacity-based (speed times the target factor) and coin-based
(integral speed reserves).  The oracle finds the true optimal makespan by
exhaustive search with symmetry and bound pruning; it is deliberately capped
at desk scale because verification needs ground truth, not throughput.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .model import Assignment, BagProfile, Infeasible, SizeLimit, SpeedProfile

MAX_ORACLE_BAGS = 16
MAX_ORACLE_MACHINES = 8


def _first_positive(speeds: Sequence[Fraction | int]) -> int:
    for i, s in enumerate(speeds):
        if s > 0:
            return i
    raise Infeasible("all machine speeds are zero")


def _largest_first(costs: list[int], caps: list[int], resting: int, trace=None) -> list[int] | None:
    """The largest-first loop behind both assigners, on non-negative integers.

    A zero-cost bag goes to ``resting``; any other bag goes to the first
    machine with the largest cap, or None is returned when that cap is below
    its cost.  ``caps`` is spent in place; ``trace`` gets (bag, machine,
    before, after) for every bag tried.
    """
    owners = []
    for k, cost in enumerate(costs):
        i = caps.index(max(caps)) if cost else resting
        c = caps[i]
        if trace is not None:
            trace.append((k, i, c, c - cost))
        if c < cost:
            return None
        caps[i] = c - cost
        owners.append(i)
    return owners


def _view(owners, steps, sizes, trace, value=int) -> Assignment | None:
    """Public form of a kernel run; ``value`` maps kernel units back to the caller's."""
    if trace is not None:
        trace.extend({"bag": k, "size": sizes[k], "machine": i,
                      "before": value(before), "after": value(after)}
                     for k, i, before, after in steps)
    return None if owners is None else Assignment(owners)


def _capacity_costs(sizes, size_unit, speeds, speed_unit, rho) -> tuple[list[int], list[int]]:
    """Kernel costs and caps: cap >= cost exactly when rho * s/speed_unit >= a/size_unit."""
    cost_unit, cap_unit = speed_unit * rho.denominator, size_unit * rho.numerator
    return [a * cost_unit for a in sizes], [s * cap_unit for s in speeds]


def _coin_costs(sizes: Sequence[int], rho: Fraction) -> list[int]:
    """Coins a bag of each integer size costs at factor ``rho``: ceil(a / rho)."""
    return [-(-a * rho.denominator // rho.numerator) for a in sizes]


def greedy_assignment(
    bags: BagProfile,
    speeds: SpeedProfile,
    rho: Fraction,
    trace: list | None = None,
) -> Assignment | None:
    """Assign bags largest-first to the machine with most remaining capacity.

    Capacities start at ``rho`` times each speed.  Returns None as soon as a
    positive-size bag does not fit on the best machine, which signals that
    ``rho`` is too small for this profile pair.  On success every capacity
    stays non-negative, so the makespan is at most ``rho``.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    sizes, size_unit = _to_common_ints(bags.sizes)
    ints, speed_unit = _to_common_ints(speeds.speeds)
    costs, caps = _capacity_costs(sizes, size_unit, ints, speed_unit, rho)
    steps: list | None = [] if trace is not None else None
    owners = _largest_first(costs, caps, _first_positive(ints), steps)
    unit = size_unit * speed_unit * rho.denominator
    return _view(owners, steps, bags.sizes, trace, lambda v: Fraction(v, unit))


def integral_assignment(
    bag_sizes: Sequence[int],
    speeds: Sequence[int],
    rho: Fraction,
    trace: list | None = None,
) -> Assignment | None:
    """Assign integer bags largest-first, paying whole coins out of integral speeds.

    Machine i starts with ``speeds[i]`` coins; a bag of size a costs
    ceil(a / rho) coins and goes to the machine holding the most.  Coins stay
    integral throughout.  Returns None if the richest machine cannot pay,
    which never happens when the bags came from a successful coin-accounting
    build against speeds of that total.
    """
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    sizes = [int(a) for a in bag_sizes]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)) or sizes and sizes[-1] < 0:
        raise ValueError("bag sizes must be non-increasing and non-negative")
    coins = [int(s) for s in speeds]
    if any(c < 0 for c in coins):
        raise ValueError("speeds must be non-negative integers")
    steps: list | None = [] if trace is not None else None
    owners = _largest_first(_coin_costs(sizes, rho), coins, _first_positive(coins), steps)
    return _view(owners, steps, sizes, trace)


def _to_common_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times their common denominator, and that denominator."""
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _search_min_makespan(sizes: list[int], speeds: list[int]) -> tuple[Fraction, list[int]]:
    """Exact min makespan of positive integer sizes over positive integer speeds.

    Times are integers in units of unit = lcm(speeds): a load on machine j
    finishes at load * mult[j], mult[j] = unit // speeds[j].  Depth-first
    over sizes in the given (non-increasing) order.  Machines in the same
    residual state (time, speed) are interchangeable, so only the first of
    them is branched on per step; a branch is cut when its finishing time
    reaches the incumbent.  A leaf replaces the incumbent even when it only
    ties it, so the witness is the last optimal leaf reached.

    Every makespan is at least floor = ceil(total * unit / sum(speeds)), so
    an incumbent at floor is optimal.  If the bound is exact the search stops
    there; otherwise only branches already at the incumbent go on, since
    only they can reach a (tying) leaf.
    """
    m, n = len(speeds), len(sizes)
    unit = lcm(*speeds)
    mult = [unit // s for s in speeds]
    steps = [[a * x for x in mult] for a in sizes]

    # Warm start: each item to the machine minimizing the resulting time.
    times = [0] * m
    warm = [0] * n
    for k, step in enumerate(steps):
        finishes = [t + x for t, x in zip(times, step)]
        i = finishes.index(min(finishes))
        times[i] = finishes[i]
        warm[k] = i
    best = max(times)
    best_owner = warm
    floor, rest = divmod(sum(sizes) * unit, sum(speeds))
    exact = not rest
    floor += not exact

    # Machine j with the earlier machines of its speed: j is skipped while one of them has its time.
    machines = [(j, [i for i in range(j) if speeds[i] == speeds[j]]) for j in range(m)]
    times = [0] * m
    owner = [0] * n

    def dfs(k: int, current: int) -> None:
        nonlocal best, best_owner
        if k == n:
            best = current
            best_owner = owner[:]
            return
        step = steps[k]
        candidates = []
        for j, earlier in machines:
            t = times[j]
            for i in earlier:
                if times[i] == t:
                    break
            else:
                finish = t + step[j]
                if finish < best:
                    candidates.append((finish, j))
        candidates.sort()
        for finish, j in candidates:
            if finish >= best:
                break
            times[j] = finish
            owner[k] = j
            dfs(k + 1, finish if finish > current else current)
            times[j] -= step[j]
            if best <= floor and (exact or current < best):
                return
    if best > floor:
        dfs(0, 0)
    return Fraction(best, unit), best_owner


def _check_oracle_size(bags: int, machines: int) -> None:
    if bags > MAX_ORACLE_BAGS or machines > MAX_ORACLE_MACHINES:
        raise SizeLimit(
            f"oracle accepts at most {MAX_ORACLE_BAGS} bags and {MAX_ORACLE_MACHINES} machines"
        )


def optimal_second_stage(bags: BagProfile, speeds: SpeedProfile) -> tuple[Fraction, Assignment]:
    """Exact minimum makespan over all assignments, with one optimal witness.

    Desk-scale only (at most 16 bags, 8 machines); raises SizeLimit beyond
    that rather than degrading to an approximation.
    """
    _check_oracle_size(len(bags.sizes), len(speeds.speeds))
    resting = _first_positive(speeds.speeds)
    positive = [(i, s) for i, s in enumerate(speeds.speeds) if s > 0]
    active = [a for a in bags.sizes if a > 0]
    owners = [resting] * len(bags.sizes)
    if not active:
        return Fraction(0), Assignment(owners)

    scaled, _ = _to_common_ints(list(active) + [s for _, s in positive])
    int_sizes, int_speeds = scaled[: len(active)], scaled[len(active):]
    value, owner_local = _search_min_makespan(int_sizes, int_speeds)
    for k, j in enumerate(owner_local):
        owners[k] = positive[j][0]
    return value, Assignment(owners)
