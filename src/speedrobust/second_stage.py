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
from .numerics import _to_common_ints, exact_factor, whole_numbers

MAX_ORACLE_BAGS = 16
MAX_ORACLE_MACHINES = 8
# The oracle's argument classes, held in a tuple: a profiler that rebinds a module's name for a
# class to a timing wrapper leaves this check intact.
_ORACLE_ARGS = (BagProfile, SpeedProfile)


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


def _coin_counterexample(costs: list[int], total: int, machines: int) -> list[int] | None:
    """Caps on which :func:`_largest_first` fails to place ``costs``, or None if none exist.

    The caps range over every partition of ``total`` into at most
    ``machines`` parts, zero-padded.  Let C_k be the sum of the first k costs,
    in the kernel's order.  The kernel fails on some caps iff some cost
    c_k > ceil((total - C_{k-1}) / machines).

    Proof.  Placing k - 1 bags leaves caps summing to total - C_{k-1}, whose
    largest is at least that ceiling; so if no cost exceeds its ceiling,
    every positive bag fits, and a zero-cost bag always does.  Conversely
    every non-negative vector u summing to total - C_k is reachable after k
    bags: add c_k to the largest entry of u, and the kernel, started from
    that predecessor, takes c_k back off a largest entry.  Take the first
    failing k; every earlier cost is at most its ceiling, which is at most
    what is left, so total - C_{k-1} >= 0.  Split it as evenly as integers
    allow, so its largest cap is the ceiling, below c_k, and add c_{k-1},
    ..., c_1 back, each to the current largest cap.  Up to the order of
    equal caps, the kernel retraces those steps and then fails at bag k.
    """
    spent = 0
    for k, cost in enumerate(costs):
        left = total - spent
        if cost > -(-left // machines):
            q, r = divmod(left, machines)
            caps = [q + 1] * r + [q] * (machines - r)
            for earlier in reversed(costs[:k]):
                caps[caps.index(max(caps))] += earlier
            return sorted(caps, reverse=True)
        spent += cost
    return None


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
    rho = exact_factor(rho)
    sizes, size_unit = _to_common_ints(bags.sizes)
    ints, speed_unit = _to_common_ints(speeds.speeds)
    costs, caps = _capacity_costs(sizes, size_unit, ints, speed_unit, rho)
    steps: list | None = [] if trace is not None else None
    owners = _largest_first(costs, caps, 0, steps)  # sorted speeds, not all zero: machine 0 is live
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
    build against speeds of that total.  Sizes and speeds must be whole numbers.
    """
    rho = exact_factor(rho)
    sizes = whole_numbers(bag_sizes, "bag sizes")
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("bag sizes must be non-increasing")
    coins = whole_numbers(speeds, "speeds")
    steps: list | None = [] if trace is not None else None
    owners = _largest_first(_coin_costs(sizes, rho), coins, _first_positive(coins), steps)
    return _view(owners, steps, sizes, trace)


def _search_min_makespan(sizes: list[int], speeds: list[int],
                         stop: tuple[int, int] | None = None) -> tuple[int, int, list[int]]:
    """Exact min makespan of positive integer sizes over positive integer speeds.

    Returns (time, unit, owners): the makespan is time / unit, and the caller
    builds the ``Fraction`` if it needs one.  Times are integers in units of
    unit = lcm(speeds): a load on machine j finishes at load * mult[j],
    mult[j] = unit // speeds[j].  Depth-first over sizes in the given
    (non-increasing) order.  Machines in the same residual state (time,
    speed) are interchangeable, so only the first of them is branched on per
    step; a branch is cut when its finishing time reaches the incumbent, and
    a node returns once the incumbent falls to its own time, since below it
    only ties remain.  So every leaf reached beats the incumbent, and the
    witness is the first optimal leaf, not one chosen among ties.

    The search stops at the first incumbent at or below one integer bound:
    floor = ceil(total * unit / sum(speeds)), under which no makespan is,
    raised to the greatest integer time at or below time / time_unit when a
    threshold ``stop`` = (time, time_unit) is given.  Below the optimum the
    threshold stops nothing, and the search is the one without it.  The
    per-size time steps and the machine symmetry table are built only when
    the warm start has not already stopped the search.
    """
    m, n = len(speeds), len(sizes)
    unit = lcm(*speeds)
    mult = [unit // s for s in speeds]

    # Warm start: each item to the machine minimizing the resulting time.
    times = [0] * m
    warm = [0] * n
    for k, a in enumerate(sizes):
        finishes = [t + a * x for t, x in zip(times, mult)]
        i = finishes.index(min(finishes))
        times[i] = finishes[i]
        warm[k] = i
    best = max(times)
    best_owner = warm
    floor = -(-sum(sizes) * unit // sum(speeds))
    if stop is not None:
        floor = max(floor, stop[0] * unit // stop[1])
    if best <= floor:
        return best, unit, best_owner

    steps = [[a * x for x in mult] for a in sizes]
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
            if best <= floor or current >= best:
                return
    dfs(0, 0)
    return best, unit, best_owner


def _check_oracle_size(bags: int, machines: int) -> None:
    if bags > MAX_ORACLE_BAGS or machines > MAX_ORACLE_MACHINES:
        raise SizeLimit(
            f"oracle accepts at most {MAX_ORACLE_BAGS} bags and {MAX_ORACLE_MACHINES} machines"
        )


def optimal_second_stage(bags: BagProfile, speeds: SpeedProfile) -> tuple[Fraction, Assignment]:
    """Exact minimum makespan over all assignments, with one optimal witness.

    The witness attains the value; which optimal assignment it is, is not
    specified.  Desk-scale only (at most 16 bags, 8 machines); raises
    SizeLimit beyond that rather than degrading to an approximation.  Raises
    ValueError unless ``bags`` is a BagProfile and ``speeds`` a SpeedProfile.
    """
    for arg, kind in zip((bags, speeds), _ORACLE_ARGS):
        if not isinstance(arg, kind):
            raise ValueError(f"the oracle takes a {kind.__name__}, got {type(arg).__name__}")
    _check_oracle_size(len(bags.sizes), len(speeds.speeds))
    # Sorted profiles: the positive sizes and speeds are prefixes, so owners need no remap; 0 is live.
    active = [a for a in bags.sizes if a > 0]
    resting = [0] * (len(bags.sizes) - len(active))
    scaled, _ = _to_common_ints(active + [s for s in speeds.speeds if s > 0])
    time, unit, owners = _search_min_makespan(scaled[: len(active)], scaled[len(active):])
    return Fraction(time, unit), Assignment(owners + resting)
