"""Adversary enumeration, the verification sweeps, and the table of campaigns they make up.

Campaigns return a :class:`VerificationReport` rather than raising: failures
are data.  A report with an empty failure list is the finite certificate that
the swept claim holds on the stated grid.  All sweeps are deterministic for
fixed inputs (including seeds) and run in the calling process; campaigns are
independent of each other, so ``speedrobust run`` spreads whole campaigns over
processes.  :data:`CAMPAIGNS` is the one definition of the certifying
campaigns, their grids and their expected outcomes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappush, heapreplace
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple

from .bricks import BRICK_ROBUSTNESS, _coin_totals, robust_bags
from .model import BagProfile, SpeedProfile
from .numerics import _to_common_ints, exact_factor, exact_ints, format_rational
from .sand import adversary_configs, lower_bound_probe, sand_bags, sand_robustness
from .second_stage import _capacity_costs, _coin_costs, _coin_counterexample, _largest_first

RANDOM_SPEED_GRAIN = 1000  # raw integer speeds are drawn from [0, this]
EXHAUSTIVE_PROFILES = 10**6  # larger robustness grids get the reachability test alone
CAMPAIGN_SEED = 20260808  # the sand campaign's random trials, unless a caller picks another

# Bound once, so a tracer that rebinds this module's name SpeedProfile leaves it alone.
_speed_profile = SpeedProfile._trusted


@dataclass
class VerificationReport:
    """Outcome of one verification campaign over a parameter grid."""

    grid: dict
    checked: int
    failures: list[dict]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def payload(self, include_elapsed: bool = True) -> dict:
        """JSON-ready form; elapsed is wall-clock and excluded from determinism checks."""
        out = {"grid": self.grid, "checked": self.checked, "failures": self.failures}
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _partitions(total: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into at most ``parts_left`` parts of at most ``cap``.

    Reverse-lexicographic, largest first part first.  One list is walked in
    place: each step lowers by one the last part that can drop and still
    leave room for the rest, then refills after it greedily.
    """
    if total == 0:
        yield ()
        return
    top = min(cap, total)
    if top < 1 or top * parts_left < total:
        return
    q, r = divmod(total, top)
    parts = [top] * q
    if r:
        parts.append(r)
    while True:
        yield tuple(parts)
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:  # a part of one cannot drop
            i -= 1
        rest = len(parts) - i  # the ones after i, plus the unit taken from parts[i]
        while i >= 0:
            v = parts[i] - 1
            if rest <= (parts_left - 1 - i) * v:
                break
            rest += parts[i]
            i -= 1
        else:
            return
        parts[i] = v
        del parts[i + 1:]
        if rest <= v:
            parts.append(rest)
        else:
            q, r = divmod(rest, v)
            parts += [v] * q
            if r:
                parts.append(r)


def _coin_walk(costs: list[int], total: int, machines: int) -> tuple[int, list[list[int]]]:
    """What ``_largest_first(costs, list(parts), 0)`` says on every partition of ``total``.

    Returns the count of partitions into at most ``machines`` parts and,
    zero-padded in ``_partitions`` order, those the kernel fails on.  Zero
    costs are dropped: they go to the resting machine and never fail.  The
    partitions are walked as a prefix tree, largest part first; at a node
    every part not yet chosen is at most ``bound``.  While the largest chosen
    cap is >= ``bound``, the kernel's first largest machine is that chosen
    one, of lower index, on every completion, so its step is taken once for
    the subtree.  Below, the walk branches on each next part above that cap;
    the completions with every part at most the cap come last in walk order
    and stay together, with the cap as their ``bound``.  A subtree whose bags
    are all placed is counted, and one where a bag fails is listed.

    The kernel always spends a largest cap, and spending any one of several
    equal caps leaves the same multiset, so every verdict depends on the
    multiset of chosen caps alone; they are kept as a heap of negated caps,
    and failures list ``parts``, never caps.  A part p branched on is above
    every chosen cap, so it is the new largest and pays bag k at once: the
    child starts at bag k + 1 with the cap p - cost added, or, if p < cost,
    its completions are listed as failures at the branch, in walk order.  A
    part that pays the last bag enters no child: the count of its
    completions is added at the branch.
    """
    costs = [c for c in costs if c]
    bags = len(costs)
    counts: dict[tuple[int, int, int], int] = {}
    checked = 0
    failing: list[list[int]] = []
    parts: list[int] = []  # the chosen prefix, shared: appended before a child, popped after

    def count(rest: int, slots: int, cap: int) -> int:  # partitions of rest, <= slots parts <= cap
        # slots * cap >= rest always: the walk's bounds and the recursion's parts are >= ceil(rest / slots)
        cap = min(cap, rest)
        if rest == 0 or slots == 1:
            return 1
        key = (rest, slots, cap)
        n = counts.get(key)
        if n is None:
            low = -(-rest // slots)
            n = counts[key] = sum(count(rest - p, slots - 1, p) for p in range(low, cap + 1))
        return n

    def fail(prefix: list[int], rest: int, slots: int, bound: int) -> None:  # list every completion
        nonlocal checked
        before = len(failing)
        failing.extend(prefix + list(tail) + [0] * (slots - len(tail))
                       for tail in _partitions(rest, slots, bound))
        checked += len(failing) - before

    def walk(caps: list[int], k: int, rest: int, bound: int, slots: int) -> None:
        nonlocal checked
        while k < bags:
            top = -caps[0] if caps else 0
            cost = costs[k]
            if top < bound:
                low = -(-rest // slots)  # the least next part that leaves room for the rest
                for p in range(bound, top if top >= low else low - 1, -1):
                    left = rest - p
                    if p < cost:
                        fail(parts + [p], left, slots - 1, p)
                    elif k + 1 == bags:  # p pays the last bag: its completions are counted here
                        checked += 1 if left == 0 or slots == 2 else count(left, slots - 1, p)
                    else:
                        c2 = caps.copy()
                        heappush(c2, cost - p)
                        parts.append(p)
                        walk(c2, k + 1, left, p if p < left else left, slots - 1)
                        parts.pop()
                if top < low:
                    return
                bound = top
            elif top < cost:
                fail(parts, rest, slots, bound)
                return
            else:
                heapreplace(caps, cost - top)
                k += 1
        checked += 1 if rest == 0 or slots == 1 else count(rest, slots, bound)

    walk([], 0, total, total, machines)
    return checked, failing


def enumerate_integral_speed_profiles(total: int, machines: int) -> Iterator[SpeedProfile]:
    """All non-increasing integer speed vectors of the given length and total.

    These are the partitions of ``total`` into at most ``machines`` parts,
    zero-padded; each is emitted exactly once, largest first part first.
    Speeds are shared ``Fraction`` objects from one table per call, and the
    partitions already meet every rule of :class:`SpeedProfile`, so profiles
    are built unchecked.  The arguments are checked at the call, not at the first ``next``.
    """
    exact_ints(1, total=total, machines=machines)
    speed = [Fraction(i) for i in range(total + 1)]
    zeros = (speed[0],) * machines
    return (_speed_profile(tuple(map(speed.__getitem__, parts)) + zeros[len(parts):])
            for parts in _partitions(total, machines, total))


def partition_count(total: int, max_parts: int) -> int:
    """Partitions of ``total`` into at most ``max_parts`` parts (0 if either is negative)."""
    exact_ints(total=total, max_parts=max_parts)
    row = [1] + [0] * total
    for k in range(1, min(max_parts, total) + 1):
        for r in range(k):  # row[n] += row[n - k] for n >= k is a running sum over each residue mod k
            row[r::k] = accumulate(row[r::k])
    return row[total] if min(total, max_parts) >= 0 else 0


# -- campaign: coin construction reaches total size n --------------------------

def verify_bricks_success_range(
    m_max: int,
    lambda_max: int,
    rho: Fraction = BRICK_ROBUSTNESS,
) -> VerificationReport:
    """Check the coin construction reaches total size n on the whole grid.

    Sweeps every machine count up to ``m_max`` and every job count up to
    ``lambda_max`` times it, with bag count equal to machine count.  Each
    machine count takes one pass of ``bricks._coin_totals``, which gives the
    total size for every job count at once.  Any instance whose bag sizes
    total below n is a failure record.  An empty grid (``m_max`` or
    ``lambda_max`` below 1) raises ``ValueError`` rather than certifying
    nothing, and so does a ``rho`` below 1, as in ``bricks_bags``.
    """
    exact_ints(1, m_max=m_max, lambda_max=lambda_max)
    rho = exact_factor(rho, least=1)
    start = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for m in range(1, m_max + 1):
        totals = _coin_totals(m, lambda_max * m, rho.numerator, rho.denominator)
        checked += lambda_max * m
        failures += [{"n": n, "m": m, "reason": f"total size {size} < {n}"}
                     for n, size in enumerate(totals) if size < n]
    elapsed = int((time.perf_counter() - start) * 1000)
    grid = {
        "campaign": "bricks-success-range",
        "m_max": m_max,
        "lambda_max": lambda_max,
        "rho": format_rational(rho),
    }
    return VerificationReport(grid, checked, failures, elapsed)


# -- campaign: end-to-end robustness of the dispatcher bags --------------------

def verify_bricks_robustness(jobs: int, machines: int) -> VerificationReport:
    """Check the coin-paying assigner places the dispatcher's bags everywhere.

    Builds the bag profile once and requires the assignment to succeed at
    factor 8/5 on every integral speed profile summing to the job count.
    Grids with at most ``EXHAUSTIVE_PROFILES`` profiles walk them all with
    ``_coin_walk``: the assigners' integer kernel, on coin costs computed
    once, decides each profile, with the steps that profiles sharing a prefix
    take alike run once, and no assignment is built; a part that pays the
    last bag adds the count of its completions where the walk branches on
    it.  Larger grids get the exact reachability test
    of ``_coin_counterexample`` instead, which covers every profile at once:
    ``checked`` counts them all, and a failure is the one it constructs.
    """
    start = time.perf_counter()
    profile = robust_bags(jobs, machines, machines)  # refuses non-int jobs and machines
    costs = _coin_costs([int(a) for a in profile.sizes], BRICK_ROBUSTNESS)
    profiles = partition_count(jobs, machines)
    exhaustive = profiles <= EXHAUSTIVE_PROFILES
    if exhaustive:
        checked, failing = _coin_walk(costs, jobs, machines)
    else:
        checked = profiles
        speeds = _coin_counterexample(costs, jobs, machines)
        failing = [] if speeds is None else [speeds]
    failures = [{"n": jobs, "m": machines, "speeds": speeds,
                 "reason": "coin assignment failed at 8/5"} for speeds in failing]

    elapsed = int((time.perf_counter() - start) * 1000)
    grid = {
        "campaign": "bricks-robustness",
        "n": jobs,
        "m": machines,
        "mode": "exhaustive" if exhaustive else "reachability",
        "rho": format_rational(BRICK_ROBUSTNESS),
    }
    return VerificationReport(grid, checked, failures, elapsed)


# -- campaign: divisible-load construction survives every adversary ------------

def verify_sand_upper(
    machines: int,
    bags: int,
    trials: int,
    seed: int = 0,
) -> VerificationReport:
    """Check greedy assignment of the sand bags at the tight factor never fails.

    Runs against the full adversary configuration family plus ``trials``
    seeded pseudo-random rational speed profiles of the same total.  Each
    case is decided as it is drawn, by the assigners' integer kernel on bag
    sizes scaled once, and a failure record (its fields and its speeds as
    ``p/q``) is built only for a case the kernel fails.  Every case's speeds
    are non-increasing with a positive first entry, so machine 0 is the
    resting machine.

    A trial draws ``machines`` raw speeds r in [0, ``RANDOM_SPEED_GRAIN``],
    again while all are zero, sorts them down, and has the speeds
    r * scale / sum(raw).  Each r is drawn as CPython's
    ``Random.randint(0, RANDOM_SPEED_GRAIN)`` draws it: ``getrandbits(k)``,
    again while above the grain, with k the bit length of grain + 1, which
    is the grain's own since grain + 1 is no power of two.  So a seed gives
    the trials it gave through ``randint``.  The kernel takes the raw draws
    as speeds in units of sum(raw), with the scale folded into the sizes'
    unit: cap r * size_unit * scale * rho.numerator against cost
    a * sum(raw) * rho.denominator is the test the speeds r * scale / sum(raw)
    give, so a trial that passes builds no speeds.
    """
    exact_ints(0, trials=trials)
    exact_ints(seed=seed)
    start = time.perf_counter()
    rho = sand_robustness(machines, bags)
    scale = machines**bags
    sizes, size_unit = _to_common_ints(sand_bags(machines, bags, scale).sizes)
    reason = "greedy assignment failed at the tight factor"
    failures: list[dict] = []
    # The family is read from ``adversary_configs``, not ``sand._adversary_speeds``:
    # its ``SpeedProfile`` builds are the traced bench's only ``model.speed_profile_us`` spans.
    configs = adversary_configs(machines, bags)
    for k, config in enumerate(configs):
        speeds, unit = _to_common_ints(config.speeds)
        if _largest_first(*_capacity_costs(sizes, size_unit, speeds, unit, rho), 0) is None:
            failures.append({"kind": "adversary", "config": k,
                             "speeds": [format_rational(s) for s in config.speeds], "reason": reason})
    getrandbits = random.Random(seed).getrandbits
    bits = RANDOM_SPEED_GRAIN.bit_length()
    for t in range(trials):
        raw = [0]
        while not any(raw):
            raw = []
            for _ in range(machines):
                r = getrandbits(bits)
                while r > RANDOM_SPEED_GRAIN:
                    r = getrandbits(bits)
                raw.append(r)
        raw.sort(reverse=True)
        unit = sum(raw)
        if _largest_first(*_capacity_costs(sizes, size_unit * scale, raw, unit, rho), 0) is None:
            failures.append({"kind": "random", "trial": t,
                             "speeds": [format_rational(Fraction(r * scale, unit)) for r in raw],
                             "reason": reason})
    checked = len(configs) + trials

    elapsed = int((time.perf_counter() - start) * 1000)
    grid = {
        "campaign": "sand-upper",
        "machines": machines,
        "bags": bags,
        "trials": trials,
        "seed": seed,
        "rho": format_rational(rho),
    }
    return VerificationReport(grid, checked, failures, elapsed)


# -- the campaign table ---------------------------------------------------------

def _over_cells(grid: dict, cells: list[tuple[int, int]], check: Callable) -> VerificationReport:
    """One report for ``check(*cell)`` on every cell: counts summed, each failure tagged with its cell."""
    start = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for cell in cells:
        report = check(*cell)
        checked += report.checked
        failures += [{"cell": list(cell), **f} for f in report.failures]
    return VerificationReport(grid, checked, failures, int((time.perf_counter() - start) * 1000))


def _sand_tightness(m_max: int, trials: int, seed: int) -> VerificationReport:
    """:func:`verify_sand_upper` on 2 <= m <= ``m_max``, 1 <= b <= 2m, and probe == bound per cell.

    A probe of the sand profile other than the tight factor is a failure; the
    probe adds nothing to ``checked``.
    """
    def cell(m: int, b: int) -> VerificationReport:
        report = verify_sand_upper(m, b, trials, seed)
        probe = lower_bound_probe(m, b, sand_bags(m, b, m**b))
        if probe != sand_robustness(m, b):
            report.failures.append({"kind": "probe", "probe": format_rational(probe),
                                    "reason": "the probe is not the tight factor"})
        return report

    cells = [(m, b) for m in range(2, m_max + 1) for b in range(1, 2 * m + 1)]
    return _over_cells({"campaign": "sand-tightness", "m_max": m_max, "trials": trials,
                        "seed": seed}, cells, cell)


def _lower_bound(cells: list[tuple[int, int]]) -> VerificationReport:
    """Probe every integer bag profile summing to m**b, for each (m, b) cell.

    The profiles are the partitions of m**b into at most b parts, one check
    each.  The least probe must equal the tight factor: below it a profile
    beats the bound, above it the bound is not attained.  A cell where it
    differs fails once, naming the first profile with the least probe.
    """
    def cell(m: int, b: int) -> VerificationReport:
        probes = [(lower_bound_probe(m, b, BagProfile(parts + (0,) * (b - len(parts)))), parts)
                  for parts in _partitions(m**b, b, m**b)]
        least, witness = min(probes, key=lambda probe: probe[0])
        failures = [] if least == sand_robustness(m, b) else [{
            "bags": list(witness), "probe": format_rational(least),
            "reason": "the least probe is not the tight factor"}]
        return VerificationReport({}, len(probes), failures, 0)

    return _over_cells({"campaign": "lower-bound", "cells": [list(c) for c in cells]}, cells, cell)


def _bricks_robustness_range(n_max: int, m_max: int) -> VerificationReport:
    """:func:`verify_bricks_robustness` on every cell n <= ``n_max``, m <= ``m_max``."""
    cells = [(n, m) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    return _over_cells({"campaign": "bricks-robustness-range", "n_max": n_max, "m_max": m_max},
                       cells, verify_bricks_robustness)


class Campaign(NamedTuple):
    """A certifying sweep, its grid, and the outcome it must give.

    ``sweep(**grid)`` must count ``checked`` checks.  It must be clean, or,
    given a ``witness``, report a failure whose fields include it.
    """

    sweep: Callable[..., VerificationReport]
    grid: dict
    checked: int
    witness: dict | None = None

    def run(self) -> VerificationReport:
        """Sweep this campaign's grid."""
        return self.sweep(**self.grid)

    def meets(self, report: VerificationReport) -> bool:
        """Whether ``report`` has this campaign's expected count and outcome."""
        if report.checked != self.checked:
            return False
        if self.witness is None:
            return report.ok
        return any(self.witness.items() <= f.items() for f in report.failures)


# Acceptance criteria 4 to 7 and 9 (tests/test_acceptance.py) run these grids.
CAMPAIGNS: dict[str, Campaign] = {
    # the coin construction reaches n at 8/5 for m <= 144 and 60 jobs per machine
    "success-range": Campaign(verify_bricks_success_range, {"m_max": 144, "lambda_max": 60},
                              checked=626_400),
    # at 159/100 the construction falls short at 45 jobs on 9 machines
    "shaved-witness": Campaign(verify_bricks_success_range,
                               {"m_max": 9, "lambda_max": 5, "rho": Fraction(159, 100)},
                               checked=225, witness={"n": 45, "m": 9}),
    # b adversary configurations plus the random trials per cell
    "sand-tightness": Campaign(_sand_tightness, {"m_max": 6, "trials": 1000, "seed": CAMPAIGN_SEED},
                               checked=40_200),
    # one check per integer bag profile
    "lower-bound": Campaign(_lower_bound,
                            {"cells": [(2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (4, 3), (5, 3),
                                       (3, 4), (6, 3)]},
                            checked=11_129),
    # one check per integral speed profile
    "bricks-robustness": Campaign(_bricks_robustness_range, {"n_max": 40, "m_max": 8},
                                  checked=184_649),
}
