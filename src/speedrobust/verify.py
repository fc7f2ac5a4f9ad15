"""Adversary enumeration, the verification sweeps, and the table of campaigns they make up.

Campaigns return a :class:`VerificationReport` rather than raising: failures
are data.  A report with an empty failure list is the finite certificate that
the swept claim holds on the stated grid.  All sweeps are deterministic for
fixed inputs (including seeds); grid cells are independent, so the big range
sweep can optionally fan out over processes.  :data:`CAMPAIGNS` is the one
definition of the certifying campaigns, their grids and their expected outcomes.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .bricks import BRICK_ROBUSTNESS, _coin_total, robust_bags
from .model import BagProfile, SpeedProfile
from .numerics import format_rational
from .sand import adversary_configs, lower_bound_probe, sand_bags, sand_robustness
from .second_stage import _capacity_costs, _coin_costs, _largest_first, _to_common_ints
from .second_stage import greedy_assignment

RANDOM_SPEED_GRAIN = 1000  # raw integer speeds are drawn from [0, this]
EXHAUSTIVE_PROFILES = 10**6  # larger robustness grids are sampled
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


def enumerate_integral_speed_profiles(total: int, machines: int) -> Iterator[SpeedProfile]:
    """All non-increasing integer speed vectors of the given length and total.

    These are the partitions of ``total`` into at most ``machines`` parts,
    zero-padded; each is emitted exactly once, largest first part first.
    Speeds are shared ``Fraction`` objects from one table per call, and the
    partitions already meet every rule of :class:`SpeedProfile`, so profiles
    are built unchecked.
    """
    if total < 1 or machines < 1:
        raise ValueError("total and machines must both be >= 1")
    speed = [Fraction(i) for i in range(total + 1)]
    zeros = (speed[0],) * machines
    for parts in _partitions(total, machines, total):
        yield _speed_profile(tuple(map(speed.__getitem__, parts)) + zeros[len(parts):])


def partition_count(total: int, max_parts: int) -> int:
    """Partitions of ``total`` into at most ``max_parts`` parts: p(n, k) = p(n, k-1) + p(n-k, k)."""
    row = [1] + [0] * total
    for k in range(1, min(max_parts, total) + 1):
        for n in range(k, total + 1):
            row[n] += row[n - k]
    return row[total] if total >= 0 else 0


def _sample_partitions(
    total: int, max_parts: int, samples: int, rng: random.Random
) -> Iterator[tuple[int, ...]]:
    """``samples`` uniform draws among :func:`_partitions`; counts are memoized per call."""

    @lru_cache(maxsize=None)
    def count(total: int, parts_left: int, cap: int) -> int:
        if total == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(
            count(total - first, parts_left - 1, first)
            for first in range(min(cap, total), -(-total // parts_left) - 1, -1)
        )

    for _ in range(samples):
        parts: list[int] = []
        left, cap, parts_left = total, total, max_parts
        while left > 0:
            pick = rng.randrange(count(left, parts_left, cap))
            for first in range(min(cap, left), 0, -1):
                ways = count(left - first, parts_left - 1, first)
                if pick < ways:
                    break
                pick -= ways
            parts.append(first)
            left, cap, parts_left = left - first, first, parts_left - 1
        yield tuple(parts)


# -- campaign: coin construction reaches total size n --------------------------

def _success_range_chunk(args: tuple) -> tuple[int, list[dict]]:
    machine_values, lambda_max, rho_num, rho_den = args
    checked = 0
    failures: list[dict] = []
    for m in machine_values:
        for n in range(1, lambda_max * m + 1):
            size = _coin_total(n, m, rho_num, rho_den)
            checked += 1
            if size < n:
                failures.append({"n": n, "m": m, "reason": f"total size {size} < {n}"})
    return checked, failures


def verify_bricks_success_range(
    m_max: int,
    lambda_max: int,
    rho: Fraction = BRICK_ROBUSTNESS,
    workers: int | None = None,
) -> VerificationReport:
    """Check the coin construction reaches total size n on the whole grid.

    Sweeps every machine count up to ``m_max`` and every job count up to
    ``lambda_max`` times it, with bag count equal to machine count, using the
    cost-batched generator.  Any instance whose bag sizes total below n is a
    failure record.  An empty grid (``m_max`` or ``lambda_max`` below 1)
    raises ``ValueError`` rather than certifying nothing.
    """
    if m_max < 1 or lambda_max < 1:
        raise ValueError(f"m_max and lambda_max must both be >= 1, got {m_max} and {lambda_max}")
    start = time.perf_counter()
    rho = Fraction(rho)
    machine_values = list(range(1, m_max + 1))
    if workers is not None and workers > 1:
        chunks = [machine_values[i::workers] for i in range(workers)]
        args = [(chunk, lambda_max, rho.numerator, rho.denominator) for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_success_range_chunk, args))
        checked = sum(c for c, _ in results)
        failures = [f for _, fs in results for f in fs]
    else:
        checked, failures = _success_range_chunk(
            (machine_values, lambda_max, rho.numerator, rho.denominator)
        )
    failures.sort(key=lambda f: (f["m"], f["n"]))
    elapsed = int((time.perf_counter() - start) * 1000)
    grid = {
        "campaign": "bricks-success-range",
        "m_max": m_max,
        "lambda_max": lambda_max,
        "rho": format_rational(rho),
    }
    return VerificationReport(grid, checked, failures, elapsed)


# -- campaign: end-to-end robustness of the dispatcher bags --------------------

def verify_bricks_robustness(
    jobs: int,
    machines: int,
    samples: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Check the coin-paying assigner places the dispatcher's bags everywhere.

    Builds the bag profile once, then walks integral speed profiles summing
    to the job count and requires the assignment to succeed at factor 8/5 on
    each.  Grids with at most ``EXHAUSTIVE_PROFILES`` profiles are exhaustive;
    larger ones check ``samples`` uniformly random partitions instead.  Each
    profile runs the assigners' integer kernel directly, on coin costs
    computed once, and builds no assignment.  ``samples`` must be at least 1,
    so a sampled grid never reports an empty certificate.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    start = time.perf_counter()
    profile = robust_bags(jobs, machines, machines)
    costs = _coin_costs([int(a) for a in profile.sizes], BRICK_ROBUSTNESS)
    exhaustive = partition_count(jobs, machines) <= EXHAUSTIVE_PROFILES
    walk = (_partitions(jobs, machines, jobs) if exhaustive
            else _sample_partitions(jobs, machines, samples, random.Random(seed)))
    checked = 0
    failures: list[dict] = []
    for parts in walk:
        checked += 1
        # The zero speeds left out of the caps can never pay a positive cost.
        if _largest_first(costs, list(parts), 0) is None:
            failures.append({
                "n": jobs,
                "m": machines,
                "speeds": list(parts) + [0] * (machines - len(parts)),
                "reason": "coin assignment failed at 8/5",
            })

    elapsed = int((time.perf_counter() - start) * 1000)
    grid = {
        "campaign": "bricks-robustness",
        "n": jobs,
        "m": machines,
        "mode": "exhaustive" if exhaustive else f"sampled:{samples}:seed={seed}",
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
    seeded pseudo-random rational speed profiles of the same total.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    start = time.perf_counter()
    rho = sand_robustness(machines, bags)
    scale = machines**bags
    profile = sand_bags(machines, bags, scale)
    checked = 0
    failures: list[dict] = []

    for k, config in enumerate(adversary_configs(machines, bags)):
        checked += 1
        if greedy_assignment(profile, config, rho) is None:
            failures.append({
                "kind": "adversary",
                "config": k,
                "speeds": [format_rational(s) for s in config.speeds],
                "reason": "greedy assignment failed at the tight factor",
            })

    # Trial speeds are r * scale / sum(raw): integers r * scale in units of sum(raw).
    sizes, size_unit = _to_common_ints(profile.sizes)
    rng = random.Random(seed)
    for t in range(trials):
        raw = [rng.randint(0, RANDOM_SPEED_GRAIN) for _ in range(machines)]
        while not any(raw):
            raw = [rng.randint(0, RANDOM_SPEED_GRAIN) for _ in range(machines)]
        raw.sort(reverse=True)
        total = sum(raw)
        checked += 1
        costs, caps = _capacity_costs(sizes, size_unit, [r * scale for r in raw], total, rho)
        if _largest_first(costs, caps, 0) is None:
            failures.append({
                "kind": "random",
                "trial": t,
                "speeds": [format_rational(Fraction(r * scale, total)) for r in raw],
                "reason": "greedy assignment failed at the tight factor",
            })

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
    """A certifying sweep, its full and quick grids, and the outcome each must give.

    ``sweep(**grid)`` must count ``checked[0]`` checks on the full grid and
    ``checked[1]`` on the quick one.  It must be clean, or, given a
    ``witness``, report a failure whose fields include it.
    """

    sweep: Callable[..., VerificationReport]
    full: dict
    quick: dict
    checked: tuple[int, int]
    witness: dict | None = None

    def run(self, quick: bool = False, **settings) -> VerificationReport:
        """Sweep one grid; ``settings`` such as ``seed`` or ``workers`` replace the grid's own."""
        grid = self.quick if quick else self.full
        return self.sweep(**{**grid, **{k: v for k, v in settings.items() if k in grid}})

    def meets(self, report: VerificationReport, quick: bool = False) -> bool:
        """Whether ``report`` has this campaign's expected count and outcome."""
        if report.checked != self.checked[1 if quick else 0]:
            return False
        if self.witness is None:
            return report.ok
        return any(self.witness.items() <= f.items() for f in report.failures)


_SHAVED = {"m_max": 9, "lambda_max": 5, "rho": Fraction(159, 100)}

# Acceptance criteria 4 to 7 and 9 (tests/test_acceptance.py) run the full grids.
CAMPAIGNS: dict[str, Campaign] = {
    # the coin construction reaches n at 8/5 for m <= 144 and 60 jobs per machine
    "success-range": Campaign(verify_bricks_success_range,
                              full={"m_max": 144, "lambda_max": 60, "workers": None},
                              quick={"m_max": 20, "lambda_max": 10, "workers": None},
                              checked=(626_400, 2_100)),
    # at 159/100 the construction falls short at 45 jobs on 9 machines
    "shaved-witness": Campaign(verify_bricks_success_range, full=_SHAVED, quick=_SHAVED,
                               checked=(225, 225), witness={"n": 45, "m": 9}),
    # b adversary configurations plus the random trials per cell
    "sand-tightness": Campaign(_sand_tightness,
                               full={"m_max": 6, "trials": 1000, "seed": CAMPAIGN_SEED},
                               quick={"m_max": 4, "trials": 100, "seed": CAMPAIGN_SEED},
                               checked=(40_200, 1_867)),
    # one check per integer bag profile
    "lower-bound": Campaign(_lower_bound,
                            full={"cells": [(2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (4, 3),
                                            (5, 3), (3, 4)]},
                            quick={"cells": [(2, 2), (2, 3), (3, 3)]},
                            checked=(7_132, 88)),
    # one check per integral speed profile
    "bricks-robustness": Campaign(_bricks_robustness_range,
                                  full={"n_max": 40, "m_max": 8}, quick={"n_max": 12, "m_max": 4},
                                  checked=(184_649, 315)),
}
