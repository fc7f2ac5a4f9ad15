"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live).  Expected values are frozen here: exact fractions where the
claim is exact, 3-decimal reference tables with tolerance 5.05e-4 where the
claim is a rounded table, and independently recomputed oracles (full
enumeration, brute force) where the claim is an optimum.
"""

import itertools
import random
from fractions import Fraction

from speedrobust.bricks import (
    BRICK_ROBUSTNESS,
    bricks_bags,
    negative_factor_sum,
    normalized_surplus,
    surplus_breakpoints,
    transformation_factor,
)
from speedrobust.model import Assignment, BagProfile, Instance, InvalidAssignment, SpeedProfile, makespan
from speedrobust.pebbles import pebble_ratio, pebbles_bags
from speedrobust.sand import sand_bags, sand_robustness
from speedrobust.second_stage import optimal_second_stage
from speedrobust.verify import CAMPAIGNS

TABLE_TOLERANCE = 5.05e-4  # "matches to 3 decimal places"
SEED = 20260808

# transformation factors at 8/5 for costs 2..60, exact
FACTOR_TABLE = {
    2: "2", 3: "0", 4: "1", 5: "3/4", 6: "-2/5", 7: "2/3", 8: "-3/7", 9: "5/8",
    10: "5/9", 11: "-1/2", 12: "6/11", 13: "-1/2", 14: "7/13", 15: "1/2",
    16: "-8/15", 17: "1/2", 18: "-9/17", 19: "1/2", 20: "9/19", 21: "-11/20",
    22: "10/21", 23: "-6/11", 24: "11/23", 25: "11/24", 26: "-14/25", 27: "6/13",
    28: "-5/9", 29: "13/28", 30: "13/29", 31: "-17/30", 32: "14/31", 33: "-9/16",
    34: "5/11", 35: "15/34", 36: "-4/7", 37: "4/9", 38: "-21/37", 39: "17/38",
    40: "17/39", 41: "-23/40", 42: "18/41", 43: "-4/7", 44: "19/43", 45: "19/44",
    46: "-26/45", 47: "10/23", 48: "-27/47", 49: "7/16", 50: "3/7", 51: "-29/50",
    52: "22/51", 53: "-15/26", 54: "23/53", 55: "23/54", 56: "-32/55", 57: "3/7",
    58: "-11/19", 59: "25/58", 60: "25/59",
}

# normalized surplus at integer jobs-per-machine ratios, 3 decimals
SURPLUS_TABLE = {
    1: 0.000, 2: 0.000, 3: 0.000, 4: 0.083, 5: 0.083, 6: 0.083, 7: 0.133,
    8: 0.133, 9: 0.244, 10: 0.253, 11: 0.253, 12: 0.297, 13: 0.220, 14: 0.220,
    15: 0.252, 16: 0.252, 17: 0.310, 18: 0.276, 19: 0.276, 20: 0.321, 21: 0.321,
    22: 0.366, 23: 0.377, 24: 0.377, 25: 0.417, 26: 0.405, 27: 0.405, 28: 0.405,
    29: 0.406, 30: 0.440, 31: 0.457, 32: 0.457, 33: 0.457, 34: 0.472, 35: 0.500,
    36: 0.528, 37: 0.539, 38: 0.539, 39: 0.561, 40: 0.561, 41: 0.561, 42: 0.576,
    43: 0.576, 44: 0.599, 45: 0.615, 46: 0.615, 47: 0.636, 48: 0.638, 49: 0.658,
    50: 0.690, 51: 0.690, 52: 0.709, 53: 0.710, 54: 0.710, 55: 0.728, 56: 0.732,
    57: 0.749, 58: 0.765, 59: 0.765, 60: 0.782,
}

# the ratio (3 decimals) and surplus (3 decimals) where each bag cost stops being used
BREAKPOINT_TABLE = [
    (1, 3.667, 0.167), (2, 6.350, 0.133), (3, 9.044, 0.253), (4, 11.761, 0.317),
    (5, 14.477, 0.252), (6, 17.188, 0.321), (7, 19.902, 0.321), (8, 22.622, 0.393),
    (9, 25.338, 0.430), (10, 28.052, 0.406), (11, 30.772, 0.465), (12, 33.490, 0.472),
    (13, 36.206, 0.539), (14, 38.923, 0.563), (15, 41.642, 0.576), (16, 44.360, 0.615),
    (17, 47.076, 0.638), (18, 49.795, 0.690), (19, 52.514, 0.719), (20, 55.231, 0.732),
    (21, 57.948, 0.766), (22, 60.668, 0.793),
]


def _criterion(number: int, description: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    print(line)
    assert ok, line


def test_criterion_01_transformation_factor_table():
    rho = BRICK_ROBUSTNESS
    ok = all(
        transformation_factor(z, rho) == Fraction(expected)
        for z, expected in FACTOR_TABLE.items()
    )
    _criterion(1, "transformation factors for costs 2..60 match the exact table", ok)


def test_criterion_02_negative_factor_sum_bound():
    total = negative_factor_sum(60, BRICK_ROBUSTNESS)
    # independent route: sum the frozen table's negative entries directly
    recomputed = sum(f for f in map(Fraction, FACTOR_TABLE.values()) if f < 0)
    ok = total > -12 and total == recomputed
    _criterion(2, f"negative transformation factors sum to {total} > -12", ok)


def test_criterion_03_surplus_tables():
    ok = True
    for lam, expected in SURPLUS_TABLE.items():
        got = normalized_surplus(Fraction(lam))
        ok = ok and abs(got.numerator / got.denominator - expected) <= TABLE_TOLERANCE

    drops = [p for p in surplus_breakpoints(Fraction(61)) if p.dropped_cost is not None]
    ok = ok and len(drops) == len(BREAKPOINT_TABLE)
    for point, (cost, lam, surplus) in zip(drops, BREAKPOINT_TABLE):
        ok = ok and point.dropped_cost == cost
        ok = ok and abs(point.lam.numerator / point.lam.denominator - lam) <= TABLE_TOLERANCE
        ok = ok and abs(point.surplus.numerator / point.surplus.denominator - surplus) <= TABLE_TOLERANCE

    ok = ok and normalized_surplus(Fraction(11, 3)) == Fraction(1, 6)
    ok = ok and normalized_surplus(Fraction(4)) == Fraction(1, 12)
    vertices = [p for p in surplus_breakpoints(Fraction(61)) if 4 <= p.lam <= 60]
    ok = ok and min(p.surplus for p in vertices) == Fraction(1, 12)
    _criterion(3, "surplus tables, breakpoints, and exact spot values all match", ok)


def _full_run(name: str, grid: dict):
    """Run a campaign of ``verify.CAMPAIGNS`` on its grid, pinned to the grid the criterion states."""
    campaign = CAMPAIGNS[name]
    report = campaign.run()
    assert report.grid == grid, report.grid
    return report, campaign.meets(report)


def test_criterion_04_success_sweep_full_range():
    report, met = _full_run("success-range", {
        "campaign": "bricks-success-range", "m_max": 144, "lambda_max": 60, "rho": "8/5"})
    ok = met and report.ok and report.checked == 626_400
    _criterion(4, f"coin construction reaches n on all {report.checked} instances "
                  f"(m <= 144, 60 jobs/machine) in {report.elapsed_ms} ms", ok)


def test_criterion_05_near_tightness_witness():
    solution = bricks_bags(45, 9, 9, BRICK_ROBUSTNESS)
    ok = solution.bag_sizes == (8, 8, 6, 6, 4, 4, 4, 3, 3) and solution.total_size == 46

    shaved, met = _full_run("shaved-witness", {
        "campaign": "bricks-success-range", "m_max": 9, "lambda_max": 5, "rho": "159/100"})
    ok = ok and met and shaved.checked == 225
    ok = ok and {"n": 45, "m": 9, "reason": "total size 44 < 45"} in shaved.failures
    shaved_total = bricks_bags(45, 9, 9, Fraction(159, 100)).total_size
    ok = ok and shaved_total <= 44
    _criterion(5, f"factor 8/5 yields total 46 at (45, 9); 159/100 drops to {shaved_total}", ok)


def test_criterion_06_sand_tightness_both_sides():
    # a probe that differs from the tight factor is a failure of the campaign
    report, met = _full_run("sand-tightness", {
        "campaign": "sand-tightness", "m_max": 6, "trials": 1000, "seed": SEED})
    ok = met and report.ok
    ok = ok and report.checked == 40_200  # b adversary configurations + 1,000 trials per cell
    _criterion(6, "sand bags survive every adversary at the tight factor and "
                  "the probe reports exactly it (2 <= m <= 6, 1 <= b <= 2m)", ok)


def test_criterion_07_discretized_lower_bound_certificate():
    # one check per integer bag profile summing to m**b; the least probe must equal the bound
    report, met = _full_run("lower-bound", {"campaign": "lower-bound", "cells": [
        [2, 2], [2, 3], [3, 3], [2, 4], [2, 5], [4, 3], [5, 3], [3, 4], [6, 3]]})
    ok = met and report.ok and report.checked == 11_129
    _criterion(7, "every integer bag profile loses at least the tight factor "
                  "against the adversary family, and some profile loses exactly that", ok)


def test_criterion_08_small_jobs_packing_suite():
    rng = random.Random(SEED)
    ok = True
    for _ in range(500):
        q = Fraction(rng.randint(5, 100), 100)
        m = rng.randint(2, 8)
        b = m if rng.random() < 0.5 else 2 * m
        jobs = []
        total = Fraction(0)
        while total < m:
            p = Fraction(rng.randint(1, 60), 60) * q
            jobs.append(p)
            total += p
        instance = Instance(jobs, m, b)
        ok = ok and pebble_ratio(instance) <= q

        result = pebbles_bags(instance, sand_robustness(m, b) + q)
        ok = ok and result.packed_all

        reference = sand_bags(m, b, m).sizes
        normalizer = Fraction(m) / instance.total
        packed_prefix = Fraction(0)
        reference_prefix = Fraction(0)
        for k in range(b):
            packed_prefix += result.bag_sizes[k] * normalizer
            reference_prefix += reference[k]
            ok = ok and packed_prefix >= reference_prefix
        if not ok:
            break
    _criterion(8, "500 random small-jobs instances pack fully and dominate "
                  "the reference prefix sums at every index", ok)


def test_criterion_09_end_to_end_bricks_robustness():
    report, met = _full_run("bricks-robustness", {
        "campaign": "bricks-robustness-range", "n_max": 40, "m_max": 8})
    ok = met and report.ok and report.checked == 184_649
    _criterion(9, f"coin assignment placed the dispatcher bags on all {report.checked} "
                  "integral speed profiles (m <= 8, n <= 40)", ok)


def test_criterion_10_oracle_equals_full_enumeration():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        b = rng.randint(1, 6)
        m = rng.randint(1, 3)
        bags = BagProfile([Fraction(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(b)])
        speeds = SpeedProfile([rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)])

        best = None
        for combo in itertools.product(range(m), repeat=b):
            try:
                value = makespan(Assignment(combo), bags, speeds)
            except InvalidAssignment:
                continue
            if best is None or value < best:
                best = value

        value, witness = optimal_second_stage(bags, speeds)
        ok = ok and value == best and makespan(witness, bags, speeds) == value
        if not ok:
            break
    _criterion(10, "pruned exact oracle equals unpruned enumeration on 200 instances", ok)
