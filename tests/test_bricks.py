import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speedrobust import bricks
from speedrobust.bricks import (
    _coin_levels,
    BRICK_ROBUSTNESS,
    bricks_bags,
    bricks_by_cost,
    bricks_fractional,
    negative_factor_sum,
    normalized_surplus,
    robust_bags,
    solution_size,
    surplus_breakpoints,
    transformation_factor,
    trim_to_total,
)
from speedrobust.model import FractionalSolution, Infeasible, SpeedProfile
from speedrobust.numerics import ceil_div, decimal_string, floor_scale
from speedrobust.sand import sand_robustness
from speedrobust.second_stage import optimal_second_stage


def _per_bag_costs(n, m, b):
    # reference: one payment of ceil(coins / m) per bag, 0 once the coins run out
    coins, costs = n, []
    for _ in range(b):
        z = -(-coins // m) if coins > 0 else 0
        costs.append(z)
        coins -= z
    return costs


def test_construction_known_profiles():
    sol = bricks_bags(45, 9, 9, BRICK_ROBUSTNESS)
    assert sol.bag_sizes == (8, 8, 6, 6, 4, 4, 4, 3, 3)
    assert sol.bag_costs == (5, 5, 4, 4, 3, 3, 3, 2, 2)
    assert sol.total_size == 46
    assert sol.successful

    sol = bricks_bags(13, 10, 10, BRICK_ROBUSTNESS)
    assert sol.bag_sizes[:3] == (3, 3, 1)
    assert sol.bag_costs[:3] == (2, 2, 1)
    assert sol.successful

    sol = bricks_bags(7, 7, 7, BRICK_ROBUSTNESS)
    assert sol.bag_sizes == (1,) * 7
    assert sol.total_size == 7
    assert sol.successful


def test_construction_pads_with_empty_bags():
    sol = bricks_bags(3, 10, 10, BRICK_ROBUSTNESS)
    assert len(sol.bag_sizes) == 10
    assert sol.bag_sizes[3:] == (0,) * 7
    assert sol.bag_costs[3:] == (0,) * 7


def test_construction_validates_inputs():
    with pytest.raises(ValueError):
        bricks_bags(0, 1, 1, BRICK_ROBUSTNESS)
    with pytest.raises(ValueError):
        bricks_bags(1, 1, 1, Fraction(1, 2))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=25),
)
def test_construction_size_cost_relation(n, m, b):
    sol = bricks_bags(n, m, b, BRICK_ROBUSTNESS)
    assert list(sol.bag_costs) == _per_bag_costs(n, m, b)
    assert sum(sol.bag_costs) <= n
    assert all(sol.bag_costs[i] >= sol.bag_costs[i + 1] for i in range(b - 1))
    for a, z in zip(sol.bag_sizes, sol.bag_costs):
        if z > 0:
            assert a == floor_scale(z, BRICK_ROBUSTNESS)
        else:
            assert a == 0


def test_trim_known_profiles():
    sol = bricks_bags(45, 9, 9, BRICK_ROBUSTNESS)
    assert trim_to_total(sol, 45).bag_sizes == (8, 8, 6, 6, 4, 4, 4, 3, 2)

    sol = bricks_bags(7, 7, 7, BRICK_ROBUSTNESS)
    assert trim_to_total(sol, 7).bag_sizes == sol.bag_sizes

    sol = bricks_bags(13, 10, 3, BRICK_ROBUSTNESS)  # bags [3, 3, 1]
    assert sol.bag_sizes == (3, 3, 1)
    assert trim_to_total(sol, 5).bag_sizes == (3, 2, 0)


def test_trim_never_increases_and_errors_when_short():
    sol = bricks_bags(45, 9, 9, BRICK_ROBUSTNESS)
    trimmed = trim_to_total(sol, 45)
    assert all(t <= a for t, a in zip(trimmed.bag_sizes, sol.bag_sizes))
    assert sum(trimmed.bag_sizes) == 45
    with pytest.raises(Infeasible):
        trim_to_total(sol, 47)


def test_cost_batched_counts_known_values():
    assert {z: int(x) for z, x in bricks_by_cost(45, 9, 9).counts.items()} == {5: 2, 4: 2, 3: 3, 2: 2}
    assert {z: int(x) for z, x in bricks_by_cost(13, 10, 10).counts.items()} == {2: 2, 1: 8}
    assert {z: int(x) for z, x in bricks_by_cost(6, 6, 6).counts.items()} == {1: 6}


def test_cost_batched_matches_one_by_one_everywhere():
    # identical cost multisets across the whole small grid
    for m in range(1, 21):
        for n in range(1, 501):
            one_by_one = Counter(z for z in _per_bag_costs(n, m, m) if z > 0)
            batched = {z: int(x) for z, x in bricks_by_cost(n, m, m).counts.items()}
            assert batched == dict(one_by_one), (n, m)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), m=st.integers(1, 60), b=st.integers(1, 80))
def test_cost_batched_is_the_checked_solution(n, m, b):
    # built unchecked, it must equal what the validating constructor makes of the same levels
    got = bricks_by_cost(n, m, b)
    expected = FractionalSolution(dict(_coin_levels(n, m, b, ceil_div)), b)
    assert got == expected
    assert list(got.counts.items()) == list(expected.counts.items())
    assert all(type(z) is int and type(x) is Fraction for z, x in got.counts.items())
    assert type(got.bag_budget) is Fraction


def test_fractional_known_values():
    counts = bricks_fractional(45, 9, 9).counts
    assert counts == {5: Fraction(9, 5), 4: Fraction(9, 4), 3: Fraction(3), 2: Fraction(39, 20)}
    sol = bricks_fractional(11, 3, 3)
    assert solution_size(sol, BRICK_ROBUSTNESS) == Fraction(23, 2)


def _fractional_counts(jobs, machines, bags):
    # reference: the cost-indexed fractional loop, counts left unrounded
    remaining_bags, coins, counts = bags, jobs, {}
    while remaining_bags > 0 and coins > 0:
        z = math.ceil(coins / machines)
        x = min(remaining_bags, (coins - machines * (z - 1)) / z)
        remaining_bags -= x
        coins -= x * z
        counts[z] = x
    return counts


positive_rationals = st.fractions(min_value=Fraction(1, 7), max_value=200, max_denominator=12)


@settings(max_examples=80)
@given(st.one_of(st.tuples(st.integers(1, 400), st.integers(1, 15), st.integers(1, 20)).map(
                     lambda t: tuple(map(Fraction, t))),
                 st.tuples(positive_rationals, positive_rationals, positive_rationals)))
def test_fractional_counts_match_reference_loop(args):
    assert bricks_fractional(*args).counts == _fractional_counts(*args), args


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3), Fraction(7, 3)]),
)
def test_fractional_scales_pointwise(n, m, alpha):
    base = bricks_fractional(n, m, m)
    scaled = bricks_fractional(alpha * n, alpha * m, alpha * m)
    assert scaled.counts == {z: alpha * x for z, x in base.counts.items()}
    assert solution_size(scaled, BRICK_ROBUSTNESS) == alpha * solution_size(base, BRICK_ROBUSTNESS)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=15))
def test_fractional_interior_counts(n, m):
    sol = bricks_fractional(n, m, m)
    lo, hi = min(sol.counts), max(sol.counts)
    for z, x in sol.counts.items():
        if lo < z < hi:
            assert x == Fraction(m, z)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=15))
def test_fractional_cost_budget(n, m):
    sol = bricks_fractional(n, m, m)
    paid = sum(z * x for z, x in sol.counts.items())
    assert paid <= n
    if sum(sol.counts.values()) < m:  # ran out of coins, not bags
        assert paid == n


def test_solution_size_known_values():
    assert solution_size(bricks_by_cost(45, 9, 9), BRICK_ROBUSTNESS) == 46
    assert solution_size(bricks_fractional(11, 3, 3), BRICK_ROBUSTNESS) == Fraction(23, 2)
    assert solution_size(FractionalSolution({}, 3), BRICK_ROBUSTNESS) == 0
    # a Fraction even when the total is whole: the benchmark digest writes Fraction and int apart
    for solution in (bricks_by_cost(45, 9, 9), bricks_fractional(9, 3, 3), FractionalSolution({}, 3)):
        assert type(solution_size(solution, BRICK_ROBUSTNESS)) is Fraction


def _fraction_solution_size(solution, rho):
    # reference: the former per-level Fraction sum
    return sum((x * floor_scale(z, rho) for z, x in solution.counts.items()), Fraction(0))


@settings(max_examples=80)
@given(st.tuples(positive_rationals, positive_rationals, positive_rationals),
       st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(159, 100), BRICK_ROBUSTNESS,
                        Fraction(7, 3), Fraction(1, 3)]))
def test_solution_size_matches_the_fraction_sum(args, rho):
    solution = bricks_fractional(*args)
    assert solution_size(solution, rho) == _fraction_solution_size(solution, rho), (args, rho)


def test_solution_size_refuses_a_non_positive_rho():
    for rho in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="rho must be positive"):
            solution_size(bricks_by_cost(3, 2, 2), rho)


def test_transformation_factor_known_values():
    rho = BRICK_ROBUSTNESS
    assert transformation_factor(2, rho) == 2
    assert transformation_factor(6, rho) == Fraction(-2, 5)
    assert transformation_factor(21, rho) == Fraction(-11, 20)
    assert transformation_factor(58, rho) == Fraction(-11, 19)
    with pytest.raises(ValueError):
        transformation_factor(1, rho)


def test_negative_factor_sum_bounds():
    assert negative_factor_sum(5, BRICK_ROBUSTNESS) == 0
    total = negative_factor_sum(60, BRICK_ROBUSTNESS)
    assert -12 < total < 0


def test_rounding_loss_within_negative_factor_budget():
    # integral vs fractional size: no loss up to 5 jobs per machine,
    # loss below 12 up to 60 jobs per machine
    rng = random.Random(5)
    pairs = [(n, m) for m in range(1, 7) for n in range(1, 5 * m + 1)]
    pairs += [(rng.randint(5 * m + 1, 60 * m), m) for m in range(1, 7) for _ in range(20)]
    for n, m in pairs:
        integral = solution_size(bricks_by_cost(n, m, m), BRICK_ROBUSTNESS)
        fractional = solution_size(bricks_fractional(n, m, m), BRICK_ROBUSTNESS)
        if Fraction(n, m) <= 5:
            assert integral >= fractional, (n, m)
        else:
            assert integral >= fractional - 12, (n, m)


def test_surplus_known_values():
    assert normalized_surplus(Fraction(11, 3)) == Fraction(1, 6)
    assert normalized_surplus(4) == Fraction(1, 12)
    assert normalized_surplus(1) == 0
    assert normalized_surplus(Fraction(1, 2)) == 0


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=12))
def test_surplus_is_a_function_of_the_ratio_alone(n, m):
    sol = bricks_fractional(n, m, m)
    direct = (solution_size(sol, BRICK_ROBUSTNESS) - n) / m
    assert direct == normalized_surplus(Fraction(n, m))


def test_breakpoint_walk_first_drops():
    points = surplus_breakpoints(7)
    drops = [p for p in points if p.dropped_cost is not None]
    assert drops[0].lam == Fraction(11, 3)
    assert drops[0].surplus == Fraction(1, 6)
    assert drops[0].dropped_cost == 1
    assert drops[1].lam == Fraction(127, 20)  # 6.35
    assert drops[1].dropped_cost == 2
    assert drops[1].surplus == Fraction(2, 15)


def test_surplus_piecewise_linear_between_vertices():
    points = surplus_breakpoints(20)
    for left, right in zip(points, points[1:]):
        mid = (left.lam + right.lam) / 2
        interpolated = left.surplus + (right.surplus - left.surplus) * (
            (mid - left.lam) / (right.lam - left.lam)
        )
        assert normalized_surplus(mid) == interpolated


def test_surplus_lower_bounds_over_range():
    points = surplus_breakpoints(61)
    assert all(p.surplus >= 0 for p in points)
    mids = [Fraction(k, 7) for k in range(1, 421)]
    assert all(normalized_surplus(lam) >= 0 for lam in mids)
    inside = [p for p in points if 4 <= p.lam <= 60]
    assert min(p.surplus for p in inside) == Fraction(1, 12)
    plateau = [p for p in points if 4 <= p.lam <= 6]
    assert all(p.surplus == Fraction(1, 12) for p in plateau)
    assert normalized_surplus(Fraction(9, 2)) == Fraction(1, 12)
    assert normalized_surplus(Fraction(11, 2)) == Fraction(1, 12)


def test_dispatcher_profiles():
    assert [int(a) for a in robust_bags(45, 9, 9).sizes] == [8, 8, 6, 6, 4, 4, 4, 3, 2]
    assert [int(a) for a in robust_bags(5, 5, 5).sizes] == [1, 1, 1, 1, 1]
    assert sum(robust_bags(45, 9, 9).sizes) == 45


def _shrink_sand_factor(monkeypatch):
    # 9/10 of the divisible-load factor: the packing past the cutover can no longer place every job
    exact = bricks.sand_robustness
    monkeypatch.setattr(bricks, "sand_robustness", lambda m, b: exact(m, b) * Fraction(9, 10))


@pytest.mark.parametrize("jobs,machines,bags", [(1000, 8, 8), (100, 1, 1), (244, 4, 4)])
def test_dispatcher_refuses_a_packing_that_leaves_jobs(monkeypatch, jobs, machines, bags):
    _shrink_sand_factor(monkeypatch)
    with pytest.raises(Infeasible, match=f"jobs={jobs} machines={machines} bags={bags}"):
        robust_bags(jobs, machines, bags)


def test_dispatcher_coin_branch_ignores_the_sand_factor(monkeypatch):
    _shrink_sand_factor(monkeypatch)
    assert [int(a) for a in robust_bags(45, 9, 9).sizes] == [8, 8, 6, 6, 4, 4, 4, 3, 2]


def test_dispatcher_switches_to_small_jobs_packing():
    # 61 jobs per machine: the coin construction is no longer covered, the
    # greedy packing runs at the divisible-load factor plus m/n, still below 8/5
    rho_pebbles = sand_robustness(2, 2) + Fraction(2, 122)
    assert rho_pebbles < BRICK_ROBUSTNESS
    profile = robust_bags(122, 2, 2)
    assert sum(profile.sizes) == 122
    assert all(a.denominator == 1 for a in profile.sizes)
    # at the cutover ratio itself the coin construction is still used
    at_cutover = robust_bags(60, 1, 1)
    assert [int(a) for a in at_cutover.sizes] == [60]


def test_dispatcher_large_case_stays_under_target():
    assert sand_robustness(1000, 1000) + Fraction(1, 61) < BRICK_ROBUSTNESS
    profile = robust_bags(61 * 1000, 1000, 1000)
    assert sum(profile.sizes) == 61 * 1000


def test_dispatcher_with_fewer_bags_is_not_eight_fifths():
    # n unit jobs on n unit-speed machines finish at 1 unbagged; with fewer bags
    # than machines the largest bag alone takes longer than 8/5.
    for machines, bags, worst in [(3, 2, 2), (4, 2, 3)]:
        profile = robust_bags(machines, machines, bags)
        value, _ = optimal_second_stage(profile, SpeedProfile([1] * machines))
        assert value == worst > BRICK_ROBUSTNESS


def test_decimal_string_rounding():
    assert decimal_string(Fraction(-2, 5), 5) == "-0.40000"
    assert decimal_string(Fraction(1, 6), 3) == "0.167"
    assert decimal_string(Fraction(1, 12), 3) == "0.083"
    assert decimal_string(Fraction(127, 20), 3) == "6.350"
    assert decimal_string(Fraction(3), 0) == "3"
