import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from speedrobust.bricks import BRICK_ROBUSTNESS, bricks_bags, trim_to_total
from speedrobust.model import (
    Assignment,
    BagProfile,
    InvalidAssignment,
    SizeLimit,
    SpeedProfile,
    makespan,
)
from speedrobust.numerics import ceil_div
from speedrobust.second_stage import (
    _search_min_makespan,
    greedy_assignment,
    integral_assignment,
    optimal_second_stage,
)


def naive_min_makespan(bags: BagProfile, speeds: SpeedProfile) -> Fraction:
    best = None
    for combo in itertools.product(range(len(speeds.speeds)), repeat=len(bags.sizes)):
        try:
            value = makespan(Assignment(combo), bags, speeds)
        except InvalidAssignment:
            continue
        if best is None or value < best:
            best = value
    return best


# -- capacity greedy ------------------------------------------------------------

def test_greedy_known_runs():
    bags = BagProfile([8, 4, 2, 1])
    speeds = SpeedProfile([8, 7])
    trace: list = []
    result = greedy_assignment(bags, speeds, Fraction(16, 15), trace)
    assert result is not None
    assert result.machine_of_bag == (0, 1, 1, 1)
    assert makespan(result, bags, speeds) == 1
    assert trace[0]["machine"] == 0 and trace[0]["before"] == Fraction(128, 15)

    assert greedy_assignment(BagProfile([2]), SpeedProfile([1, 1]), Fraction(3, 2)) is None


def test_greedy_single_machine_threshold():
    speeds = SpeedProfile([10])
    assert greedy_assignment(BagProfile([4, 3, 3]), speeds, Fraction(1)) is not None
    assert greedy_assignment(BagProfile([4, 4, 3]), speeds, Fraction(1)) is None


def test_greedy_breaks_capacity_ties_to_lowest_index():
    result = greedy_assignment(BagProfile([1]), SpeedProfile([1, 1]), Fraction(2))
    assert result.machine_of_bag == (0,)


def test_greedy_routes_empty_bags_to_a_live_machine():
    bags = BagProfile([2, 0])
    speeds = SpeedProfile([2, 0])
    result = greedy_assignment(bags, speeds, Fraction(1))
    assert result is not None
    assert makespan(result, bags, speeds) == 1


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.fractions(min_value=1, max_value=3, max_denominator=8),
    st.integers(),
)
def test_greedy_succeeds_whenever_capacity_condition_holds(m, b, rho, seed):
    # bags obeying  a_k <= (rho*P - earlier sizes)/m  always fit at factor rho
    rng = random.Random(seed)
    raw = [rng.randint(0, 30) for _ in range(m)]
    if not any(raw):
        raw[0] = 1
    total = Fraction(sum(raw))
    speeds = SpeedProfile([Fraction(r) for r in raw])

    sizes = []
    prefix = Fraction(0)
    previous = None
    for _ in range(b):
        bound = (rho * total - prefix) / m
        size = bound * Fraction(rng.randint(0, 8), 8)
        if previous is not None:
            size = min(size, previous)
        sizes.append(size)
        prefix += size
        previous = size
    result = greedy_assignment(BagProfile(sizes), speeds, rho)
    assert result is not None
    assert makespan(result, BagProfile(sizes), speeds) <= rho


# -- coin greedy ----------------------------------------------------------------

def test_integral_known_runs():
    bags = [3, 3] + [1] * 8
    speeds = [4] + [1] * 9
    trace: list = []
    result = integral_assignment(bags, speeds, BRICK_ROBUSTNESS, trace)
    assert result is not None
    # both size-3 bags cost 2 coins and drain the speed-4 machine
    assert result.machine_of_bag[0] == 0 and result.machine_of_bag[1] == 0
    assert trace[1]["after"] == 0
    assert makespan(result, BagProfile(bags), SpeedProfile(speeds)) <= BRICK_ROBUSTNESS

    assert integral_assignment([1], [1], BRICK_ROBUSTNESS) is not None


def test_integral_places_trimmed_construction_on_flat_speeds():
    trimmed = trim_to_total(bricks_bags(45, 9, 9, BRICK_ROBUSTNESS), 45)
    result = integral_assignment(list(trimmed.bag_sizes), [5] * 9, BRICK_ROBUSTNESS)
    assert result is not None
    value = makespan(result, BagProfile(trimmed.bag_sizes), SpeedProfile([5] * 9))
    assert value <= BRICK_ROBUSTNESS


def test_integral_rejects_unsorted_and_reports_failure():
    with pytest.raises(ValueError):
        integral_assignment([1, 3], [4], BRICK_ROBUSTNESS)
    assert integral_assignment([5, 5], [3, 3], Fraction(1)) is None


def test_integral_coins_stay_integral_and_cover_generator():
    # lockstep with the generator: its remaining coins never exceed the
    # assigner's pooled coins, so a rich-enough machine always exists
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 9)
        n = rng.randint(1, 12 * m)
        solution = bricks_bags(n, m, m, BRICK_ROBUSTNESS)

        raw = [rng.randint(0, n) for _ in range(m - 1)]
        speeds = []
        left = n
        for r in raw:
            take = min(r, left)
            speeds.append(take)
            left -= take
        speeds.append(left)
        speeds.sort(reverse=True)

        coins = list(speeds)
        generator_coins = n
        for size, cost in zip(solution.bag_sizes, solution.bag_costs):
            if cost == 0:
                break
            generator_coins -= cost
            pay = ceil_div(size * BRICK_ROBUSTNESS.denominator, BRICK_ROBUSTNESS.numerator)
            assert pay <= cost
            best = max(range(m), key=coins.__getitem__)
            assert coins[best] >= pay, (n, m, speeds)
            coins[best] -= pay
            assert all(isinstance(c, int) and c >= 0 for c in coins)
            assert generator_coins <= sum(coins)


# -- both assigners against their original loops ---------------------------------

def reference_greedy(bags, speeds, rho, trace):
    """The capacity greedy as first written, on Fraction capacities."""
    caps = [rho * s for s in speeds.speeds]
    owners = [0] * len(bags.sizes)
    resting = next(i for i, s in enumerate(speeds.speeds) if s > 0)
    for k, size in enumerate(bags.sizes):
        if size == 0:
            owners[k] = resting
            trace.append({"bag": k, "size": size, "machine": resting,
                          "before": caps[resting], "after": caps[resting]})
            continue
        i = max(range(len(caps)), key=caps.__getitem__)
        trace.append({"bag": k, "size": size, "machine": i,
                      "before": caps[i], "after": caps[i] - size})
        if caps[i] < size:
            return None
        caps[i] -= size
        owners[k] = i
    return tuple(owners)


def reference_integral(sizes, coins, rho, trace):
    """The coin greedy as first written, one ceil_div per bag."""
    coins = list(coins)
    owners = [0] * len(sizes)
    resting = next(i for i, c in enumerate(coins) if c > 0)
    for k, size in enumerate(sizes):
        if size == 0:
            owners[k] = resting
            trace.append({"bag": k, "size": size, "machine": resting,
                          "before": coins[resting], "after": coins[resting]})
            continue
        pay = ceil_div(size * rho.denominator, rho.numerator)
        i = max(range(len(coins)), key=coins.__getitem__)
        trace.append({"bag": k, "size": size, "machine": i,
                      "before": coins[i], "after": coins[i] - pay})
        if coins[i] < pay:
            return None
        coins[i] -= pay
        owners[k] = i
    return tuple(owners)


# Few distinct small values, so ties, zero bags and speed-0 machines are common.
small_fractions = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 1, 2, 3, 4]))
speed_lists = st.lists(st.integers(0, 6), min_size=1, max_size=6).filter(any)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(small_fractions, max_size=8),
    st.lists(small_fractions, min_size=1, max_size=6).filter(any),
    st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=7),
)
def test_greedy_matches_fraction_reference(sizes, speed_values, rho):
    bags, speeds = BagProfile(sizes), SpeedProfile(speed_values)
    expected_trace: list = []
    expected = reference_greedy(bags, speeds, rho, expected_trace)
    trace: list = []
    result = greedy_assignment(bags, speeds, rho, trace)
    assert (result and result.machine_of_bag) == expected
    assert trace == expected_trace
    assert all(isinstance(t["before"], Fraction) for t in trace)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=8),
    speed_lists,
    st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=7),
)
def test_integral_matches_coin_reference(sizes, coins, rho):
    sizes = sorted(sizes, reverse=True)
    expected_trace: list = []
    expected = reference_integral(sizes, coins, rho, expected_trace)
    trace: list = []
    result = integral_assignment(sizes, coins, rho, trace)
    assert (result and result.machine_of_bag) == expected
    assert trace == expected_trace


def test_greedy_rejects_nonpositive_factor():
    for rho in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            greedy_assignment(BagProfile([1]), SpeedProfile([1]), rho)
        with pytest.raises(ValueError):
            greedy_assignment(BagProfile([0, 0]), SpeedProfile([1]), rho)


def test_integral_rejects_bad_factor_and_negative_sizes():
    with pytest.raises(ValueError):
        integral_assignment([1], [1], Fraction(0))
    with pytest.raises(ValueError):
        integral_assignment([1, -1], [1], BRICK_ROBUSTNESS)


# -- exact oracle ----------------------------------------------------------------

def test_oracle_known_values():
    value, witness = optimal_second_stage(BagProfile([2, 2]), SpeedProfile([3, 1]))
    assert value == Fraction(4, 3)
    assert makespan(witness, BagProfile([2, 2]), SpeedProfile([3, 1])) == value

    value, _ = optimal_second_stage(BagProfile([1]), SpeedProfile([1]))
    assert value == 1

    # divisible-load profile against one adversary configuration, rescaled
    bags = BagProfile([8, 4, 2, 1])
    speeds = SpeedProfile([Fraction(45, 4), Fraction(15, 4)])
    value, _ = optimal_second_stage(bags, speeds)
    assert value <= Fraction(16, 15)


def test_oracle_handles_zero_speed_and_zero_bags():
    value, witness = optimal_second_stage(BagProfile([3, 0]), SpeedProfile([1, 0]))
    assert value == 3
    assert makespan(witness, BagProfile([3, 0]), SpeedProfile([1, 0])) == 3
    value, _ = optimal_second_stage(BagProfile([0, 0]), SpeedProfile([1, 1]))
    assert value == 0


def test_oracle_enforces_desk_scale():
    with pytest.raises(SizeLimit):
        optimal_second_stage(BagProfile([1] * 17), SpeedProfile([1]))
    with pytest.raises(SizeLimit):
        optimal_second_stage(BagProfile([1]), SpeedProfile([1] * 9))


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_oracle_matches_naive_enumeration(seed):
    rng = random.Random(seed)
    b = rng.randint(1, 6)
    m = rng.randint(1, 3)
    bags = BagProfile([Fraction(rng.randint(0, 24), rng.randint(1, 4)) for _ in range(b)])
    raw = [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
    speeds = SpeedProfile(raw)
    value, witness = optimal_second_stage(bags, speeds)
    assert value == naive_min_makespan(bags, speeds)
    assert makespan(witness, bags, speeds) == value


@settings(max_examples=30, deadline=None)
@given(st.integers())
def test_oracle_lower_bounds_both_greedy_assigners(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    b = rng.randint(1, 6)
    sizes = sorted((rng.randint(0, 12) for _ in range(b)), reverse=True)
    raw = sorted((rng.randint(0, 8) for _ in range(m - 1)), reverse=True) + [rng.randint(1, 8)]
    raw.sort(reverse=True)
    bags = BagProfile(sizes)
    speeds = SpeedProfile(raw)
    optimal, _ = optimal_second_stage(bags, speeds)

    greedy = greedy_assignment(bags, speeds, Fraction(2))
    if greedy is not None:
        assert optimal <= makespan(greedy, bags, speeds)
    coin = integral_assignment(sizes, raw, Fraction(2))
    if coin is not None:
        assert optimal <= makespan(coin, bags, speeds)


# -- the integer search against the former Fraction search -----------------------

def reference_search(sizes, speeds):
    """The oracle's search as first written, comparing Fractions throughout."""
    m = len(speeds)
    total = sum(sizes)

    loads = [0] * m
    warm = [0] * len(sizes)
    for k, a in enumerate(sizes):
        i = min(range(m), key=lambda j: Fraction(loads[j] + a, speeds[j]))
        loads[i] += a
        warm[k] = i
    start = max(Fraction(loads[j], speeds[j]) for j in range(m))

    best_value = start
    best_owner = list(warm)
    floor_value = Fraction(total, sum(speeds))

    loads = [0] * m
    owner = [0] * len(sizes)

    def dfs(k, current):
        nonlocal best_value, best_owner
        if best_value == floor_value:
            return
        if k == len(sizes):
            best_value = current
            best_owner = owner[:]
            return
        a = sizes[k]
        candidates = []
        seen = set()
        for j in range(m):
            key = (loads[j], speeds[j])
            if key in seen:
                continue
            seen.add(key)
            ratio = Fraction(loads[j] + a, speeds[j])
            if ratio >= best_value:
                continue
            candidates.append((ratio, j))
        candidates.sort()
        for ratio, j in candidates:
            if ratio >= best_value:
                continue
            loads[j] += a
            owner[k] = j
            dfs(k + 1, max(current, ratio))
            loads[j] -= a
    dfs(0, Fraction(0))
    return best_value, best_owner


# Few distinct values, so equal sizes, equal speeds and ties between leaves are common.
@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=10),
    st.sampled_from([1, 1, 2, 6]),
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.sampled_from([9, 3, 2]),
)
# An incumbent at ceil(total * unit / sum(speeds)) is optimal here, and the
# former search still replaced its witness with a later tying leaf.
@example([12, 12, 4, 4, 4, 3, 2, 2], 1, [9, 3, 2], 9)
@example([1, 1, 1, 1], 6, [4], 9)
def test_integer_search_matches_fraction_search(raw_sizes, factor, raw_speeds, grain):
    sizes = sorted((a * factor for a in raw_sizes), reverse=True)
    speeds = sorted((1 + (s - 1) % grain for s in raw_speeds), reverse=True)
    value, witness = _search_min_makespan(sizes, speeds)
    assert (value, witness) == reference_search(sizes, speeds)
    assert isinstance(value, Fraction)


def test_direct_optimum_known_values():
    assert optimal_second_stage(BagProfile([1] * 13), SpeedProfile([4, 3, 3, 2, 1]))[0] == 1
    assert optimal_second_stage(BagProfile([3, 2]), SpeedProfile([5]))[0] == 1
    assert optimal_second_stage(BagProfile([2, 2, 1]), SpeedProfile([3, 2]))[0] == 1
