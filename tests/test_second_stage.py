import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from speedrobust.bricks import BRICK_ROBUSTNESS, bricks_bags, trim_to_total
from speedrobust.model import (
    Assignment,
    BagProfile,
    Infeasible,
    SizeLimit,
    SpeedProfile,
    makespan,
)
from speedrobust.numerics import _to_common_ints, ceil_div
from speedrobust.second_stage import (
    _coin_counterexample,
    _first_positive,
    _largest_first,
    _search_min_makespan,
    greedy_assignment,
    integral_assignment,
    optimal_second_stage,
)
from speedrobust.verify import _partitions

from test_model import brute_force_min_makespan


def search(sizes, speeds, stop=None):
    """The kernel's (time, unit, owners) as the (value, owners) pair it returned as a Fraction."""
    time, unit, owners = _search_min_makespan(sizes, speeds, stop)
    return Fraction(time, unit), owners


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


@pytest.mark.parametrize("sizes,speeds", [
    ([2.5, 1], [3, 1]),  # not truncated to 2
    ([Fraction(5, 2), 1], [3, 1]),
    ([2, 1], [3.7, 1]),
    ([2, 1], [3.0, 1]),  # a float even when integral
    ([True, 1], [3, 1]),
    ([2, 1], [3, -1]),
])
def test_integral_refuses_sizes_and_speeds_that_are_not_whole(sizes, speeds):
    with pytest.raises(ValueError):
        integral_assignment(sizes, speeds, BRICK_ROBUSTNESS)


def test_integral_refuses_speeds_that_are_all_zero():
    with pytest.raises(Infeasible):
        integral_assignment([1], [0, 0], BRICK_ROBUSTNESS)


def test_integral_takes_whole_rationals_as_integers():
    assert integral_assignment([Fraction(3), 1], [Fraction(3), 1], BRICK_ROBUSTNESS) == \
        integral_assignment([3, 1], [3, 1], BRICK_ROBUSTNESS)


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


def reference_oracle(bags, speeds):
    """The oracle's front door as first written: positive machines found and owners remapped."""
    resting = _first_positive(speeds.speeds)
    positive = [(i, s) for i, s in enumerate(speeds.speeds) if s > 0]
    active = [a for a in bags.sizes if a > 0]
    owners = [resting] * len(bags.sizes)
    if not active:
        return Fraction(0), Assignment(owners)

    scaled, _ = _to_common_ints(list(active) + [s for _, s in positive])
    int_sizes, int_speeds = scaled[: len(active)], scaled[len(active):]
    value, owner_local = search(int_sizes, int_speeds)
    for k, j in enumerate(owner_local):
        owners[k] = positive[j][0]
    return value, Assignment(owners)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(small_fractions, max_size=8),
    st.lists(small_fractions, min_size=1, max_size=4).filter(any),
)
@example([3, 0, 0], [1, 1, 0])  # zero bags, and a speed-0 last machine
@example([2, 2, 1], [3, 2, 0])
@example([0, 0], [2, 1])  # no positive size: the search's warm start is its floor, 0
def test_oracle_matches_its_remapping_front_door(sizes, speed_values):
    # zero sizes and speeds throughout: the sorted profiles' prefixes must stand in for the remap
    bags, speeds = BagProfile(sizes), SpeedProfile(speed_values)
    assert repr(optimal_second_stage(bags, speeds)) == repr(reference_oracle(bags, speeds))


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
    assert value == brute_force_min_makespan(bags, speeds)
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
# An incumbent at ceil(total * unit / sum(speeds)) is optimal here.
@example([12, 12, 4, 4, 4, 3, 2, 2], 1, [9, 3, 2], 9)
@example([1, 1, 1, 1], 6, [4], 9)
@example([4, 4, 3, 3, 3, 1], 1, [1, 1], 9)  # the optimum 9 is the floor; one above it stops at 10
@example([11, 8, 7, 5], 1, [7, 6, 6], 9)  # the optimum 11/6 lies one time unit below 13/7
def test_integer_search_matches_fraction_search(raw_sizes, factor, raw_speeds, grain):
    sizes = sorted((a * factor for a in raw_sizes), reverse=True)
    speeds = sorted((1 + (s - 1) % grain for s in raw_speeds), reverse=True)
    value, witness = search(sizes, speeds)
    assert value == reference_search(sizes, speeds)[0]
    assert isinstance(value, Fraction)
    assert makespan(Assignment(witness), BagProfile(sizes), SpeedProfile(speeds)) == value


# Thresholds on both sides of the optimum and of the first incumbent, at them, and off the
# search's integer time grid.
@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=9),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.booleans(),
    st.integers(-4, 4),
    st.sampled_from([1, 2, 3, 7, 60]),
)
@example([5, 3, 3], [2, 1], False, 0, 1)  # a threshold exactly at the optimum 4
@example([3, 3, 2, 2, 2], [1, 1], True, -1, 7)  # 1/7 below the first incumbent 7, above the optimum 6
def test_thresholded_search_is_the_plain_search_until_it_can_stop(raw_sizes, raw_speeds,
                                                                  from_first, shift, grain):
    sizes, speeds = sorted(raw_sizes, reverse=True), sorted(raw_speeds, reverse=True)
    plain = search(sizes, speeds)
    # Every makespan is at most sum(sizes), so that threshold returns the first incumbent.
    first, _ = search(sizes, speeds, (sum(sizes), 1))
    anchor = first if from_first else plain[0]
    threshold = max(anchor + Fraction(shift, grain), Fraction(0))
    value, witness = search(sizes, speeds, (threshold.numerator, threshold.denominator))
    if threshold < plain[0]:
        assert (value, witness) == plain
    else:
        assert value <= threshold
        assert makespan(Assignment(witness), BagProfile(sizes), SpeedProfile(speeds)) == value


# The bounds lower_bound_probe settles configurations with: no makespan is below the fluid bound
# or below a prefix bound A_j / S_j (the j largest sizes on the j fastest speeds), and every size
# on the fastest machine is a makespan.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=9),
       st.lists(st.integers(1, 12), min_size=1, max_size=8))
@example([5, 1], [3, 1])  # the prefix bound 5/3 is the optimum, above the fluid bound 3/2
def test_search_lies_between_the_probe_bounds(raw_sizes, raw_speeds):
    sizes, speeds = sorted(raw_sizes, reverse=True), sorted(raw_speeds, reverse=True)
    value, _ = search(sizes, speeds)
    prefix = max(Fraction(a, s) for a, s in zip(accumulate(sizes), accumulate(speeds)))
    assert max(prefix, Fraction(sum(sizes), sum(speeds))) <= value <= Fraction(sum(sizes), speeds[0])


def test_direct_optimum_known_values():
    assert optimal_second_stage(BagProfile([1] * 13), SpeedProfile([4, 3, 3, 2, 1]))[0] == 1
    assert optimal_second_stage(BagProfile([3, 2]), SpeedProfile([5]))[0] == 1
    assert optimal_second_stage(BagProfile([2, 2, 1]), SpeedProfile([3, 2]))[0] == 1


# Costs in any order, zeros included: the lemma holds for the kernel's order, not only sorted bags.
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 8), max_size=8),
    st.integers(1, 24),
    st.integers(1, 6),
)
@example([2], 3, 2)  # a cost equal to the ceiling fits, and the floor would be below it
@example([1, 2, 2], 5, 2)  # [4, 1] is the only split of 5 on which these costs fail
def test_coin_counterexample_matches_the_partition_walk(costs, total, machines):
    def fails(caps):
        return _largest_first(costs, list(caps), 0) is None

    walk = [parts + (0,) * (machines - len(parts)) for parts in _partitions(total, machines, total)]
    caps = _coin_counterexample(costs, total, machines)
    assert (caps is None) == (not any(map(fails, walk)))
    if caps is not None:
        assert len(caps) == machines and sum(caps) == total and caps[-1] >= 0
        assert caps == sorted(caps, reverse=True)
        assert fails(caps)
