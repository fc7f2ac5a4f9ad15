import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from speedrobust.model import (
    Assignment,
    BagProfile,
    FractionalSolution,
    Instance,
    InvalidAssignment,
    SpeedProfile,
    makespan,
)

sizes_strategy = st.lists(
    st.fractions(min_value=0, max_value=50, max_denominator=20), min_size=1, max_size=6
)


def brute_force_min_makespan(bags: BagProfile, speeds: SpeedProfile) -> Fraction:
    best = None
    for combo in itertools.product(range(len(speeds.speeds)), repeat=len(bags.sizes)):
        try:
            value = makespan(Assignment(combo), bags, speeds)
        except InvalidAssignment:
            continue
        if best is None or value < best:
            best = value
    return best


def test_makespan_known_values():
    bags = BagProfile([2, 2])
    speeds = SpeedProfile([3, 1])
    # both bags on the fast machine; brute force confirms this is the optimum
    assert makespan(Assignment([0, 0]), bags, speeds) == Fraction(4, 3)
    assert brute_force_min_makespan(bags, speeds) == Fraction(4, 3)

    assert makespan(Assignment([0]), BagProfile([5]), SpeedProfile([5])) == 1

    bags = BagProfile([8, 4, 2, 1])
    speeds = SpeedProfile([8, 7])
    assert makespan(Assignment([0, 1, 1, 1]), bags, speeds) == 1


def test_makespan_rejects_positive_bag_on_dead_machine():
    bags = BagProfile([3, 0])
    speeds = SpeedProfile([2, 0])
    with pytest.raises(InvalidAssignment):
        makespan(Assignment([1, 0]), bags, speeds)
    # the zero-size bag may sit anywhere, including the dead machine
    assert makespan(Assignment([0, 1]), bags, speeds) == Fraction(3, 2)


def test_makespan_rejects_malformed_assignments():
    bags = BagProfile([1, 1])
    speeds = SpeedProfile([1])
    with pytest.raises(InvalidAssignment):
        makespan(Assignment([0]), bags, speeds)
    with pytest.raises(InvalidAssignment):
        makespan(Assignment([0, 5]), bags, speeds)


def test_assignment_refuses_negative_machines():
    with pytest.raises(InvalidAssignment, match="machine indices must be non-negative"):
        Assignment([-1])


@given(sizes_strategy, st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4))
def test_makespan_at_least_average_load(bag_sizes, raw_speeds):
    if all(s == 0 for s in raw_speeds):
        raw_speeds = raw_speeds + [1]
    bags = BagProfile(bag_sizes)
    speeds = SpeedProfile(raw_speeds)
    owners = []
    positive = [i for i, s in enumerate(speeds.speeds) if s > 0]
    for k, size in enumerate(bags.sizes):
        owners.append(positive[k % len(positive)])
    value = makespan(Assignment(owners), bags, speeds)
    assert value >= sum(bags.sizes) / sum(speeds.speeds)


@given(
    sizes_strategy,
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=10),
)
def test_makespan_scales_inversely_with_speeds(bag_sizes, raw_speeds, alpha):
    bags = BagProfile(bag_sizes)
    speeds = SpeedProfile(raw_speeds)
    faster = SpeedProfile([alpha * s for s in raw_speeds])
    owners = [k % len(raw_speeds) for k in range(len(bags.sizes))]
    assert makespan(Assignment(owners), bags, faster) == makespan(Assignment(owners), bags, speeds) / alpha


def test_profiles_sort_non_increasing():
    assert BagProfile([1, 3, 2]).sizes == (3, 2, 1)
    assert SpeedProfile(["1/2", 2, 1]).speeds == (2, 1, Fraction(1, 2))
    inst = Instance([1, 5, 3], 2, 2)
    assert inst.job_sizes == (5, 3, 1)
    assert sum(inst.job_sizes) == 9


def test_profile_validation():
    with pytest.raises(ValueError):
        SpeedProfile([0, 0])
    with pytest.raises(ValueError):
        BagProfile([-1])
    with pytest.raises(ValueError):
        Instance([0, 0], 2, 2)
    with pytest.raises(ValueError):
        Instance([1], 0, 1)


@pytest.mark.parametrize("build", [
    lambda: Instance([0.1, 0.2], 2, 2),
    lambda: BagProfile([3, 0.5]),
    lambda: SpeedProfile([1, 0.25]),
])
def test_profiles_refuse_floats(build):
    # Fraction(0.1) would store 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match=r"floats are rejected\): 0\.(1|5|25)$"):
        build()


def test_fractional_solution_validation():
    sol = FractionalSolution({2: Fraction(3, 2), 1: Fraction(1, 2)}, 2)
    assert sum(sol.counts.values()) == sol.bag_budget == 2
    assert sum(z * x for z, x in sol.counts.items()) == Fraction(7, 2)
    assert min(sol.counts) == 1 and max(sol.counts) == 2
    with pytest.raises(ValueError):
        FractionalSolution({0: 1}, 1)
    with pytest.raises(ValueError):
        FractionalSolution({1: -1}, 1)
    with pytest.raises(ValueError):
        FractionalSolution({1: 3}, 2)


def test_fractional_solution_budget_is_exact():
    counts = {3: Fraction(1, 3), 2: Fraction(5, 7), 1: Fraction(2, 11)}
    budget = sum(counts.values(), Fraction(0))
    assert sum(FractionalSolution(counts, budget).counts.values()) == budget
    assert sum(FractionalSolution({1: Fraction(1, 2), 2: Fraction(1, 2)}, 1).counts.values()) == 1
    over = {**counts, 4: Fraction(1, 10**12)}
    with pytest.raises(ValueError, match="exceed the bag budget"):
        FractionalSolution(over, budget)
    with pytest.raises(ValueError, match="exceed the bag budget"):
        FractionalSolution({1: 1}, 1 - Fraction(1, 10**12))
