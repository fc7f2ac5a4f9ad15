import json
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from speedrobust.bricks import BRICK_ROBUSTNESS, _coin_totals, bricks_bags, bricks_by_cost, solution_size
from speedrobust.model import BagProfile, SpeedProfile
from speedrobust.numerics import format_rational
from speedrobust.sand import adversary_configs, sand_bags, sand_robustness
from speedrobust import verify
from speedrobust.bricks import robust_bags
from speedrobust.second_stage import _coin_costs, _coin_counterexample, _largest_first, greedy_assignment
from speedrobust.second_stage import integral_assignment, optimal_second_stage
from speedrobust.verify import (
    CAMPAIGNS,
    EXHAUSTIVE_PROFILES,
    _coin_walk,
    _partitions,
    enumerate_integral_speed_profiles,
    partition_count,
    verify_bricks_robustness,
    verify_bricks_success_range,
    verify_sand_upper,
)


def test_enumeration_known_values():
    def as_ints(profiles):
        return [[int(s) for s in p.speeds] for p in profiles]

    assert as_ints(enumerate_integral_speed_profiles(3, 2)) == [[3, 0], [2, 1]]
    assert as_ints(enumerate_integral_speed_profiles(4, 2)) == [[4, 0], [3, 1], [2, 2]]
    assert as_ints(enumerate_integral_speed_profiles(1, 4)) == [[1, 0, 0, 0]]


def test_enumeration_counts_match_partition_recurrence():
    # independent dynamic-programming count: p(n, k) = p(n, k-1) + p(n-k, k)
    def dp_count(n, k):
        table = [[0] * (k + 1) for _ in range(n + 1)]
        for parts in range(k + 1):
            table[0][parts] = 1
        for total in range(1, n + 1):
            for parts in range(1, k + 1):
                table[total][parts] = table[total][parts - 1]
                if total >= parts:
                    table[total][parts] += table[total - parts][parts]
        return table[n][k]

    for n in range(1, 26):
        for m in range(1, 7):
            enumerated = sum(1 for _ in enumerate_integral_speed_profiles(n, m))
            assert enumerated == dp_count(n, m) == partition_count(n, m)


def test_enumeration_builds_each_speed_at_its_first_use(monkeypatch):
    # No table of total + 1 speeds: the first profile of a huge total builds two Fractions.
    calls = 0

    def counting(value):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("more than 1,000 speeds built for one profile")
        return Fraction(value)

    monkeypatch.setattr(verify, "Fraction", counting)
    profile = next(enumerate_integral_speed_profiles(10**9, 2))
    assert profile.speeds == (10**9, 0)
    assert all(type(s) is Fraction for s in profile.speeds)


def test_enumerated_profiles_are_unique_and_sorted():
    seen = set()
    for profile in enumerate_integral_speed_profiles(12, 5):
        ints = tuple(int(s) for s in profile.speeds)
        assert sum(ints) == 12
        assert all(ints[i] >= ints[i + 1] for i in range(4))
        assert ints not in seen
        seen.add(ints)


def test_full_utilization_under_unit_jobs():
    for n, m in [(6, 3), (7, 4), (5, 2)]:
        for profile in enumerate_integral_speed_profiles(n, m):
            assert optimal_second_stage(BagProfile([1] * n), profile)[0] == 1


def _coin_total(jobs: int, machines: int, rho_num: int, rho_den: int) -> int:
    """Reference: the coin recurrence with b = m for one job count, fused with the sizes."""
    coins, bags_left, size = jobs, machines, 0
    while bags_left > 0 and coins > 0:
        z = -(-coins // machines)
        x = -(-(coins - machines * (z - 1)) // z)
        if x > bags_left:
            x = bags_left
        coins -= x * z
        bags_left -= x
        size += x * ((z * rho_num) // rho_den)
    return size


def test_fast_sweep_size_matches_library_route():
    rng = random.Random(3)
    pairs = [(n, m) for m in range(1, 9) for n in range(1, 3 * m + 1)]
    pairs += [(rng.randint(1, 60 * 20), rng.randint(1, 20)) for _ in range(200)]
    for rho in (BRICK_ROBUSTNESS, Fraction(159, 100)):
        totals = {m: _coin_totals(m, 60 * 20, rho.numerator, rho.denominator) for m in range(1, 21)}
        for n, m in pairs:
            fast = totals[m][n]
            assert fast == solution_size(bricks_by_cost(n, m, m), rho), (n, m, rho)
            assert fast == _coin_total(n, m, rho.numerator, rho.denominator), (n, m, rho)


RHOS = [Fraction(1), Fraction(3, 2), Fraction(159, 100), BRICK_ROBUSTNESS, Fraction(2), Fraction(7, 3)]


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 60), rho=st.sampled_from(RHOS), data=st.data())
def test_coin_totals_match_the_per_cell_recurrence(m, rho, data):
    top = data.draw(st.integers(0, 60 * m), label="top")
    totals = _coin_totals(m, top, rho.numerator, rho.denominator)
    assert len(totals) == top + 1
    for n in range(top + 1):
        assert totals[n] == _coin_total(n, m, rho.numerator, rho.denominator), (n, m, rho)


@pytest.mark.parametrize("m,top", [(1, 0), (1, 500), (7, 0), (7, 3), (12, 11), (60, 59)])
def test_coin_totals_edge_cases(m, top):
    # one machine, no jobs, and fewer jobs than machines (every level is one coin)
    for rho in RHOS:
        totals = _coin_totals(m, top, rho.numerator, rho.denominator)
        assert totals == [_coin_total(n, m, rho.numerator, rho.denominator) for n in range(top + 1)]
    assert _coin_totals(m, top, 8, 5)[0] == 0
    if top < m:
        assert _coin_totals(m, top, 8, 5) == list(range(top + 1))
    if m == 1:
        assert _coin_totals(1, top, 8, 5) == [8 * n // 5 for n in range(top + 1)]


def _per_bag_path(jobs: int, machines: int) -> list[int]:
    """The coin counts before and after each of ``machines`` bags: c, then f(c) = c - ceil(c / m)."""
    path = [jobs]
    for _ in range(machines):
        coins = path[-1]
        path.append(coins - -(-coins // machines))
    return path


@settings(max_examples=300, deadline=None)
@given(cell=st.integers(1, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 60 * m))))
@example(cell=(1, 1))
@example(cell=(1, 37))
def test_coins_left_after_m_bags_step_by_one_unless_the_path_meets_1_mod_m(cell):
    # the lemma behind _coin_totals, on the per-bag recurrence alone; m = 1 has every count 1 (mod m)
    m, n = cell
    path, before = _per_bag_path(n, m), _per_bag_path(n - 1, m)
    step = path[m] - before[m]
    assert step in (0, 1)
    assert step == all(c % m != 1 % m for c in path[:m]), (n, m, path)
    # the per-bag form pays the levels of _coin_levels: the same total size
    assert sum(-(-c // m) * 8 // 5 for c in path[:m]) == _coin_total(n, m, 8, 5)


def _jump_pointer_totals(machines: int, top: int, rho_num: int, rho_den: int) -> list[int]:
    """Reference: ``_coin_totals`` as a level tree with a jump-pointer search for each cell's cut.

    The coin counts form a tree (each level's next count is smaller); the
    capped total for n is size[n] - size[a] plus the bags of a's level that
    still fit, where a is the ancestor at which n's path uses up the m bags,
    found with skew-binary jump pointers (Myers, 1983).
    """
    m = machines
    parent = [0] * (top + 1)
    jump = [0] * (top + 1)
    depth = [0] * (top + 1)
    bags = [0] * (top + 1)
    parent_bags = [0] * (top + 1)
    size = [0] * (top + 1)
    level_size = [0] * (top + 1)
    totals = [0] * (top + 1)
    for c in range(1, top + 1):
        z = -(-c // m)
        x = -(-(c - m * (z - 1)) // z)
        p = c - x * z
        unit = (z * rho_num) // rho_den
        parent[c] = p
        level_size[c] = unit
        parent_bags[c] = bags[p]
        b = bags[c] = bags[p] + x
        total = size[c] = size[p] + x * unit
        depth[c] = depth[p] + 1
        j = jump[p]
        jump[c] = jump[j] if depth[p] - depth[j] == depth[j] - depth[jump[j]] else p
        if b > m:
            least = b - m
            a = c
            while parent_bags[a] >= least:
                j = jump[a]
                a = j if bags[j] >= least else parent[a]
            total += (m - b + bags[a]) * level_size[a] - size[a]
        totals[c] = total
    return totals


def test_coin_totals_equal_the_jump_pointer_kernel_on_the_success_range_grid():
    # every verdict of the success-range campaign, n = 0 included
    grid = CAMPAIGNS["success-range"].grid
    rho = BRICK_ROBUSTNESS.numerator, BRICK_ROBUSTNESS.denominator
    entries = 0
    for m in range(1, grid["m_max"] + 1):
        totals = _coin_totals(m, grid["lambda_max"] * m, *rho)
        assert totals == _jump_pointer_totals(m, grid["lambda_max"] * m, *rho), m
        entries += len(totals)
    assert entries == 626_544


def test_success_range_clean_at_target_factor():
    report = verify_bricks_success_range(9, 5)
    assert report.ok
    assert report.checked == sum(5 * m for m in range(1, 10))
    assert report.payload()["failures"] == []
    assert "elapsed_ms" in report.payload()
    assert "elapsed_ms" not in report.payload(include_elapsed=False)


def test_success_range_detects_shortfall_below_target():
    report = verify_bricks_success_range(9, 5, rho=Fraction(159, 100))
    assert not report.ok
    assert {"n": 45, "m": 9, "reason": "total size 44 < 45"} in report.failures


@pytest.mark.parametrize("m_max,lambda_max", [(0, 60), (9, 0), (-1, -1)])
def test_success_range_refuses_an_empty_grid(m_max, lambda_max):
    with pytest.raises(ValueError, match="m_max and lambda_max must both be >= 1"):
        verify_bricks_success_range(m_max, lambda_max)


def test_multi_cell_campaigns_tag_each_failure_with_its_cell(monkeypatch):
    # Shaved below the tight factor, no probe equals it: every cell fails its probe check.
    shaved = lambda m, b: sand_robustness(m, b) * Fraction(99, 100)  # noqa: E731
    monkeypatch.setattr(verify, "sand_robustness", shaved)
    report = verify._lower_bound([(2, 2), (2, 3), (3, 3)])
    assert report.checked == 88
    assert [f["cell"] for f in report.failures] == [[2, 2], [2, 3], [3, 3]]
    report = verify._sand_tightness(4, 100, verify.CAMPAIGN_SEED)
    assert report.checked == 1_867
    probes = [f["cell"] for f in report.failures if f["kind"] == "probe"]
    assert probes == [[m, b] for m in range(2, 5) for b in range(1, 2 * m + 1)]


@pytest.mark.parametrize("m,b,count", [(2, 2, 3), (2, 3, 10), (3, 3, 75), (2, 4, 64), (4, 3, 374)])
def test_lower_bound_builds_no_bag_profile(monkeypatch, m, b, count):
    # The campaign hands each partition to the probe's kernel as it is.
    def refuse(*args):
        raise AssertionError("the lower-bound campaign built a BagProfile")

    monkeypatch.setattr(BagProfile, "__init__", refuse)
    monkeypatch.setattr(BagProfile, "_trusted", refuse)
    report = verify._lower_bound([(m, b)])
    assert report.ok and report.checked == count


def test_robustness_campaign_known_grids():
    for n, m in [(13, 10), (7, 7), (9, 4)]:
        report = verify_bricks_robustness(n, m)
        assert report.ok
        assert report.checked == partition_count(n, m)


def test_partition_walk_keeps_its_order():
    def reference(total, parts_left, cap):  # the walk before dead branches were cut
        if total == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(cap, total), 0, -1):
            for rest in reference(total - first, parts_left - 1, first):
                yield (first, *rest)

    # n <= 30, m <= 8 is the benchmark's robustness grid; cap 0 and small caps cut every branch.
    for n in range(0, 31):
        for m in range(0, 9):
            for cap in {n, n // 2, 3, 0}:
                assert list(_partitions(n, m, cap)) == list(reference(n, m, cap)), (n, m, cap)


def test_enumeration_builds_the_validated_profiles():
    for n in range(1, 21):
        for m in range(1, 7):
            expected = [SpeedProfile(parts + (0,) * (m - len(parts)))
                        for parts in _partitions(n, m, n)]
            got = list(enumerate_integral_speed_profiles(n, m))
            assert [p.speeds for p in got] == [p.speeds for p in expected], (n, m)
            assert got == expected
            assert all(type(p) is SpeedProfile for p in got)
            assert all(type(s) is Fraction for p in got for s in p.speeds)


def test_enumeration_survives_a_rebound_profile_name(monkeypatch):
    # A tracer replaces the name SpeedProfile in each module with a plain function.
    from speedrobust import model

    expected = list(enumerate_integral_speed_profiles(6, 3))
    for module in (verify, model):
        monkeypatch.setattr(module, "SpeedProfile", lambda *args: SpeedProfile(*args))
    assert list(enumerate_integral_speed_profiles(6, 3)) == expected


def test_robustness_campaign_matches_public_assigner_loop():
    for n in range(1, 13):
        for m in range(1, 9):
            sizes = [int(a) for a in robust_bags(n, m, m).sizes]
            checked, failures = 0, []
            for profile in enumerate_integral_speed_profiles(n, m):
                speeds = [int(s) for s in profile.speeds]
                checked += 1
                if integral_assignment(sizes, speeds, BRICK_ROBUSTNESS) is None:
                    failures.append({"n": n, "m": m, "speeds": speeds,
                                     "reason": "coin assignment failed at 8/5"})
            report = verify_bricks_robustness(n, m)
            assert (report.checked, report.failures) == (checked, failures), (n, m)


def _kernel_on_every_partition(costs, total, machines):
    """Reference for ``_coin_walk``: the kernel run once per partition, as the sweep used to."""
    checked, failing = 0, []
    for parts in _partitions(total, machines, total):
        checked += 1
        # The zero speeds left out of the caps can never pay a positive cost.
        if _largest_first(costs, list(parts), 0) is None:
            failing.append(list(parts) + [0] * (machines - len(parts)))
    return checked, failing


@settings(max_examples=500, deadline=None)
@given(costs=st.lists(st.integers(0, 8), max_size=8), total=st.integers(1, 24),
       machines=st.integers(1, 10))
@example(costs=[3], total=3, machines=1)  # the first part pays the first cost exactly
@example(costs=[4, 1], total=4, machines=2)  # the first part is one below the first cost
@example(costs=[2], total=2, machines=3)  # a part pays the last bag with nothing left
@example(costs=[1], total=3, machines=2)  # a part pays the last bag with one slot left
@example(costs=[1], total=6, machines=4)  # a part pays the last bag with completions to count
@example(costs=[4], total=5, machines=3)  # the last bag is above some parts branched on: they fail
def test_coin_walk_matches_the_kernel_on_every_partition(costs, total, machines):
    # any cost order, zeros anywhere: the walk must not lean on the dispatcher's sorted costs
    assert _coin_walk(costs, total, machines) == _kernel_on_every_partition(costs, total, machines)


@pytest.mark.parametrize("rho", [BRICK_ROBUSTNESS, Fraction(3, 2)])
def test_robustness_payloads_match_the_per_profile_kernel(monkeypatch, rho):
    # At 3/2 many of these cells fail: the failure records and their order must match too.
    monkeypatch.setattr(verify, "BRICK_ROBUSTNESS", rho)
    cells = [(n, m) for m in range(1, 9) for n in range(1, 41)]
    walked = [verify_bricks_robustness(*cell).payload(include_elapsed=False) for cell in cells]
    monkeypatch.setattr(verify, "_coin_walk", _kernel_on_every_partition)
    failures = 0
    for cell, payload in zip(cells, walked):
        assert payload == verify_bricks_robustness(*cell).payload(include_elapsed=False), cell
        failures += len(payload["failures"])
    assert failures == (0 if rho == BRICK_ROBUSTNESS else 1685)


@pytest.mark.parametrize("n,m", [(5000, 2), (3000, 3)])
def test_coin_walk_counts_long_grids_without_deep_recursion(n, m):
    report = verify_bricks_robustness(n, m)
    assert report.grid["mode"] == "exhaustive"
    assert report.ok and report.checked == partition_count(n, m)


def test_robustness_campaign_samples_grids_over_the_budget(monkeypatch):
    def no_walk(*args):
        raise AssertionError("an over-budget grid must not be enumerated")

    monkeypatch.setattr(verify, "_partitions", no_walk)
    for n, m in [(200, 10), (100, 12), (1000, 20), (3000, 50)]:
        assert partition_count(n, m) > EXHAUSTIVE_PROFILES
        report = verify_bricks_robustness(n, m)
        assert report.grid["mode"] == "reachability"
        assert report.ok and report.checked == partition_count(n, m)


@pytest.mark.parametrize("n,m", [(100, 12), (200, 10)])
def test_robustness_campaign_reports_the_reachability_counterexample(monkeypatch, n, m):
    # At 3/2 the dispatcher's 8/5 bags cost more coins than some speed profile can pay.
    monkeypatch.setattr(verify, "BRICK_ROBUSTNESS", Fraction(3, 2))
    report = verify_bricks_robustness(n, m)
    assert report.grid["mode"] == "reachability" and report.checked == partition_count(n, m)
    [failure] = report.failures
    assert failure.keys() == {"n", "m", "speeds", "reason"}
    assert (failure["n"], failure["m"]) == (n, m)
    speeds = failure["speeds"]
    assert len(speeds) == m and sum(speeds) == n and speeds == sorted(speeds, reverse=True)
    bags = [int(a) for a in robust_bags(n, m, m).sizes]
    assert integral_assignment(bags, speeds, Fraction(3, 2)) is None


@pytest.mark.parametrize("rho", [BRICK_ROBUSTNESS, Fraction(3, 2)])
def test_reachability_mode_agrees_with_the_walk(monkeypatch, rho):
    # At 3/2, 30 of these cells fail; the constructed failure must be one the walk finds.
    monkeypatch.setattr(verify, "BRICK_ROBUSTNESS", rho)
    cells = [(n, m) for n in range(1, 25) for m in range(1, 7)]
    walked = [verify_bricks_robustness(*cell) for cell in cells]
    monkeypatch.setattr(verify, "EXHAUSTIVE_PROFILES", 0)
    for cell, walk in zip(cells, walked):
        decided = verify_bricks_robustness(*cell)
        assert decided.grid["mode"] == "reachability" and decided.checked == walk.checked
        assert decided.ok == walk.ok, cell
        assert all(f in walk.failures for f in decided.failures), cell


@settings(max_examples=400, deadline=None)
@given(m=st.integers(1, 10), data=st.data(),
       rho=st.sampled_from([BRICK_ROBUSTNESS, Fraction(3, 2), Fraction(159, 100), Fraction(5, 4), Fraction(2)]))
def test_construction_that_reaches_n_places_its_front_filled_bags_on_every_profile(m, rho, data):
    # Wherever the coin sizes reach n, filling them from the front keeps every cost at or
    # below its cap, so the reachability test finds no profile the coin assigner fails on.
    b = data.draw(st.sampled_from([b for b in (m - 1, m, m + 1, 2 * m + 1) if b >= 1]), label="b")
    n = data.draw(st.integers(1, 60 * m), label="n")
    solution = bricks_bags(n, m, b, rho)
    assume(solution.successful)
    starts = accumulate(solution.bag_sizes, initial=0)
    sizes = [max(0, min(a, n - s)) for a, s in zip(solution.bag_sizes, starts)]
    assert sum(sizes) == n
    assert _coin_counterexample(_coin_costs(sizes, rho), n, m) is None


def test_sand_campaign_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        verify_sand_upper(3, 5, trials=-1)
    report = verify_sand_upper(3, 5, trials=0)
    assert report.ok and report.checked == 5


def test_robustness_campaign_gate_grids_stay_exhaustive():
    # acceptance criterion 9 and `speedrobust run bricks-robustness` sweep n <= 40, m <= 8
    assert all(partition_count(n, m) <= EXHAUSTIVE_PROFILES
               for n in range(1, 41) for m in range(1, 9))
    assert verify_bricks_robustness(40, 8).grid["mode"] == "exhaustive"


def test_partition_count_matches_the_table_loop():
    # The loop partition_count ran before its running sums over residues;
    # the row after pass k holds p(n, <= k) for every n <= 200.
    row = [1] + [0] * 200
    by_parts = [row[:]]
    for k in range(1, 201):
        for n in range(k, 201):
            row[n] += row[n - k]
        by_parts.append(row[:])
    cells = {(n, m) for n in range(201) for m in (0, 1, 2, 3, 7, 40, 200)}
    cells |= {(n, m) for n in (0, 1, 2, 3, 40, 200) for m in range(201)}
    assert all(partition_count(n, m) == by_parts[m][n] for n, m in cells)


def test_partition_count_has_no_partition_into_negative_parts():
    # partition_count(0, -1) returned 1: the empty partition has 0 parts, not at most -1
    assert partition_count(0, -1) == 0
    assert partition_count(0, 0) == 1
    assert partition_count(5, -1) == 0


def test_partition_counts_leave_no_module_memo():
    assert partition_count(200, 10) > EXHAUSTIVE_PROFILES
    assert partition_count(100, 12) > EXHAUSTIVE_PROFILES
    assert verify_bricks_robustness(100, 12).checked == partition_count(100, 12)
    memos = [value for value in vars(verify).values() if hasattr(value, "cache_info")]
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def test_robustness_campaign_samples_large_grids():
    report = verify_bricks_robustness(100, 12)
    assert report.ok and report.grid["mode"] == "reachability"
    again = verify_bricks_robustness(100, 12)
    payload_a = json.dumps(report.payload(include_elapsed=False), sort_keys=True)
    payload_b = json.dumps(again.payload(include_elapsed=False), sort_keys=True)
    assert payload_a == payload_b


def test_sand_campaign_clean_and_deterministic():
    first = verify_sand_upper(3, 5, trials=50, seed=123)
    second = verify_sand_upper(3, 5, trials=50, seed=123)
    assert first.ok
    assert first.checked == 5 + 50
    payload_a = json.dumps(first.payload(include_elapsed=False), sort_keys=True)
    payload_b = json.dumps(second.payload(include_elapsed=False), sort_keys=True)
    assert payload_a == payload_b


def _randint_trials(seed, machines, trials):
    # The raw speeds of each trial as random.Random.randint draws them, sorted down.
    rng = random.Random(seed)
    for _ in range(trials):
        raw = [rng.randint(0, verify.RANDOM_SPEED_GRAIN) for _ in range(machines)]
        while not any(raw):
            raw = [rng.randint(0, verify.RANDOM_SPEED_GRAIN) for _ in range(machines)]
        yield sorted(raw, reverse=True)


@pytest.mark.parametrize("machines,bags", [(m, b) for m in range(1, 7) for b in range(1, 2 * m + 1)])
def test_sand_campaign_random_trials_match_greedy_on_speed_profiles(monkeypatch, machines, bags):
    # Shaved below the tight factor every adversary configuration and some random
    # trials fail; the one kernel path must fail on the same cases, in the same
    # order, and record the same speeds as the public assigner.  Every configuration
    # is tight for the sand bags, so no factor splits them: the tight factor itself,
    # where every case passes, checks the adversary cases from the other side.
    tight = sand_robustness(machines, bags)
    scale = machines**bags
    profile = sand_bags(machines, bags, scale)
    configs = adversary_configs(machines, bags)
    reason = "greedy assignment failed at the tight factor"
    for rho in (tight * Fraction(9, 10), tight):
        monkeypatch.setattr(verify, "sand_robustness", lambda m, b: rho)
        for seed in (5, verify.CAMPAIGN_SEED):
            expected = [{"kind": "adversary", "config": k,
                         "speeds": [format_rational(s) for s in config.speeds], "reason": reason}
                        for k, config in enumerate(configs)
                        if greedy_assignment(profile, config, rho) is None]
            assert len(expected) == (len(configs) if rho < tight else 0)
            for t, raw in enumerate(_randint_trials(seed, machines, 200)):
                speeds = SpeedProfile(Fraction(r * scale, sum(raw)) for r in raw)
                if greedy_assignment(profile, speeds, rho) is None:
                    expected.append({"kind": "random", "trial": t,
                                     "speeds": [format_rational(s) for s in speeds.speeds],
                                     "reason": reason})
            report = verify_sand_upper(machines, bags, trials=200, seed=seed)
            assert report.failures == expected
            assert report.checked == len(configs) + 200
            if rho < tight and (machines, bags) in [(3, 5), (4, 2), (2, 3)]:  # some trials fail, not all
                assert 0 < len(expected) - bags < 200, len(expected)


def test_sand_trials_draw_what_randint_draws(monkeypatch):
    # The sweep draws each raw speed from getrandbits as CPython's randint(0, grain) does.
    # Below any factor a bag fits at, every trial fails, and its record shows the draw.
    monkeypatch.setattr(verify, "sand_robustness", lambda m, b: Fraction(1, 10**9))
    for seed in range(300):
        machines = 2 + seed % 5
        expected = [[format_rational(Fraction(r * machines**2, sum(raw))) for r in raw]
                    for raw in _randint_trials(seed, machines, 20)]
        report = verify_sand_upper(machines, 2, trials=20, seed=seed)
        assert [f["speeds"] for f in report.failures if f["kind"] == "random"] == expected, seed


def test_sand_campaign_flags_insufficient_factor():
    # just below the tight factor the adversary family must break greedy
    rho = sand_robustness(2, 4)
    profile = sand_bags(2, 4, 2**4)
    shaved = rho - Fraction(1, 1000)
    assert any(
        greedy_assignment(profile, config, shaved) is None
        for config in adversary_configs(2, 4)
    )
