import json
import random
from fractions import Fraction

import pytest

from speedrobust.bricks import BRICK_ROBUSTNESS, _coin_total, bricks_by_cost, solution_size
from speedrobust.model import BagProfile, SpeedProfile
from speedrobust.numerics import format_rational
from speedrobust.sand import adversary_configs, sand_bags, sand_robustness
from speedrobust import verify
from speedrobust.bricks import robust_bags
from speedrobust.second_stage import greedy_assignment, integral_assignment, optimal_second_stage
from speedrobust.verify import (
    EXHAUSTIVE_PROFILES,
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


def test_fast_sweep_size_matches_library_route():
    rng = random.Random(3)
    pairs = [(n, m) for m in range(1, 9) for n in range(1, 3 * m + 1)]
    pairs += [(rng.randint(1, 60 * 20), rng.randint(1, 20)) for _ in range(200)]
    for rho in (BRICK_ROBUSTNESS, Fraction(159, 100)):
        for n, m in pairs:
            fast = _coin_total(n, m, rho.numerator, rho.denominator)
            assert fast == solution_size(bricks_by_cost(n, m, m), rho), (n, m, rho)


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
    report = verify.CAMPAIGNS["lower-bound"].run(quick=True)
    assert report.checked == 88
    assert [f["cell"] for f in report.failures] == [[2, 2], [2, 3], [3, 3]]
    report = verify.CAMPAIGNS["sand-tightness"].run(quick=True)
    assert report.checked == 1_867
    probes = [f["cell"] for f in report.failures if f["kind"] == "probe"]
    assert probes == [[m, b] for m in range(2, 5) for b in range(1, 2 * m + 1)]


def test_success_range_workers_agree_with_serial():
    serial = verify_bricks_success_range(12, 4)
    parallel = verify_bricks_success_range(12, 4, workers=2)
    assert serial.payload(include_elapsed=False) == parallel.payload(include_elapsed=False)


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


def test_robustness_campaign_samples_grids_over_the_budget(monkeypatch):
    def no_walk(*args):
        raise AssertionError("an over-budget grid must not be enumerated")

    monkeypatch.setattr(verify, "_partitions", no_walk)
    for n, m in [(200, 10), (100, 12)]:
        assert partition_count(n, m) > EXHAUSTIVE_PROFILES
        report = verify_bricks_robustness(n, m, samples=20, seed=1)
        assert report.grid["mode"] == "sampled:20:seed=1"
        assert report.ok and report.checked == 20


@pytest.mark.parametrize("n,m", [(200, 10), (13, 10)])
@pytest.mark.parametrize("samples", [0, -3])
def test_robustness_campaign_refuses_an_empty_sample(n, m, samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_bricks_robustness(n, m, samples=samples)


def test_sand_campaign_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        verify_sand_upper(3, 5, trials=-1)
    report = verify_sand_upper(3, 5, trials=0)
    assert report.ok and report.checked == 5


def test_robustness_campaign_gate_grids_stay_exhaustive():
    # acceptance criterion 9 and run_verification.py sweep n <= 40, m <= 8
    assert all(partition_count(n, m) <= EXHAUSTIVE_PROFILES
               for n in range(1, 41) for m in range(1, 9))
    assert verify_bricks_robustness(40, 8).grid["mode"] == "exhaustive"


def test_partition_counts_leave_no_module_memo():
    assert partition_count(200, 10) > EXHAUSTIVE_PROFILES
    assert partition_count(100, 12) > EXHAUSTIVE_PROFILES
    assert verify_bricks_robustness(100, 12, samples=20, seed=2).checked == 20
    memos = [value for value in vars(verify).values() if hasattr(value, "cache_info")]
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def test_robustness_campaign_samples_large_grids():
    report = verify_bricks_robustness(100, 12, samples=200, seed=4)
    assert report.ok
    assert report.checked == 200
    assert report.grid["mode"].startswith("sampled")
    again = verify_bricks_robustness(100, 12, samples=200, seed=4)
    assert report.payload(include_elapsed=False) == again.payload(include_elapsed=False)


def test_sand_campaign_clean_and_deterministic():
    first = verify_sand_upper(3, 5, trials=50, seed=123)
    second = verify_sand_upper(3, 5, trials=50, seed=123)
    assert first.ok
    assert first.checked == 5 + 50
    payload_a = json.dumps(first.payload(include_elapsed=False), sort_keys=True)
    payload_b = json.dumps(second.payload(include_elapsed=False), sort_keys=True)
    assert payload_a == payload_b


@pytest.mark.parametrize("machines,bags", [(3, 5), (4, 2), (2, 3)])
def test_sand_campaign_random_trials_match_greedy_on_speed_profiles(monkeypatch, machines, bags):
    # Shaved below the tight factor some random trials fail; the integer trial
    # path must fail on the same trials and record the same speeds.
    shaved = sand_robustness(machines, bags) * Fraction(9, 10)
    monkeypatch.setattr(verify, "sand_robustness", lambda m, b: shaved)
    scale = machines**bags
    profile = sand_bags(machines, bags, scale)
    rng = random.Random(5)
    expected = []
    for t in range(200):
        raw = [rng.randint(0, verify.RANDOM_SPEED_GRAIN) for _ in range(machines)]
        while not any(raw):
            raw = [rng.randint(0, verify.RANDOM_SPEED_GRAIN) for _ in range(machines)]
        speeds = SpeedProfile(Fraction(r * scale, sum(raw)) for r in raw)
        if greedy_assignment(profile, speeds, shaved) is None:
            expected.append({"kind": "random", "trial": t,
                             "speeds": [format_rational(s) for s in speeds.speeds],
                             "reason": "greedy assignment failed at the tight factor"})
    report = verify_sand_upper(machines, bags, trials=200, seed=5)
    assert [f for f in report.failures if f["kind"] == "random"] == expected
    assert 0 < len(expected) < 200, len(expected)


def test_sand_campaign_flags_insufficient_factor():
    # just below the tight factor the adversary family must break greedy
    rho = sand_robustness(2, 4)
    profile = sand_bags(2, 4, 2**4)
    shaved = rho - Fraction(1, 1000)
    assert any(
        greedy_assignment(profile, config, shaved) is None
        for config in adversary_configs(2, 4)
    )
