import random
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from speedrobust.bricks import PEBBLES_CUTOVER, robust_bags
from speedrobust.model import Instance, SizeLimit, SpeedProfile
from speedrobust.pebbles import PebblesResult, _pack, pebble_ratio, pebbles_bags
from speedrobust.sand import sand_bags, sand_robustness
from speedrobust.second_stage import greedy_assignment
from speedrobust.model import BagProfile


def _fraction_loop_pebbles(instance: Instance, rho: Fraction) -> PebblesResult:
    """The former Fraction loop of ``pebbles_bags``, the reference for its integer kernel."""
    m, b = instance.machine_count, instance.bag_count
    scale = Fraction(m) / sum(instance.job_sizes)
    normalized = [p * scale for p in instance.job_sizes]

    counts = [0] * b
    sizes = [Fraction(0)] * b
    prefix = Fraction(0)
    k = 0
    for p in normalized:
        while k < b and sizes[k] + p > rho - prefix / m:
            prefix += sizes[k]
            k += 1
        if k >= b:
            break
        counts[k] += 1
        sizes[k] += p

    ends = tuple(accumulate(counts))
    return PebblesResult(
        bag_ends=ends,
        bag_sizes=tuple(s / scale for s in sizes),
        packed_all=ends[-1] == len(normalized),
    )


def test_pebble_ratio_known_values():
    assert pebble_ratio(Instance([1, 1, 1, 1], 2, 2)) == Fraction(1, 2)
    assert pebble_ratio(Instance([1] * 12, 3, 3)) == Fraction(3, 12)
    assert pebble_ratio(Instance([7], 4, 4)) == 4


def test_packing_fills_greedily_at_generous_factor():
    # 4 unit jobs, 2 machines, 2 bags at factor 4/3 + 1/2 = 11/6:
    # three jobs fit in bag 0 (a fourth would reach 2 > 11/6), the last in bag 1
    instance = Instance([1, 1, 1, 1], 2, 2)
    rho = sand_robustness(2, 2) + Fraction(1, 2)
    result = pebbles_bags(instance, rho)
    assert result.packed_all
    assert result.bag_sizes == (3, 1)
    assert result.bag_ends == (3, 4)


def test_packing_single_job_single_bag():
    result = pebbles_bags(Instance([5], 1, 1), Fraction(1))
    assert result.packed_all
    assert result.bag_sizes == (5,)


def test_packing_reports_overflow():
    # 3 unit jobs, 2 machines, 2 bags at factor 1: bag 0 and bag 1 take one
    # job each (a second in bag 0 would reach 4/3 > 1), the third is homeless
    result = pebbles_bags(Instance([1, 1, 1], 2, 2), Fraction(1))
    assert not result.packed_all
    assert result.bag_sizes == (1, 1)
    assert result.bag_ends == (1, 2)


def test_exact_capacity_fit_is_placed():
    # normalized jobs of size 1 at factor 3/2: the second bag's bound is
    # 3/2 - 1/2 = 1, and the job landing exactly on it goes in (rejection is strict)
    instance = Instance([1, 1], 2, 2)
    result = pebbles_bags(instance, Fraction(3, 2))
    assert result.packed_all
    assert result.bag_sizes == (1, 1)
    assert result.bag_ends == (1, 2)


def _random_small_jobs_instance(rng: random.Random):
    q = Fraction(rng.randint(5, 100), 100)
    m = rng.randint(2, 8)
    b = m if rng.random() < 0.5 else 2 * m
    jobs = []
    total = Fraction(0)
    while total < m:
        p = Fraction(rng.randint(1, 60), 60) * q
        jobs.append(p)
        total += p
    return Instance(jobs, m, b), q


@settings(max_examples=30, deadline=None)
@given(st.integers())
def test_random_instances_pack_and_dominate_reference(seed):
    rng = random.Random(seed)
    instance, q = _random_small_jobs_instance(rng)
    m, b = instance.machine_count, instance.bag_count
    assert pebble_ratio(instance) <= q
    rho = sand_robustness(m, b) + q
    result = pebbles_bags(instance, rho)
    assert result.packed_all

    # prefix sums of the packed bags dominate, at every k, the divisible-load bag sizes
    # at total m, on which the packing bound holds with equality
    reference = sand_bags(m, b, m).sizes
    normalizer = Fraction(m) / sum(instance.job_sizes)
    packed_prefix = Fraction(0)
    reference_prefix = Fraction(0)
    for k in range(b):
        packed_prefix += result.bag_sizes[k] * normalizer
        reference_prefix += reference[k]
        assert packed_prefix >= reference_prefix


@settings(max_examples=20, deadline=None)
@given(st.integers())
def test_packed_bags_survive_greedy_assignment(seed):
    rng = random.Random(seed)
    instance, q = _random_small_jobs_instance(rng)
    m, b = instance.machine_count, instance.bag_count
    rho = sand_robustness(m, b) + q
    result = pebbles_bags(instance, rho)
    assert result.packed_all
    bags = BagProfile(result.bag_sizes)
    total = sum(instance.job_sizes)
    for _ in range(10):
        raw = [rng.randint(0, 40) for _ in range(m)]
        if not any(raw):
            raw[0] = 1
        speeds = SpeedProfile(Fraction(r, sum(raw)) * total for r in raw)
        assert greedy_assignment(bags, speeds, rho) is not None


def _kernel_cases():
    """(instance, rho) pairs: the criterion-8 recipe at, below and far above its bound."""
    rng = random.Random(8)
    for _ in range(25):
        instance, q = _random_small_jobs_instance(rng)
        bound = sand_robustness(instance.machine_count, instance.bag_count)
        for rho in (bound + q, Fraction(1), (1 + bound + q) / 2, bound + q / 2, 2 * (bound + q)):
            yield instance, rho
    # zero-size jobs, which fit in the current bag unless it is already full
    for m, b in [(2, 2), (3, 5), (4, 2)]:
        jobs = [3, 0, 1, 0, Fraction(1, 2), 0, 2, 2, Fraction(5, 3)]
        for rho in (Fraction(1), sand_robustness(m, b), sand_robustness(m, b) + Fraction(3, 4)):
            yield Instance(jobs, m, b), rho
    # factors just either side of exact fits, where rounding rho * T decides
    for m, b, n in [(2, 2, 4), (3, 3, 10), (2, 4, 7)]:
        for fit in (Fraction(3, 2), Fraction(7, 4), Fraction(5, 3)):
            for eps in (Fraction(-1, 10**6), Fraction(1, 10**6)):
                yield Instance([1] * n, m, b), fit + eps
    # unrelated denominators, so the common denominator is a product of primes
    for m in (2, 3, 5):
        jobs = [Fraction(rng.randint(1, 9), rng.choice([7, 9, 11, 13, 17])) for _ in range(40)]
        instance = Instance(jobs + [Fraction(1, 7), Fraction(2, 9), Fraction(5, 11)], m, m)
        for rho in (Fraction(1), sand_robustness(m, m) + pebble_ratio(instance), Fraction(9, 5)):
            yield instance, rho


def test_integer_kernel_equals_fraction_loop():
    cases = list(_kernel_cases())
    assert any(not _fraction_loop_pebbles(i, rho).packed_all for i, rho in cases)
    assert any(0 in i.job_sizes for i, _ in cases)
    for instance, rho in cases:
        assert pebbles_bags(instance, rho) == _fraction_loop_pebbles(instance, rho)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packing_equals_fraction_loop_on_repeated_and_zero_sizes(data):
    m = data.draw(st.integers(1, 8), "m")
    b = data.draw(st.integers(1, 2 * m + 1), "b")
    pool = [0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)]
    jobs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40), "jobs") + [1]
    instance = Instance(jobs, m, b)
    # from 1 to past sand + q, where every job is packed
    top = sand_robustness(m, b) + pebble_ratio(instance)
    rho = 1 + (top - 1) * Fraction(data.draw(st.integers(0, 300), "t"), 200)
    assert pebbles_bags(instance, rho) == _fraction_loop_pebbles(instance, rho)


def test_dispatcher_past_cutover_equals_fraction_loop_profile():
    for n, m in [(123, 2), (500, 3), (1000, 7), (2000, 8)]:
        assert Fraction(n, m) > PEBBLES_CUTOVER
        rho = sand_robustness(m, m) + Fraction(m, n)
        reference = _fraction_loop_pebbles(Instance([1] * n, m, m), rho)
        assert reference.packed_all
        assert robust_bags(n, m, m) == BagProfile(reference.bag_sizes)


def test_unit_jobs_closed_form_equals_the_packing():
    # unit jobs' running sums are range(n + 1), read by _pack without building a list
    rng = random.Random(11)
    jobs = list(range(1, 50)) + sorted(rng.sample(range(50, 600), 6))
    checked = 0
    for m in range(1, 9):
        for b in sorted({1, m - 1, m, m + 1, 2 * m} - {0}):
            rhos = {Fraction(1), Fraction(3, 2), sand_robustness(m, b)}
            for n in jobs:
                instance = Instance([1] * n, m, b)
                for rho in rhos | {sand_robustness(m, b) + Fraction(m, n)}:
                    ends = _pack(range(n + 1), m, b, rho)
                    sizes = [e - s for s, e in zip([0] + ends, ends)]
                    reference = _fraction_loop_pebbles(instance, rho)
                    assert tuple(map(Fraction, sizes)) == reference.bag_sizes, (n, m, b, rho)
                    assert (ends[-1] == n) == reference.packed_all, (n, m, b, rho)
                    checked += 1
    assert checked > 5_000


def test_dispatcher_past_cutover_packs_a_million_jobs_in_closed_form():
    start = time.perf_counter()
    profile = robust_bags(10**6, 8, 8)
    assert time.perf_counter() - start < 0.1
    # the sizes the one-job-at-a-time packing gave
    assert [int(a) for a in profile.sizes] == [
        190436, 166631, 145802, 127577, 111630, 97676, 85467, 74781]


def test_dispatcher_past_cutover_packs_up_to_the_longest_range():
    # bisect reads range(jobs + 1) only while its length fits a C ssize_t
    profile = robust_bags(sys.maxsize - 1, 8, 8)
    assert len(profile.sizes) == 8 and sum(profile.sizes) == sys.maxsize - 1
    with pytest.raises(SizeLimit, match=f"sys.maxsize = {sys.maxsize}"):
        robust_bags(sys.maxsize, 8, 8)
    with pytest.raises(SizeLimit):
        robust_bags(10**30, 8, 8)


def test_bag_ends_partition_the_jobs():
    for instance, rho in _kernel_cases():
        result = pebbles_bags(instance, rho)
        ends = result.bag_ends
        assert len(ends) == instance.bag_count
        for k, (s, e) in enumerate(zip((0,) + ends, ends)):
            assert result.bag_sizes[k] == sum(instance.job_sizes[s:e], Fraction(0))
            assert all(bisect_right(ends, j) == k for j in range(s, e))
        assert result.packed_all == (ends[-1] == len(instance.job_sizes))


def test_float_rho_is_refused():
    instance = Instance([1, 1, 1, 1], 2, 2)
    with pytest.raises(ValueError, match="1.8"):
        pebbles_bags(instance, 1.8)
    with pytest.raises(ValueError, match="rho must be >= 1"):
        pebbles_bags(instance, Fraction(1, 2))
