import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speedrobust import sand
from speedrobust.model import BagProfile, ScaleMismatch, SizeLimit, SpeedProfile
from speedrobust.sand import (
    adversary_configs,
    adversary_optima,
    geometric_skeleton,
    lower_bound_probe,
    sand_bags,
    sand_robustness,
)
from speedrobust.second_stage import greedy_assignment, optimal_second_stage
from speedrobust.verify import _partitions


def test_skeleton_prefix_sums_exact():
    # sum(weights[:k]) == scale - (machines-1) * weights[k-1], all m, b up to 20
    for m in range(1, 21):
        for b in range(1, 21):
            sk = geometric_skeleton(m, b)
            prefix = 0
            for k in range(b):
                prefix += sk.weights[k]
                assert prefix == sk.scale - (m - 1) * sk.weights[k]
            assert prefix == sk.weight_total


def test_robustness_factor_known_values():
    assert sand_robustness(1, 7) == 1
    assert sand_robustness(2, 4) == Fraction(16, 15)
    assert sand_robustness(2, 2) == Fraction(4, 3)
    assert sand_robustness(3, 3) == Fraction(27, 19)


def test_robustness_factor_increasing_and_below_limit():
    # for b == m the factor increases with m and stays below e/(e-1) < 1.582
    values = [sand_robustness(m, m) for m in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]
    assert all(v < Fraction(1582, 1000) for v in values)
    assert all(1 <= sand_robustness(m, b) <= m for m in range(1, 8) for b in range(1, 8))


def test_robustness_factor_is_the_skeleton_ratio():
    for m in range(1, 7):
        for b in range(1, 13):
            sk = geometric_skeleton(m, b)
            assert sand_robustness(m, b) == Fraction(sk.scale, sk.weight_total)


def test_robustness_factor_of_one_machine_builds_no_weights():
    # a single machine's scale is 1 for any bag count, so no size check stops a list of b weights
    assert sand_robustness(1, 10**18) == 1
    with pytest.raises(SizeLimit):
        sand_robustness(2, 10**9)


def test_sand_bags_known_profiles():
    assert [int(a) for a in sand_bags(2, 4, 15).sizes] == [8, 4, 2, 1]
    assert [int(a) for a in sand_bags(2, 4, 30).sizes] == [16, 8, 4, 2]
    sizes = sand_bags(1, 3, Fraction(7, 3)).sizes
    assert sizes == (Fraction(7, 3), 0, 0)


def test_skeleton_and_sizes_match_the_closed_forms():
    # weights are a running product and sizes a running Fraction product;
    # both must equal the closed forms m**(b-j) * (m-1)**(j-1) and w * total / weight_total
    for m, b in [(3, 400), (1, 5), (7, 40), (2, 64)]:
        weights = tuple(m ** (b - j) * (m - 1) ** (j - 1) for j in range(1, b + 1))
        sk = geometric_skeleton(m, b)
        assert sk.weights == weights
        assert sk.weight_total == sum(weights) == m**b - (m - 1) ** b
        for total in (1, Fraction(7, 3), m**b):
            closed = BagProfile([Fraction(w, sk.weight_total) * total for w in weights])
            assert sand_bags(m, b, total) == closed
    with pytest.raises(ValueError, match="0.5"):
        sand_bags(2, 2, 0.5)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10),
    st.fractions(min_value=Fraction(1, 7), max_value=100, max_denominator=30),
)
def test_sand_bags_sum_to_total_and_sorted(m, b, total):
    profile = sand_bags(m, b, total)
    assert sum(profile.sizes) == total
    assert all(profile.sizes[i] >= profile.sizes[i + 1] for i in range(b - 1))


def test_sand_bags_keep_every_machine_with_fewer_bags():
    # with fewer bags than machines the skeleton still spans all m machines:
    # reduced to b machines, (4, 2) would probe at 8/3 against the bound 16/7
    assert sand_bags(4, 2, 16).sizes == (Fraction(64, 7), Fraction(48, 7))
    for m, b in [(5, 2), (7, 3), (4, 3), (3, 2)]:
        assert sand_bags(m, b, 60).sizes != sand_bags(b, b, 60).sizes
        assert lower_bound_probe(m, b, sand_bags(m, b, m**b)) == sand_robustness(m, b)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=10))
def test_greedy_condition_holds_with_equality(m, b):
    # each sand bag exactly exhausts its share of the remaining capacity,
    # for fewer bags than machines too
    rho = sand_robustness(m, b)
    total = Fraction(m**b)
    profile = sand_bags(m, b, total)
    prefix = Fraction(0)
    for a in profile.sizes:
        assert a == (rho * total - prefix) / m
        prefix += a


def test_adversary_configs_known_values():
    assert [[int(s) for s in c.speeds] for c in adversary_configs(2, 4)] == [
        [8, 8], [12, 4], [14, 2], [15, 1],
    ]
    assert [[int(s) for s in c.speeds] for c in adversary_configs(3, 2)] == [
        [3, 3, 3], [5, 2, 2],
    ]
    assert [[int(s) for s in c.speeds] for c in adversary_configs(1, 3)] == [[1]]


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=8))
def test_adversary_configs_sum_to_scale(m, b):
    sk = geometric_skeleton(m, b)
    configs = adversary_configs(m, b)
    assert len(configs) == b
    for k, config in enumerate(configs):
        assert sum(config.speeds) == sk.scale
        assert config.speeds[0] >= sk.weights[k]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=6), st.integers())
def test_greedy_succeeds_at_tight_factor_on_random_speeds(m, extra_bags, seed):
    b = m + extra_bags - 1  # from b = m - 1 up
    rho = sand_robustness(m, b)
    scale = m**b
    profile = sand_bags(m, b, scale)
    rng = random.Random(seed)
    for config in adversary_configs(m, b):
        assert greedy_assignment(profile, config, rho) is not None
    for _ in range(20):
        raw = [rng.randint(0, 50) for _ in range(m)]
        if not any(raw):
            raw[0] = 1
        speeds = SpeedProfile(Fraction(r * scale, sum(raw)) for r in raw)
        assert greedy_assignment(profile, speeds, rho) is not None


def test_probe_known_values():
    assert lower_bound_probe(2, 2, BagProfile([2, 2])) == Fraction(4, 3)
    assert lower_bound_probe(2, 2, BagProfile([4, 0])) == 2
    scaled = sand_bags(2, 4, 16)
    assert scaled.sizes == (Fraction(128, 15), Fraction(64, 15), Fraction(32, 15), Fraction(16, 15))
    assert lower_bound_probe(2, 4, scaled) == Fraction(16, 15)


def test_probe_requires_exact_scale():
    with pytest.raises(ScaleMismatch):
        lower_bound_probe(2, 2, BagProfile([2, 1]))
    with pytest.raises(ScaleMismatch):
        lower_bound_probe(2, 2, BagProfile([4]))


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
@settings(max_examples=10, deadline=None)
def test_probe_of_sand_profile_never_beats_tight_factor(m, b):
    profile = sand_bags(m, b, m**b)
    assert lower_bound_probe(m, b, profile) == sand_robustness(m, b)


def former_probe(m, b, profile):
    """The probe as first written: the public oracle on every adversary configuration."""
    return [optimal_second_stage(profile, config)[0] for config in adversary_configs(m, b)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers())
def test_probe_equals_former_per_configuration_oracle(m, b, integral, seed):
    rng = random.Random(seed)
    scale = m**b
    if integral:  # b integers summing to the scale, zeros allowed
        cuts = sorted(rng.randint(0, scale) for _ in range(b - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [scale])]
    else:  # b positive rationals rescaled to the scale
        raw = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(b)]
        sizes = [r * scale / sum(raw) for r in raw]
    profile = BagProfile(sizes)
    expected = former_probe(m, b, profile)
    assert adversary_optima(m, b, profile) == expected
    assert lower_bound_probe(m, b, profile) == max(expected)


# The grids of the oracle-cert benchmark, 1,357 profiles, and three more of the lower-bound
# campaign: every one the seeded bounds, the skip or the early stop could get wrong.
@pytest.mark.parametrize("m, b, count", [(2, 2, 3), (2, 3, 10), (3, 3, 75), (2, 4, 64),
                                         (2, 5, 831), (4, 3, 374), (5, 3, 1365), (3, 4, 4410),
                                         (6, 3, 3997)])
def test_probe_is_the_greatest_optimum_on_every_integer_profile(m, b, count):
    profiles = [BagProfile(parts + (0,) * (b - len(parts))) for parts in _partitions(m**b, b, m**b)]
    assert len(profiles) == count
    for profile in profiles:
        assert lower_bound_probe(m, b, profile) == max(adversary_optima(m, b, profile))


def test_optima_default_to_the_sand_profile():
    for m, b in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        profile = sand_bags(m, b, m**b)
        assert adversary_optima(m, b) == adversary_optima(m, b, profile) == former_probe(m, b, profile)


def test_probe_refuses_oracle_sizes_before_the_skeleton(monkeypatch):
    def no_skeleton(machines, bags):
        raise AssertionError("skeleton built before the size check")
    monkeypatch.setattr(sand, "geometric_skeleton", no_skeleton)
    for m, b in [(9, 2), (2, 17), (3000, 3000)]:
        with pytest.raises(SizeLimit):
            lower_bound_probe(m, b, BagProfile([1] * b))


@pytest.fixture
def str_digits_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_skeleton_refuses_unprintable_scales(str_digits_640):
    # 10**639 has 640 digits and prints; 10**640 has 641 and does not
    assert len(str(geometric_skeleton(10, 639).scale)) == 640
    with pytest.raises(SizeLimit):
        geometric_skeleton(10, 640)
    # near the boundary the power is compared exactly: 3**1341 < 10**640 <= 3**1342
    assert 3**1341 < 10**640 <= 3**1342
    geometric_skeleton(3, 1341)
    with pytest.raises(SizeLimit):
        geometric_skeleton(3, 1342)
    with pytest.raises(SizeLimit):
        sand_bags(3, 1342, 1)


def test_skeleton_refuses_huge_scales_at_once():
    start = time.perf_counter()
    for m, b in [(3000, 3000), (10**6, 10**6), (2, 10**9)]:
        with pytest.raises(SizeLimit):
            geometric_skeleton(m, b)
    assert time.perf_counter() - start < 0.5
