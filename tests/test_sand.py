import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speedrobust import sand
from speedrobust.model import BagProfile, ScaleMismatch, SizeLimit, SpeedProfile
from speedrobust.sand import adversary_configs, lower_bound_probe, sand_bags, sand_robustness
from speedrobust.second_stage import greedy_assignment, optimal_second_stage
from speedrobust.verify import _partitions


def former_skeleton(m, b):
    """The weights, scale and weight total as the library's former ``geometric_skeleton`` built them."""
    weights = []
    w = m ** (b - 1)
    for _ in range(b):
        weights.append(w)
        w = w // m * (m - 1)
    scale = m**b
    return tuple(weights), scale, scale - (m - 1) ** b


def test_adversary_and_sand_bags_run_at_the_former_skeleton_weights():
    # all m, b up to 20: the slow speeds are the weights (a single machine faces one configuration,
    # at w_0 = 1), the weights are the sand bags summing to the weight total, and
    # sum(weights[:k]) == scale - (m - 1) * weights[k - 1]
    for m in range(1, 21):
        for b in range(1, 21):
            weights, scale, weight_total = former_skeleton(m, b)
            configs = adversary_configs(m, b)
            assert len(configs) == (b if m > 1 else 1)
            assert [c.speeds[-1] for c in configs] == list(weights[: len(configs)])
            assert all(sum(c.speeds) == scale for c in configs)
            assert sand_bags(m, b, weight_total).sizes == weights
            prefix = 0
            for k in range(b):
                prefix += weights[k]
                assert prefix == scale - (m - 1) * weights[k]
            assert prefix == weight_total


def test_probe_defaults_to_the_sand_profile():
    # all m, b up to 20: past the oracle's caps both calls raise SizeLimit
    for m in range(1, 21):
        for b in range(1, 21):
            if m > 8 or b > 16:
                for profile in (None, sand_bags(m, b, m**b)):
                    with pytest.raises(SizeLimit):
                        lower_bound_probe(m, b, profile)
            else:
                assert lower_bound_probe(m, b) == lower_bound_probe(m, b, sand_bags(m, b, m**b))


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
            _, scale, weight_total = former_skeleton(m, b)
            assert sand_robustness(m, b) == Fraction(scale, weight_total)


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


def test_sand_bags_builds_no_weights(monkeypatch):
    # the first size comes from the closed form, not from the adversary's b big-integer weights
    def refuse(machines, bags):
        raise AssertionError("sand_bags walked the weights")

    monkeypatch.setattr(sand, "_adversary_speeds", refuse)
    assert sand_bags(2, 4, 15).sizes == (8, 4, 2, 1)
    assert sand_bags(3, 3, 19).sizes == (9, 6, 4)


def test_single_machine_sand_bags_put_the_whole_total_in_the_first_bag():
    for b in range(1, 41):
        for total in (1, Fraction(7, 3), 10**9):
            assert sand_bags(1, b, total).sizes == (total,) + (0,) * (b - 1), (b, total)
        assert sand_robustness(1, b) == 1


def test_skeleton_and_sizes_match_the_closed_forms():
    # weights are a running product and sizes a running Fraction product from a closed-form
    # first size; both must equal the closed forms m**(b-j) * (m-1)**(j-1) and w * total / weight_total
    for m, b in [(3, 400), (7, 40), (2, 64), *((m, b) for m in range(1, 9) for b in range(1, 17))]:
        weights = tuple(m ** (b - j) * (m - 1) ** (j - 1) for j in range(1, b + 1))
        former, _, weight_total = former_skeleton(m, b)
        assert former == weights
        assert weight_total == sum(weights) == m**b - (m - 1) ** b
        if m > 1:
            assert [c.speeds[-1] for c in adversary_configs(m, b)] == list(weights)
        for total in (1, Fraction(7, 3), m**b):
            closed = BagProfile([Fraction(w, weight_total) * total for w in weights])
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
    weights, scale, _ = former_skeleton(m, b)
    configs = adversary_configs(m, b)
    assert len(configs) == b
    for k, config in enumerate(configs):
        assert sum(config.speeds) == scale
        assert config.speeds[0] >= weights[k]


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
    assert lower_bound_probe(m, b, profile) == max(former_probe(m, b, profile))


# The grids of the oracle-cert benchmark, 1,357 profiles, and three more of the lower-bound
# campaign: every one the seeded bounds, the skip or the early stop could get wrong.
@pytest.mark.parametrize("m, b, count", [(2, 2, 3), (2, 3, 10), (3, 3, 75), (2, 4, 64),
                                         (2, 5, 831), (4, 3, 374), (5, 3, 1365), (3, 4, 4410),
                                         (6, 3, 3997)])
def test_probe_is_the_greatest_optimum_on_every_integer_profile(m, b, count):
    # The lower-bound campaign hands each partition, unpadded, to the kernel past the public
    # checks: it must give the probe of the profile BagProfile validates.
    configs = list(sand._adversary_speeds(m, b))
    partitions = list(_partitions(m**b, b, m**b))
    assert len(partitions) == count
    for parts in partitions:
        profile = BagProfile(parts + (0,) * (b - len(parts)))
        probe = lower_bound_probe(m, b, profile)
        assert probe == max(former_probe(m, b, profile))
        assert sand._probe(parts, configs, 1) == probe


def test_default_probe_is_the_former_per_configuration_oracle():
    for m, b in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        assert lower_bound_probe(m, b) == max(former_probe(m, b, sand_bags(m, b, m**b)))


def test_probe_refuses_oracle_sizes_before_the_profile(monkeypatch):
    def refuse(*args):
        raise AssertionError("profile or configurations built before the size check")
    monkeypatch.setattr(sand, "sand_bags", refuse)
    monkeypatch.setattr(sand, "_adversary_speeds", refuse)
    for m, b in [(9, 2), (2, 17), (3000, 3000)]:
        for profile in (None, BagProfile([1] * b)):
            with pytest.raises(SizeLimit):
                lower_bound_probe(m, b, profile)


@pytest.fixture
def str_digits_640():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


def test_configs_refuse_unprintable_scales(str_digits_640):
    # 10**639 has 640 digits and prints; 10**640 has 641 and does not
    assert len(str(sum(adversary_configs(10, 639)[0].speeds))) == 640
    with pytest.raises(SizeLimit):
        adversary_configs(10, 640)
    # near the boundary the power is compared exactly: 3**1341 < 10**640 <= 3**1342
    assert 3**1341 < 10**640 <= 3**1342
    adversary_configs(3, 1341)
    with pytest.raises(SizeLimit):
        adversary_configs(3, 1342)
    with pytest.raises(SizeLimit):
        sand_bags(3, 1342, 1)
    # a single machine's scale is 1, but its profile still holds b entries: it takes the counts two
    # machines take, and 2**2126 has 640 digits, 2**2127 has 641
    assert adversary_configs(1, 2126) == [SpeedProfile([1])]
    assert sand_bags(1, 2126, 1).sizes == (1,) + (0,) * 2125
    for build in (lambda: adversary_configs(1, 2127), lambda: sand_bags(1, 2127, 1)):
        with pytest.raises(SizeLimit, match=r"^2127 bags on a single machine: .* at most 640 decimal"):
            build()
    assert sand_robustness(1, 2127) == 1


def test_configs_refuse_huge_scales_at_once():
    start = time.perf_counter()
    for m, b in [(3000, 3000), (10**6, 10**6), (2, 10**9), (1, 10**12)]:
        with pytest.raises(SizeLimit):
            adversary_configs(m, b)
        with pytest.raises(SizeLimit):
            sand_bags(m, b, 1)
    assert time.perf_counter() - start < 0.5
    # the m = 1 refusal names the bag count asked for, not a two-machine scale 2**b
    for build in (lambda: adversary_configs(1, 10**12), lambda: sand_bags(1, 10**12, 1)):
        with pytest.raises(SizeLimit, match=r"^1000000000000 bags on a single machine: ") as refused:
            build()
        assert "**" not in str(refused.value)


@pytest.fixture
def str_digits_lifted():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_a_lifted_str_limit_guards_the_scale_at_the_default(str_digits_lifted):
    # a limit of 0 lifts str()'s check, but computing a huge scale still does not end: the guard
    # reads it as Python's default of 4,300 digits (it once returned at once and let the call run)
    for build in (lambda: sand_robustness(10, 4300), lambda: sand_bags(10, 4300, 1),
                  lambda: adversary_configs(10, 4300)):
        with pytest.raises(SizeLimit, match=r"^scale 10\*\*4300 has more than 4300 decimal digits$"):
            build()
    assert sand_robustness(10, 4299) > 1  # 10**4299 has 4,300 digits
    test_configs_refuse_huge_scales_at_once()  # the same cells, refused as fast
