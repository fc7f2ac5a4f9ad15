from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import speedrobust as sr
from speedrobust.numerics import (
    ceil_div, decimal_string, exact_factor, exact_ints, exact_rational, floor_scale, format_rational,
    parse_rational, whole_numbers,
)

rationals = st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999)
positive_rationals = st.fractions(
    min_value=Fraction(1, 999), max_value=Fraction(1000), max_denominator=999
)


def test_floor_scale_known_values():
    assert floor_scale(5, Fraction(8, 5)) == 8
    assert floor_scale(1, Fraction(8, 5)) == 1
    assert floor_scale(3, Fraction(8, 5)) == 4


def test_floor_scale_rejects_bad_inputs():
    with pytest.raises(ValueError):
        floor_scale(0, Fraction(8, 5))
    with pytest.raises(ValueError):
        floor_scale(3, Fraction(0))


@given(st.integers(min_value=1, max_value=10**9), positive_rationals)
def test_floor_scale_bracket(z, rho):
    # floor_scale(z, rho) <= z*rho < floor_scale(z, rho) + 1, by cross-multiplication
    f = floor_scale(z, rho)
    assert f * rho.denominator <= z * rho.numerator
    assert z * rho.numerator < (f + 1) * rho.denominator


def test_ceil_div_known_values():
    assert ceil_div(45, 9) == 5
    assert ceil_div(13, 10) == 2
    assert ceil_div(0, 7) == 0


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_ceil_div_bracket(c, m):
    q = ceil_div(c, m)
    assert q * m >= c
    assert (q - 1) * m < c


def test_huge_integers_do_not_overflow():
    # quantities near 60**60 must stay exact
    big = 60**60
    assert ceil_div(big + 1, 60) == 60**59 + 1
    assert floor_scale(big, Fraction(8, 5)) == big * 8 // 5


@given(rationals, rationals, rationals)
def test_field_ops_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


@given(rationals)
def test_canonical_form_is_idempotent(q):
    again = Fraction(q.numerator, q.denominator)
    assert again.numerator == q.numerator
    assert again.denominator == q.denominator
    assert q.denominator > 0


@given(rationals)
def test_serialization_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_integral_without_slash():
    assert format_rational(Fraction(16, 15)) == "16/15"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(8, 4)) == "2"


@pytest.mark.parametrize("bad", ["1.5", "3e2", "", "a/b", "1/0", "0.25"])
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_accepts_signs_and_whitespace():
    assert parse_rational(" -7/2 ") == Fraction(-7, 2)
    assert parse_rational("42") == 42


@pytest.mark.parametrize("call", [
    lambda: floor_scale(10, 0.3),  # Fraction(0.3) is just below 3/10: the floor would be 2
    lambda: sr.FractionalSolution({1: 0.1}, 1),
    lambda: sr.FractionalSolution({1: 1}, 1.0),
    lambda: sr.bricks_bags(20, 3, 3, 1.15),
    lambda: sr.bricks_fractional(1.5, 1, 1),
    lambda: sr.solution_size(sr.bricks_by_cost(3, 2, 2), 1.6),
    lambda: sr.transformation_factor(3, 1.6),
    lambda: sr.normalized_surplus(0.1),
    lambda: sr.surplus_breakpoints(10.5),
    lambda: sr.greedy_assignment(sr.BagProfile([1]), sr.SpeedProfile([1]), 1.1),
    lambda: sr.integral_assignment([1], [1], 1.6),
    lambda: sr.verify_bricks_success_range(2, 2, rho=1.6),
], ids=["floor_scale", "counts", "budget", "bricks_bags", "bricks_fractional", "solution_size",
        "transformation_factor", "normalized_surplus", "surplus_breakpoints", "greedy",
        "integral", "success_range"])
def test_exact_code_refuses_floats(call):
    with pytest.raises(ValueError, match="floats are rejected"):
        call()


@pytest.mark.parametrize("call", [
    lambda: exact_rational(False),
    lambda: sr.Instance([True, 2], 2, 2),  # not the jobs 2 and 1
    lambda: sr.SpeedProfile([True]),  # not the speed 1
], ids=["exact_rational", "instance", "speed_profile"])
def test_exact_code_refuses_booleans(call):
    with pytest.raises(ValueError, match="true/false are rejected"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: sr.verify_bricks_robustness(True, 1), "jobs"),  # not a grid with "n": true
    (lambda: sr.verify_bricks_robustness(4.0, 2), "jobs"),  # not a TypeError from range()
    (lambda: sr.partition_count(5, True), "max_parts"),  # not the count 1
    (lambda: sr.verify_bricks_success_range(True, 2), "m_max"),  # not "m_max": true
    (lambda: sr.verify_bricks_success_range(2, 2.0), "lambda_max"),
    (lambda: sr.robust_bags(6, 2, True), "bags"),
    (lambda: sr.robust_bags(Fraction(6), 2, 2), "jobs"),
    (lambda: sr.bricks_by_cost(6, True, 2), "machines"),
    (lambda: list(sr.enumerate_integral_speed_profiles(3.0, 2)), "total"),
    (lambda: list(sr.enumerate_integral_speed_profiles(3, False)), "machines"),
], ids=["robustness_bool", "robustness_float", "partition_count", "success_range_bool",
        "success_range_float", "robust_bags_bool", "robust_bags_fraction", "bricks_by_cost",
        "enumerate_float", "enumerate_bool"])
def test_integer_arguments_refuse_booleans_and_non_ints(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


def test_exact_ints_accepts_ints_of_any_sign_and_names_the_first_refusal():
    exact_ints(a=0, b=-3, c=10**30)
    with pytest.raises(ValueError, match="^b must be an integer, got '2'$"):
        exact_ints(a=1, b="2", c=1.5)


def test_exact_ints_refuses_values_below_the_least_and_names_them_all():
    exact_ints(0, trials=0)
    with pytest.raises(ValueError, match="^trials must be >= 0, got -1$"):
        exact_ints(0, trials=-1)
    with pytest.raises(ValueError, match="^m_max and lambda_max must both be >= 1, got 0 and 60$"):
        exact_ints(1, m_max=0, lambda_max=60)
    with pytest.raises(ValueError, match="^jobs, machines and bags must all be >= 1, got 3, 0 and 2$"):
        exact_ints(1, jobs=3, machines=0, bags=2)
    with pytest.raises(ValueError, match="^jobs must be an integer, got 0.5$"):  # the type first
        exact_ints(1, machines=0, jobs=0.5)


def test_exact_factor_returns_the_fraction_in_range():
    assert exact_factor("8/5") == Fraction(8, 5) and type(exact_factor(2)) is Fraction
    assert exact_factor(1, least=1) == 1
    for bad, message in [(0, "^rho must be positive, got 0$"), (Fraction(-1, 2), "positive"),
                         (1.6, "floats are rejected"), (True, "true/false are rejected")]:
        with pytest.raises(ValueError, match=message):
            exact_factor(bad)
    with pytest.raises(ValueError, match="^lambda_max must be >= 1, got 1/2$"):
        exact_factor(Fraction(1, 2), "lambda_max", least=1)


def test_whole_numbers_takes_whole_rationals_and_refuses_the_rest():
    assert whole_numbers([3, Fraction(2), "1", 0], "sizes") == [3, 2, 1, 0]
    for bad, message in [(Fraction(5, 2), "sizes must be whole numbers, got 5/2"),
                         (-1, "sizes must be whole numbers, got -1"),
                         (2.0, "floats are rejected"), (True, "true/false are rejected")]:
        with pytest.raises(ValueError, match=message):
            whole_numbers([4, bad], "sizes")


def _decimal_reference(value: Fraction, places: int) -> str:
    # the decimal module's ROUND_HALF_UP rounds half away from zero; it keeps a signed zero, which
    # decimal_string does not print
    with localcontext() as ctx:
        ctx.prec = 60
        rounded = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
    return str(abs(rounded) if rounded == 0 else rounded)


@pytest.mark.parametrize("places", range(5))
def test_decimal_string_matches_the_decimal_module(places):
    # every p/q with |p| <= 60 and q <= 40: the halves that round away from zero, on both signs,
    # and the negative values that round to zero and print no sign
    for q in range(1, 41):
        for p in range(-60, 61):
            value = Fraction(p, q) / 10**places
            assert decimal_string(value, places) == _decimal_reference(value, places), (value, places)
