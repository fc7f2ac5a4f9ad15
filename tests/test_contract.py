"""The argument contract of every public callable: bad counts and factors raise ``ValueError``.

``CONTRACT`` has one entry per callable in ``speedrobust.__all__``, and one
for each callable outside it that the CLI calls and README documents
(``CLI_CALLABLES``): keyword arguments that make a valid call, the count
arguments with the least value each accepts (None for any ``int``), and the
factor arguments with theirs (None for any positive rational).  Each count
and each factor is replaced in turn by values of the wrong type or out of
range, and the call must raise ``ValueError`` or a subclass of it.  A
replacement in range must give a result or one of those errors, never
another exception.  Each argument that takes one of the library's value
objects (a profile, an assignment, an instance or a solution) is replaced in
turn by a plain list, tuple and dict, and the call must raise ``ValueError``
naming the class it expected.  Huge sizes are out of scope: without
``SizeLimit`` guards some calls would not end.
"""

from __future__ import annotations

import contextlib
import types
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

import speedrobust as sr
from speedrobust.numerics import decimal_string, exact_factor

RHO = Fraction(8, 5)


class Entry(NamedTuple):
    call: Callable
    args: dict
    counts: dict = {}
    factors: dict = {}


CONTRACT: dict[str, Entry] = {
    # value types, records and errors: no count or factor argument is checked
    "Assignment": Entry(sr.Assignment, {"machine_of_bag": [0, 1]}),
    "BagProfile": Entry(sr.BagProfile, {"sizes": [2, 1]}),
    "SpeedProfile": Entry(sr.SpeedProfile, {"speeds": [2, 1]}),
    "FractionalSolution": Entry(sr.FractionalSolution, {"counts": {2: 1, 1: 1}, "bag_budget": 2}),
    "BrickSolution": Entry(sr.BrickSolution, {"bag_sizes": (3, 2), "bag_costs": (2, 2), "total_size": 5,
                                              "successful": True}),
    "SurplusPoint": Entry(sr.SurplusPoint, {"lam": Fraction(1), "surplus": Fraction(0)}),
    "PebblesResult": Entry(sr.PebblesResult, {"bag_ends": (1,), "bag_sizes": (Fraction(1),),
                                              "packed_all": True}),
    "VerificationReport": Entry(sr.VerificationReport, {"grid": {}, "checked": 0, "failures": [],
                                                        "elapsed_ms": 0}),
    "Infeasible": Entry(sr.Infeasible, {}),
    "InvalidAssignment": Entry(sr.InvalidAssignment, {}),
    "ScaleMismatch": Entry(sr.ScaleMismatch, {}),
    "SizeLimit": Entry(sr.SizeLimit, {}),
    "format_rational": Entry(sr.format_rational, {"value": Fraction(3, 2)}),
    "parse_rational": Entry(sr.parse_rational, {"text": "3/2"}),
    "decimal_string": Entry(decimal_string, {"value": Fraction(3, 2), "places": 3}, {"places": 0}),
    "makespan": Entry(sr.makespan, {"assignment": sr.Assignment([0, 1]),
                                    "bags": sr.BagProfile([2, 1]), "speeds": sr.SpeedProfile([2, 1])}),
    "optimal_second_stage": Entry(sr.optimal_second_stage, {"bags": sr.BagProfile([2, 1]),
                                                            "speeds": sr.SpeedProfile([2, 1])}),
    "pebble_ratio": Entry(sr.pebble_ratio, {"instance": sr.Instance([1, 1], 2, 2)}),
    # numerics
    "floor_scale": Entry(sr.floor_scale, {"units": 3, "rho": RHO}, {"units": 1}, {"rho": None}),
    "ceil_div": Entry(sr.ceil_div, {"amount": 7, "parts": 2}, {"amount": 0, "parts": 1}),
    # model
    "Instance": Entry(sr.Instance, {"job_sizes": [1, 1], "machine_count": 2, "bag_count": 2},
                      {"machine_count": 1, "bag_count": 1}),
    # sand and pebbles
    "sand_robustness": Entry(sr.sand_robustness, {"machines": 2, "bags": 3},
                             {"machines": 1, "bags": 1}),
    "adversary_configs": Entry(sr.adversary_configs, {"machines": 2, "bags": 3},
                               {"machines": 1, "bags": 1}),
    "sand_bags": Entry(sr.sand_bags, {"machines": 2, "bags": 3, "total": 7},
                       {"machines": 1, "bags": 1}, {"total": None}),
    "lower_bound_probe": Entry(sr.lower_bound_probe,
                               {"machines": 2, "bags": 2, "profile": sr.sand_bags(2, 2, 4)},
                               {"machines": 1, "bags": 1}),
    "pebbles_bags": Entry(sr.pebbles_bags, {"instance": sr.Instance([1, 1, 1, 1], 2, 2), "rho": 2},
                          factors={"rho": 1}),
    # bricks
    "bricks_bags": Entry(sr.bricks_bags, {"jobs": 5, "machines": 2, "bags": 2, "rho": RHO},
                         {"jobs": 1, "machines": 1, "bags": 1}, {"rho": 1}),
    "bricks_by_cost": Entry(sr.bricks_by_cost, {"jobs": 5, "machines": 2, "bags": 2},
                            {"jobs": 1, "machines": 1, "bags": 1}),
    "bricks_fractional": Entry(sr.bricks_fractional, {"jobs": 5, "machines": 2, "bags": 2},
                               factors={"jobs": None, "machines": None, "bags": None}),
    "solution_size": Entry(sr.solution_size, {"solution": sr.bricks_by_cost(5, 2, 2), "rho": RHO},
                           factors={"rho": None}),
    "transformation_factor": Entry(sr.transformation_factor, {"cost": 3, "rho": RHO},
                                   {"cost": 2}, {"rho": None}),
    "negative_factor_sum": Entry(sr.negative_factor_sum, {"max_cost": 10, "rho": RHO},
                                 {"max_cost": 2}, {"rho": None}),
    "normalized_surplus": Entry(sr.normalized_surplus, {"lam": Fraction(11, 3)},
                                factors={"lam": None}),
    "surplus_breakpoints": Entry(sr.surplus_breakpoints, {"lambda_max": 3},
                                 factors={"lambda_max": 1}),
    "robust_bags": Entry(sr.robust_bags, {"jobs": 5, "machines": 2, "bags": 2},
                         {"jobs": 1, "machines": 1, "bags": 1}),
    # second stage
    "greedy_assignment": Entry(sr.greedy_assignment, {"bags": sr.BagProfile([2, 1]),
                                                      "speeds": sr.SpeedProfile([2, 1]), "rho": RHO},
                               factors={"rho": None}),
    "integral_assignment": Entry(sr.integral_assignment,
                                 {"bag_sizes": [2, 1], "speeds": [2, 1], "rho": RHO},
                                 factors={"rho": None}),
    # verify
    "enumerate_integral_speed_profiles": Entry(sr.enumerate_integral_speed_profiles,
                                               {"total": 4, "machines": 2},
                                               {"total": 1, "machines": 1}),
    "partition_count": Entry(sr.partition_count, {"total": 5, "max_parts": 2},
                             {"total": None, "max_parts": None}),
    "verify_bricks_robustness": Entry(sr.verify_bricks_robustness, {"jobs": 5, "machines": 2},
                                      {"jobs": 1, "machines": 1}),
    "verify_bricks_success_range": Entry(sr.verify_bricks_success_range,
                                         {"m_max": 2, "lambda_max": 2, "rho": RHO},
                                         {"m_max": 1, "lambda_max": 1}, {"rho": 1}),
    "verify_sand_upper": Entry(sr.verify_sand_upper, {"machines": 2, "bags": 2, "trials": 3, "seed": 0},
                               {"machines": 1, "bags": 1, "trials": 0, "seed": None}),
}

CLI_CALLABLES = {"decimal_string"}

COUNT_SWAPS = [True, 2.0, Fraction(3, 2), "2", 0, -1]
FACTOR_SWAPS = [1.6, 0.5, True, False, 0, -1, Fraction(1, 2)]
# Every argument that takes one of the library's value objects gets these plain values instead.
OBJECTS = (sr.Assignment, sr.BagProfile, sr.SpeedProfile, sr.Instance, sr.FractionalSolution)
OBJECT_SWAPS = [[2, 1], (0, 1), {2: 1}]


def _public_callables() -> set[str]:
    return {name for name in sr.__all__
            if callable(getattr(sr, name)) and not isinstance(getattr(sr, name), types.ModuleType)}


def test_every_public_callable_has_an_entry():
    assert set(CONTRACT) == _public_callables() | CLI_CALLABLES


def test_star_import_binds_no_submodule():
    assert [name for name in sr.__all__ if isinstance(getattr(sr, name), types.ModuleType)] == []


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_the_valid_arguments_give_a_result(name):
    entry = CONTRACT[name]
    entry.call(**entry.args)


def _out_of_domain(value, least, factor: bool) -> bool:
    """Whether ``value`` is refused: counts are ints >= least, factors rationals > 0 or >= least."""
    if isinstance(value, (bool, float)) or not (factor or isinstance(value, int)):
        return True
    if least is None:
        return factor and value <= 0
    return value < least


def _swaps():
    for name, entry in sorted(CONTRACT.items()):
        for kinds, values, factor in ((entry.counts, COUNT_SWAPS, False),
                                      (entry.factors, FACTOR_SWAPS, True)):
            for arg, least in kinds.items():
                for value in values:
                    yield pytest.param(name, arg, value, _out_of_domain(value, least, factor),
                                       id=f"{name}-{arg}={value!r}")


@pytest.mark.parametrize("name,arg,value,refused", _swaps())
def test_a_bad_count_or_factor_raises_value_error(name, arg, value, refused):
    entry = CONTRACT[name]
    call = lambda: entry.call(**{**entry.args, arg: value})  # noqa: E731
    if refused:
        with pytest.raises(ValueError):
            call()
    else:  # in range: a result, or a refusal for a stated reason (Infeasible, SizeLimit, ...)
        with contextlib.suppress(ValueError):
            call()


def _object_swaps():
    for name, entry in sorted(CONTRACT.items()):
        for arg, value in entry.args.items():
            if isinstance(value, OBJECTS):
                for plain in OBJECT_SWAPS:
                    yield pytest.param(name, arg, plain, id=f"{name}-{arg}={plain!r}")


def test_every_object_argument_is_swept():
    assert {(p.values[0], p.values[1]) for p in _object_swaps()} == {
        ("makespan", "assignment"), ("makespan", "bags"), ("makespan", "speeds"),
        ("optimal_second_stage", "bags"), ("optimal_second_stage", "speeds"),
        ("greedy_assignment", "bags"), ("greedy_assignment", "speeds"),
        ("lower_bound_probe", "profile"), ("pebble_ratio", "instance"),
        ("pebbles_bags", "instance"), ("solution_size", "solution")}


@pytest.mark.parametrize("name,arg,plain", _object_swaps())
def test_a_plain_value_for_an_object_raises_value_error(name, arg, plain):
    entry = CONTRACT[name]
    with pytest.raises(ValueError, match=type(entry.args[arg]).__name__):
        entry.call(**{**entry.args, arg: plain})


@pytest.mark.parametrize("call", [
    lambda: sr.floor_scale(2.0, RHO),  # returned 3.0
    lambda: sr.ceil_div(3.0, 2),  # returned 2.0
    lambda: sr.integral_assignment([2.5, 1], [3, 1], RHO),  # truncated the 2.5 to 2
    lambda: sr.integral_assignment([2, 1], [3.7, 1], RHO),
    lambda: sr.bricks_bags(True, 2, 2, RHO),
    lambda: sr.Instance([1], 2.0, 2),
    lambda: sr.verify_sand_upper(2, 2, True, seed=1.5),
    lambda: sr.verify_sand_upper(2.0, 2, 5),  # raised AttributeError
    lambda: sr.verify_bricks_success_range(2, 2, rho=0),  # reported every cell as failing
    lambda: sr.enumerate_integral_speed_profiles(0, 2),  # returned a generator: not iterated here
    lambda: sr.enumerate_integral_speed_profiles(3.0, 2),
    lambda: sr.format_rational(0.1),  # returned 3602879701896397/36028797018963968
    lambda: sr.format_rational(True),  # returned 1
    lambda: decimal_string(0.1, 3),  # returned 0.100
    lambda: sr.Assignment([1.5, True]),  # stored machines (1, 1)
    lambda: sr.BagProfile("12"),  # returned sizes (2, 1)
    lambda: sr.SpeedProfile("31"),  # returned speeds (3, 1)
    lambda: sr.Instance("12", 1, 1),  # returned job sizes (2, 1)
    lambda: sr.integral_assignment([3, 1], "21", RHO),  # returned Assignment((0, 1))
    lambda: sr.BagProfile([None]),  # raised TypeError
    lambda: sr.SpeedProfile([1 + 2j]),  # raised TypeError
    lambda: sr.format_rational(None),  # raised TypeError
    lambda: exact_factor([1]),  # raised TypeError
    lambda: sr.BagProfile([Decimal("Infinity")]),  # raised OverflowError
    lambda: sr.BagProfile(b"12"),  # returned sizes (50, 49), the code points
    lambda: sr.SpeedProfile(bytearray(b"\x03\x01")),  # returned speeds (3, 1)
    lambda: sr.BagProfile({3: 1, 2: 5}),  # returned sizes (3, 2), the keys
    lambda: sr.integral_assignment(b"\x03\x01", [2, 2], RHO),  # ran on the sizes 3 and 1
    lambda: sr.Assignment(b"\x00\x01"),  # stored machines (0, 1), the bytes
    lambda: sr.Assignment(bytearray(b"\x00\x00")),  # stored machines (0, 0)
    lambda: sr.Assignment({1: "a", 0: "b"}),  # stored machines (1, 0), the keys
    lambda: sr.makespan(sr.Assignment(b"\x00\x00"), sr.BagProfile([1, 1]), sr.SpeedProfile([1])),  # returned 2
    lambda: sr.lower_bound_probe(2, 2, [2, 2]),  # raised AttributeError
    lambda: sr.optimal_second_stage([2, 1], sr.SpeedProfile([1])),  # raised AttributeError
    lambda: sr.optimal_second_stage(sr.BagProfile([2, 1]), [1]),  # raised AttributeError
    lambda: sr.sand_bags(1, 10**12, 1),  # ran out of memory building 10**12 sizes
    lambda: sr.adversary_configs(1, 10**12),  # ran out of memory building 10**12 weights
    lambda: sr.greedy_assignment([2, 1], sr.SpeedProfile([1]), RHO),  # raised AttributeError
    lambda: sr.greedy_assignment(sr.BagProfile([2, 1]), [1], RHO),  # raised AttributeError
    lambda: sr.makespan(sr.Assignment([0]), [1], sr.SpeedProfile([1])),  # raised AttributeError
    lambda: sr.makespan((0,), sr.BagProfile([1]), sr.SpeedProfile([1])),  # raised AttributeError
    lambda: sr.pebbles_bags([1, 1], 2),  # raised AttributeError
    lambda: sr.pebble_ratio([1, 1]),  # raised AttributeError
    lambda: sr.solution_size({2: 1}, RHO),  # raised AttributeError
], ids=["floor_scale", "ceil_div", "integral_size", "integral_speed", "bricks_bags", "instance",
        "sand_upper_bool", "sand_upper_float", "success_range_rho", "enumerate_zero",
        "enumerate_float", "format_float", "format_bool", "decimal_float", "assignment_index",
        "bags_string", "speeds_string", "instance_string", "integral_string", "bags_none",
        "speeds_complex", "format_none", "factor_list", "bags_infinite_decimal", "bags_bytes",
        "speeds_bytearray", "bags_mapping", "integral_bytes", "assignment_bytes",
        "assignment_bytearray", "assignment_mapping", "makespan_bytes", "probe_list",
        "oracle_bag_list", "oracle_speed_list", "sand_bags_one_machine", "configs_one_machine",
        "greedy_bag_list", "greedy_speed_list", "makespan_bag_list", "makespan_assignment_tuple",
        "pebbles_list", "pebble_ratio_list", "solution_size_dict"])
def test_calls_that_once_answered_wrongly_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
