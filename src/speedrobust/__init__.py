"""Speed-robust bag scheduling: exact constructions, assigners, and verification."""

from .bricks import (
    BRICK_ROBUSTNESS,
    BrickSolution,
    SurplusPoint,
    bricks_bags,
    bricks_by_cost,
    bricks_fractional,
    negative_factor_sum,
    normalized_surplus,
    robust_bags,
    solution_size,
    surplus_breakpoints,
    transformation_factor,
    trim_to_total,
)
from .model import (
    Assignment,
    BagProfile,
    FractionalSolution,
    Infeasible,
    Instance,
    InvalidAssignment,
    ScaleMismatch,
    SizeLimit,
    SpeedProfile,
    makespan,
)
from .numerics import Rational, ceil_div, floor_scale, format_rational, parse_rational
from .pebbles import PebblesResult, pebble_ratio, pebbles_bags, reference_sequence
from .sand import (
    GeometricSkeleton,
    adversary_configs,
    geometric_skeleton,
    lower_bound_probe,
    sand_bags,
    sand_robustness,
)
from .second_stage import (
    greedy_assignment,
    integral_assignment,
    optimal_second_stage,
)
from .verify import (
    CAMPAIGNS,
    VerificationReport,
    enumerate_integral_speed_profiles,
    partition_count,
    verify_bricks_robustness,
    verify_bricks_success_range,
    verify_sand_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
