"""Core algorithms: schedules, closed forms, dynamic programs, evaluators."""

from .closed_form import p_error, phi, segment_cost_guaranteed, t_lost
from .costs import CostProfile
from .dp_partial import optimize_partial
from .dp_single import optimize_single_level
from .dp_two_level import optimize_two_level
from .evaluator import (
    MarkovEvaluation,
    error_free_time,
    evaluate_schedule,
    evaluate_schedules,
)
from .exhaustive import ACTION_SETS, enumerate_schedules, exhaustive_search
from .factors import PairFactors
from .result import Solution
from .schedule import Action, ActionCounts, Schedule
from .solver import ALGORITHMS, canonical_algorithm, optimize, optimize_batch

__all__ = [
    "Action",
    "ActionCounts",
    "Schedule",
    "Solution",
    "CostProfile",
    "PairFactors",
    "optimize",
    "optimize_batch",
    "optimize_partial",
    "optimize_single_level",
    "optimize_two_level",
    "canonical_algorithm",
    "ALGORITHMS",
    "ACTION_SETS",
    "enumerate_schedules",
    "exhaustive_search",
    "evaluate_schedule",
    "evaluate_schedules",
    "error_free_time",
    "MarkovEvaluation",
    "p_error",
    "phi",
    "t_lost",
    "segment_cost_guaranteed",
]
