"""Gross benefit quantification: productivity, error reduction, revenue uplift.

Benefit magnitudes carry an attribution factor (the share of the observed
improvement actually credited to the system), a phase-dependent projection
margin for early-stage estimates, and an optional geometric erosion rate
modeling unserviced technical debt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

from .quantities import Point, Triangular, UncertainQuantity, mean, validate

BENEFIT_KINDS = (
    "productivity",
    "error_reduction",
    "revenue_uplift",
    "risk_reduction_external",
)

PHASES = ("early", "mature")

# Early-phase projections carry a 25% symmetric band by default; mature
# estimates narrow once actuals accumulate.
DEFAULT_PROJECTION_MARGINS = {"early": 0.25, "mature": 0.10}


@dataclass(frozen=True)
class BenefitItem:
    """One benefit stream with its annual-value distribution and decay profile."""

    id: str
    kind: str
    annual_value: UncertainQuantity
    start_year: int
    end_year: int  # inclusive
    attribution_factor: float = 1.0
    phase: str = "early"
    erosion_rate: float = 0.0


@dataclass(frozen=True)
class AbTestResult:
    treatment_trials: int
    treatment_successes: int
    control_trials: int
    control_successes: int
    value_per_success: float
    annual_volume: float


@dataclass(frozen=True)
class UpliftEstimate:
    """Incremental annual value isolated by a controlled experiment."""

    annual_value: float
    lower: float
    upper: float
    confidence: float


def validate_item(item: BenefitItem, horizon: int | None = None) -> list[str]:
    problems: list[str] = []
    if not item.id:
        problems.append("benefit item id must be nonempty")
    if item.kind not in BENEFIT_KINDS:
        problems.append(
            f"benefit {item.id!r}: kind must be one of {BENEFIT_KINDS}, got {item.kind!r}"
        )
    problems.extend(validate(item.annual_value, label=f"benefit {item.id!r} annual_value"))
    if not 0.0 <= item.attribution_factor <= 1.0:
        problems.append(
            f"benefit {item.id!r}: attribution_factor must lie in [0, 1], "
            f"got {item.attribution_factor}"
        )
    if not 0.0 <= item.erosion_rate < 1.0:
        problems.append(
            f"benefit {item.id!r}: erosion_rate must lie in [0, 1), got {item.erosion_rate}"
        )
    if item.phase not in PHASES:
        problems.append(f"benefit {item.id!r}: phase must be one of {PHASES}")
    if item.start_year > item.end_year:
        problems.append(
            f"benefit {item.id!r}: start_year {item.start_year} exceeds "
            f"end_year {item.end_year}"
        )
    if item.start_year < 0:
        problems.append(f"benefit {item.id!r}: start_year must be >= 0")
    if horizon is not None and item.end_year >= horizon:
        problems.append(
            f"benefit {item.id!r}: end_year {item.end_year} exceeds horizon "
            f"(last year is {horizon - 1})"
        )
    return problems


# ---------------------------------------------------------------------------
# Kind-specific magnitude rules
# ---------------------------------------------------------------------------


def uplift_estimate(ab: AbTestResult, confidence: float = 0.95) -> UpliftEstimate:
    """Incremental annual value from a two-arm experiment.

    Point estimate is the rate difference scaled by volume and unit value;
    the interval uses the unpooled two-proportion normal approximation.
    Negative lower bounds are meaningful and preserved.
    """
    if ab.treatment_trials < 1 or ab.control_trials < 1:
        raise ValueError("both experiment arms need at least one trial")
    if not (0 <= ab.treatment_successes <= ab.treatment_trials):
        raise ValueError("treatment successes must lie in [0, trials]")
    if not (0 <= ab.control_successes <= ab.control_trials):
        raise ValueError("control successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    p_t = ab.treatment_successes / ab.treatment_trials
    p_c = ab.control_successes / ab.control_trials
    scale = ab.annual_volume * ab.value_per_success
    point = (p_t - p_c) * scale
    se = math.sqrt(
        p_t * (1.0 - p_t) / ab.treatment_trials + p_c * (1.0 - p_c) / ab.control_trials
    )
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    half_width = z * se * scale
    return UpliftEstimate(
        annual_value=point,
        lower=point - half_width,
        upper=point + half_width,
        confidence=confidence,
    )


def apply_projection_margin(point_benefit: float, margin: float) -> UncertainQuantity:
    """Symmetric triangular band around a point estimate; mean-preserving.

    A zero margin degenerates to the point itself.  The band scales with
    the magnitude, so negative point estimates (cannibalization entered as
    negative benefits) keep a well-ordered support.
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"projection margin must lie in [0, 1), got {margin}")
    if margin == 0.0:
        return Point(point_benefit)
    half = abs(point_benefit) * margin
    return Triangular(point_benefit - half, point_benefit, point_benefit + half)


# ---------------------------------------------------------------------------
# Schedule assembly
# ---------------------------------------------------------------------------


def item_value_at(item: BenefitItem, year: int, base_value: float) -> float:
    """Attribution-weighted value in a given year, decayed from the start year.

    ``base_value`` may be a float or a numpy column; it is never modified.
    """
    if year < item.start_year or year > item.end_year:
        return 0.0
    value = base_value * item.attribution_factor
    if item.erosion_rate > 0 and year > item.start_year:
        value *= (1.0 - item.erosion_rate) ** (year - item.start_year)
    return value


def benefit_schedule(
    items: Sequence[BenefitItem],
    horizon: int,
    values: Mapping[str, float] | None = None,
) -> list[float]:
    """Per-year gross benefits over the horizon.

    ``values`` maps item id to its annual value: a float, or an equal-length
    numpy column of one value per iteration, to which attribution and
    erosion apply with the same operations in the same order.  A year that
    no item reaches stays the float 0.0.  When omitted, analytic means are
    used.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    schedule = [0.0] * horizon
    for item in items:
        base = values[item.id] if values is not None else mean(item.annual_value)
        first = max(item.start_year, 0)
        last = min(item.end_year, horizon - 1)
        for year in range(first, last + 1):
            schedule[year] += item_value_at(item, year, base)
    return schedule
