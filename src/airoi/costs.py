"""Total-cost-of-ownership schedule: capex amortization, opex, rules.

Builds the per-year cost stack for a planning horizon: straight-line
amortized capital items, operating streams, maintenance charged as a
fraction of development capex, specialist talent premiums, and risk
reserves charged either as cash or as a carrying cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .quantities import UncertainQuantity, mean, validate

CAPEX_CATEGORIES = ("development", "infrastructure", "licensing", "data", "other")
OPEX_CATEGORIES = (
    "compute",
    "data_pipeline",
    "monitoring",
    "retraining",
    "personnel",
    "compliance",
    "security",
    "insurance",
    "other",
)

# Sanctioned rate bands; values outside draw a warning, never an error.
MAINTENANCE_RATE_RANGE = (0.15, 0.25)
RESERVE_RATE_RANGE = (0.10, 0.15)
TALENT_PREMIUM_RANGE = (0.30, 0.50)

RESERVE_TREATMENTS = ("cash_cost", "carrying_cost")


@dataclass(frozen=True)
class CapexItem:
    id: str
    amount: UncertainQuantity
    useful_life_years: int
    incurred_year: int = 0
    category: str = "development"


@dataclass(frozen=True)
class OpexItem:
    id: str
    annual_amount: UncertainQuantity
    start_year: int
    end_year: int  # inclusive
    category: str = "other"
    specialist: bool = False


@dataclass(frozen=True)
class CostRules:
    maintenance_rate: float = 0.20
    reserve_rate: float = 0.10
    talent_premium_rate: float = 0.40
    reserve_treatment: str = "cash_cost"
    reserve_carrying_rate: float = 0.0


@dataclass(frozen=True)
class CostSchedule:
    """Per-year cost stack; ``per_year`` is the sum of the component rows.

    Entries are floats, or numpy columns of one value per iteration when the
    schedule was built from columns of amounts (a year that no item reaches
    keeps the float 0.0).  ``total`` is for float schedules.
    """

    per_year: tuple[float, ...]
    capex: tuple[float, ...]
    opex: tuple[float, ...]
    maintenance: tuple[float, ...]
    reserve: tuple[float, ...]

    @property
    def total(self) -> float:
        return math.fsum(self.per_year)


def validate_capex(item: CapexItem) -> list[str]:
    problems: list[str] = []
    if not item.id:
        problems.append("capex item id must be nonempty")
    label = f"capex {item.id!r} amount"
    problems.extend(validate(item.amount, nonnegative=True, label=label))
    if item.useful_life_years < 1:
        problems.append(f"capex {item.id!r}: useful_life_years must be >= 1")
    if item.incurred_year < 0:
        problems.append(f"capex {item.id!r}: incurred_year must be >= 0")
    if item.category not in CAPEX_CATEGORIES:
        problems.append(
            f"capex {item.id!r}: category must be one of {CAPEX_CATEGORIES}, "
            f"got {item.category!r}"
        )
    return problems


def validate_opex(item: OpexItem) -> list[str]:
    problems: list[str] = []
    if not item.id:
        problems.append("opex item id must be nonempty")
    label = f"opex {item.id!r} annual_amount"
    problems.extend(validate(item.annual_amount, nonnegative=True, label=label))
    if item.start_year > item.end_year:
        problems.append(
            f"opex {item.id!r}: start_year {item.start_year} exceeds end_year {item.end_year}"
        )
    if item.start_year < 0:
        problems.append(f"opex {item.id!r}: start_year must be >= 0")
    if item.category not in OPEX_CATEGORIES:
        problems.append(
            f"opex {item.id!r}: category must be one of {OPEX_CATEGORIES}, "
            f"got {item.category!r}"
        )
    return problems


def validate_cost_rules(rules: CostRules) -> tuple[list[str], list[str]]:
    """Returns (errors, warnings); out-of-band rates warn but never fail."""
    errors: list[str] = []
    warnings: list[str] = []
    for name, value in (
        ("maintenance_rate", rules.maintenance_rate),
        ("reserve_rate", rules.reserve_rate),
        ("talent_premium_rate", rules.talent_premium_rate),
        ("reserve_carrying_rate", rules.reserve_carrying_rate),
    ):
        if not 0.0 <= value <= 1.0:
            errors.append(f"{name} must lie in [0, 1], got {value}")
    if rules.reserve_treatment not in RESERVE_TREATMENTS:
        errors.append(
            f"reserve_treatment must be one of {RESERVE_TREATMENTS}, "
            f"got {rules.reserve_treatment!r}"
        )
    if errors:
        return errors, warnings
    for name, value, band in (
        ("maintenance_rate", rules.maintenance_rate, MAINTENANCE_RATE_RANGE),
        ("reserve_rate", rules.reserve_rate, RESERVE_RATE_RANGE),
        ("talent_premium_rate", rules.talent_premium_rate, TALENT_PREMIUM_RANGE),
    ):
        if not band[0] <= value <= band[1]:
            warnings.append(
                f"{name} {value} is outside the customary range "
                f"{band[0]:.2f}-{band[1]:.2f}"
            )
    return errors, warnings


# ---------------------------------------------------------------------------
# Schedule building blocks
# ---------------------------------------------------------------------------


def amortize_capex(
    item: CapexItem,
    horizon: int,
    *,
    amount: float | None = None,
    cash_basis: bool = False,
) -> list[float]:
    """Per-year charge for one capital item, truncated at the horizon.

    Straight-line over the useful life starting at the incurred year; with
    ``cash_basis`` the full amount lands in the incurred year instead (used
    for payback, which measures actual cash recovery).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    value = mean(item.amount) if amount is None else amount
    schedule = [0.0] * horizon
    if item.incurred_year >= horizon:
        return schedule
    if cash_basis:
        schedule[item.incurred_year] = value
        return schedule
    share = value / item.useful_life_years
    last = min(item.incurred_year + item.useful_life_years, horizon)
    for year in range(item.incurred_year, last):
        schedule[year] = share
    return schedule


def maintenance_opex(dev_capex_total: float, rate: float, horizon: int) -> list[float]:
    """Annual maintenance from year 1 onward, as a fraction of development capex."""
    if rate < 0:
        raise ValueError(f"maintenance rate must be >= 0, got {rate}")
    charge = rate * dev_capex_total
    return [0.0] + [charge] * (horizon - 1)


def reserve_requirement(annual_opex: float, rate: float) -> float:
    """Capital set aside against unmodeled failures for one year of operation."""
    if rate < 0:
        raise ValueError(f"reserve rate must be >= 0, got {rate}")
    return rate * annual_opex


def reserve_charge(reserve: float, rules: CostRules) -> float:
    """Cost contribution of a reserve: the full amount, or its carrying cost."""
    if rules.reserve_treatment == "carrying_cost":
        return reserve * rules.reserve_carrying_rate
    return reserve


def _premium_multiplier(item: OpexItem, rules: CostRules) -> float:
    if item.category == "personnel" and item.specialist:
        return 1.0 + rules.talent_premium_rate
    return 1.0


def schedule_from_rows(
    capex_row: list[float],
    opex_row: list[float],
    maintenance_row: list[float],
    reserve_row: list[float],
) -> CostSchedule:
    per_year = [
        capex_row[y] + opex_row[y] + maintenance_row[y] + reserve_row[y]
        for y in range(len(capex_row))
    ]
    return CostSchedule(
        per_year=tuple(per_year),
        capex=tuple(capex_row),
        opex=tuple(opex_row),
        maintenance=tuple(maintenance_row),
        reserve=tuple(reserve_row),
    )


def tco(
    capex_items: Sequence[CapexItem],
    opex_items: Sequence[OpexItem],
    rules: CostRules,
    horizon: int,
    *,
    amounts: Mapping[str, float] | None = None,
) -> CostSchedule:
    """The amortized per-year cost schedule, ``tco_pair(...)[0]``.

    The total is undiscounted — discounting happens in valuation.
    """
    return tco_pair(capex_items, opex_items, rules, horizon, amounts=amounts)[0]


def schedule_csv_rows(schedule: CostSchedule) -> list[list]:
    """Cost schedule as CSV rows: year, capex, opex, maintenance, reserve, total."""
    rows: list[list] = [["year", "capex", "opex", "maintenance", "reserve", "total"]]
    for year in range(len(schedule.per_year)):
        rows.append(
            [
                year,
                f"{schedule.capex[year]:.2f}",
                f"{schedule.opex[year]:.2f}",
                f"{schedule.maintenance[year]:.2f}",
                f"{schedule.reserve[year]:.2f}",
                f"{schedule.per_year[year]:.2f}",
            ]
        )
    return rows


def tco_pair(
    capex_items: Sequence[CapexItem],
    opex_items: Sequence[OpexItem],
    rules: CostRules,
    horizon: int,
    *,
    amounts: Mapping[str, float] | None = None,
) -> tuple[CostSchedule, CostSchedule]:
    """(amortized, cash-basis) schedules sharing one pass over the items.

    ``amounts`` maps each capex and opex id to its amount: a float, or an
    equal-length numpy column of one value per iteration, to which every
    rule applies with the same operations in the same order.  When omitted
    the analytic means are used.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    capex_row = [0.0] * horizon
    cash_capex_row = [0.0] * horizon
    opex_row = [0.0] * horizon
    dev_capex_total = 0.0
    for item in capex_items:
        value = amounts[item.id] if amounts is not None else mean(item.amount)
        amortized = amortize_capex(item, horizon, amount=value)
        cash = amortize_capex(item, horizon, amount=value, cash_basis=True)
        for year in range(horizon):
            capex_row[year] += amortized[year]
            cash_capex_row[year] += cash[year]
        if item.category == "development":
            dev_capex_total += value
    for item in opex_items:
        value = amounts[item.id] if amounts is not None else mean(item.annual_amount)
        # A new object, not ``*=``: a drawn column belongs to the caller.
        value = value * _premium_multiplier(item, rules)
        first = max(item.start_year, 0)
        last = min(item.end_year, horizon - 1)
        for year in range(first, last + 1):
            opex_row[year] += value
    maintenance_row = maintenance_opex(dev_capex_total, rules.maintenance_rate, horizon)
    reserve_row = [
        reserve_charge(
            reserve_requirement(opex_row[year] + maintenance_row[year], rules.reserve_rate),
            rules,
        )
        for year in range(horizon)
    ]
    return (
        schedule_from_rows(capex_row, opex_row, maintenance_row, reserve_row),
        schedule_from_rows(cash_capex_row, opex_row, maintenance_row, reserve_row),
    )
