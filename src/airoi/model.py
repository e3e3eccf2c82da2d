"""The portfolio model and the run settings, with every rule that checks them.

Reading and checking a config needs only this module and
:mod:`airoi.quantities`, neither of which imports numpy;
:mod:`airoi.engine` samples the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import benefits as benefits_mod
from . import costs as costs_mod
from . import risk as risk_mod
from .benefits import BenefitItem
from .costs import CapexItem, CostRules, OpexItem
from .quantities import SEED_LIMIT
from .risk import RiskRegister

# The per-iteration engine metrics, each an amount of money, in row order.
ENGINE_METRICS = (
    "gross_benefits",
    "risk_reduction",
    "risk_increase",
    "tco_total",
    "risk_delta",
)

# Most iterations one run may ask for.
MAX_ITERATIONS = 10**8
# Longest planning horizon accepted, in years.
MAX_HORIZON_YEARS = 200


@dataclass(frozen=True)
class SimulationConfig:
    iterations: int = 10_000
    master_seed: int = 0
    worker_count: int | None = 1  # None or "auto": the CPUs this process may run on
    target_relative_se: float | None = None

    def __post_init__(self) -> None:
        if self.worker_count == "auto":
            object.__setattr__(self, "worker_count", None)


@dataclass(frozen=True)
class Portfolio:
    """The full model: benefit items, cost items and rules, risk register."""

    name: str
    currency: str
    horizon_years: int
    discount_rate: float
    benefits: tuple[BenefitItem, ...] = ()
    capex: tuple[CapexItem, ...] = ()
    opex: tuple[OpexItem, ...] = ()
    cost_rules: CostRules = CostRules()
    register: RiskRegister = RiskRegister()


def validate_portfolio(portfolio: Portfolio) -> tuple[list[str], list[str]]:
    """Every model rule; returns (errors, warnings).

    Item messages name their item.  Every year bound depends on the
    horizon, so an invalid horizon is the only error reported.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if not 1 <= portfolio.horizon_years <= MAX_HORIZON_YEARS:
        return [
            f"horizon_years must lie in [1, {MAX_HORIZON_YEARS}], got {portfolio.horizon_years}"
        ], warnings
    if not math.isfinite(portfolio.discount_rate) or portfolio.discount_rate < 0:
        errors.append(f"discount_rate must be finite and >= 0, got {portfolio.discount_rate}")
    if not isinstance(portfolio.currency, str) or not portfolio.currency:
        errors.append(
            "currency must be a single code string; multi-currency portfolios are "
            f"not supported, got {portfolio.currency!r}"
        )

    seen_benefits: set[str] = set()
    for item in portfolio.benefits:
        if item.id in seen_benefits:
            errors.append(f"duplicate benefit id {item.id!r}")
        seen_benefits.add(item.id)
        errors.extend(benefits_mod.validate_item(item, portfolio.horizon_years))

    seen_costs: set[str] = set()
    for capex_item in portfolio.capex:
        if capex_item.id in seen_costs:
            errors.append(f"duplicate cost id {capex_item.id!r}")
        seen_costs.add(capex_item.id)
        errors.extend(costs_mod.validate_capex(capex_item))
        if capex_item.incurred_year >= portfolio.horizon_years:
            warnings.append(
                f"capex {capex_item.id!r} is incurred in year {capex_item.incurred_year}, "
                f"beyond the horizon, and contributes nothing"
            )
    for opex_item in portfolio.opex:
        if opex_item.id in seen_costs:
            errors.append(f"duplicate cost id {opex_item.id!r}")
        seen_costs.add(opex_item.id)
        errors.extend(costs_mod.validate_opex(opex_item))

    rule_errors, rule_warnings = costs_mod.validate_cost_rules(portfolio.cost_rules)
    errors.extend(rule_errors)
    warnings.extend(rule_warnings)

    errors.extend(risk_mod.validate_register(portfolio.register))

    if portfolio.register.scenarios and any(
        item.kind == "risk_reduction_external" for item in portfolio.benefits
    ):
        warnings.append(
            "portfolio mixes risk_reduction_external benefit items with risk "
            "scenarios; check that the same loss is not counted twice"
        )
    return errors, warnings


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_simulation(cfg: SimulationConfig) -> list[str]:
    """Every run-setting rule; returns one message per violation."""
    errors: list[str] = []
    if not _is_int(cfg.iterations) or cfg.iterations < 1:
        errors.append(f"iterations must be an integer >= 1, got {cfg.iterations!r}")
    elif cfg.iterations > MAX_ITERATIONS:
        errors.append(f"iterations must be at most {MAX_ITERATIONS}, got {cfg.iterations}")
    if not _is_int(cfg.master_seed) or not 0 <= cfg.master_seed < SEED_LIMIT:
        errors.append(f"master_seed must be an integer in [0, 2^64), got {cfg.master_seed!r}")
    if cfg.worker_count is not None and (not _is_int(cfg.worker_count) or cfg.worker_count < 1):
        errors.append(
            f"worker_count must be a positive number of workers or 'auto', "
            f"got {cfg.worker_count!r}"
        )
    target = cfg.target_relative_se
    if target is not None and not (
        isinstance(target, (int, float))
        and not isinstance(target, bool)
        and 0 < target < math.inf
    ):
        errors.append(f"target_relative_se must be a finite number > 0, got {target!r}")
    return errors
