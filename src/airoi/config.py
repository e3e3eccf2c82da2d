"""Portfolio configuration file loading and validation.

The config is a single JSON document (``schema_version`` 1) declaring the
portfolio metadata, benefit items, cost items and rules, risk scenarios,
optional regulatory penalty scenarios, and simulation defaults.  Loading
returns the parsed portfolio plus a diagnostic list; errors block use,
warnings (out-of-band rates, possible double counting) do not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import benefits as benefits_mod
from . import costs as costs_mod
from . import risk as risk_mod
from .benefits import AbTestResult, BenefitItem
from .costs import CapexItem, CostRules, OpexItem
from .distributions import (
    SEED_LIMIT,
    Lognormal,
    Pert,
    Point,
    PointRate,
    PoissonRate,
    Triangular,
    Uniform,
    FrequencyModel,
    UncertainQuantity,
    scaled,
)
from .engine import Portfolio, SimulationConfig, validate_portfolio
from .risk import PENALTY_TIERS, RiskRegister, RiskScenario

SCHEMA_VERSION = 1

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


@dataclass(frozen=True)
class PortfolioConfig:
    """A loaded configuration: the model plus simulation defaults and identity."""

    portfolio: Portfolio
    simulation: SimulationConfig
    schema_version: int
    source_path: Path | None
    content_hash: str


@dataclass(frozen=True)
class LossActual:
    events: int
    total_loss: float


@dataclass(frozen=True)
class ActualsRecord:
    year: int
    quarter: int
    benefits: dict[str, float] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    losses: dict[str, LossActual] = field(default_factory=dict)


class _Collector:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def error(self, location: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(SEVERITY_ERROR, location, message))

    def warning(self, location: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(SEVERITY_WARNING, location, message))

    @property
    def has_errors(self) -> bool:
        return any(d.severity == SEVERITY_ERROR for d in self.diagnostics)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == SEVERITY_ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Literal parsers
# ---------------------------------------------------------------------------


def parse_quantity(
    obj: Any, location: str, collector: _Collector
) -> UncertainQuantity | None:
    """Parse a distribution literal; bare numbers are Point shorthand."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return Point(float(obj))
    if not isinstance(obj, dict):
        collector.error(location, f"expected a number or distribution object, got {obj!r}")
        return None
    kind = obj.get("kind")
    try:
        if kind == "point":
            return Point(float(obj["value"]))
        if kind == "uniform":
            return Uniform(float(obj["lo"]), float(obj["hi"]))
        if kind == "triangular":
            return Triangular(float(obj["lo"]), float(obj["mode"]), float(obj["hi"]))
        if kind == "pert":
            return Pert(float(obj["lo"]), float(obj["mode"]), float(obj["hi"]))
        if kind == "lognormal":
            return Lognormal(float(obj["median"]), float(obj["sigma"]))
    except (KeyError, TypeError, ValueError) as exc:
        collector.error(location, f"bad {kind} literal: {exc}")
        return None
    collector.error(
        location,
        f"unknown distribution kind {kind!r}; expected one of "
        "point, uniform, triangular, pert, lognormal",
    )
    return None


def parse_frequency(
    obj: Any, location: str, collector: _Collector
) -> FrequencyModel | None:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return PointRate(float(obj))
    if not isinstance(obj, dict):
        collector.error(location, f"expected a rate or frequency object, got {obj!r}")
        return None
    kind = obj.get("kind")
    try:
        if kind == "point":
            return PointRate(float(obj["rate"]))
        if kind == "poisson":
            return PoissonRate(float(obj["rate"]))
    except (KeyError, TypeError, ValueError) as exc:
        collector.error(location, f"bad {kind} frequency literal: {exc}")
        return None
    collector.error(location, f"unknown frequency kind {kind!r}; expected point or poisson")
    return None


def _require(
    data: dict, key: str, location: str, collector: _Collector, kind: type | tuple
) -> Any:
    if key not in data:
        collector.error(location, f"missing required field {key!r}")
        return None
    value = data[key]
    if kind is float:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            collector.error(location, f"field {key!r} must be a finite number, got {value!r}")
            return None
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            collector.error(location, f"field {key!r} must be an integer, got {value!r}")
            return None
        return value
    if not isinstance(value, kind):
        collector.error(location, f"field {key!r} has the wrong type: {value!r}")
        return None
    return value


def _opt_int(
    data: dict, key: str, default: int, location: str, collector: _Collector
) -> int | None:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        collector.error(location, f"field {key!r} must be an integer, got {value!r}")
        return None
    return value


def _opt_float(
    data: dict, key: str, default: float, location: str, collector: _Collector
) -> float | None:
    value = data.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        collector.error(location, f"field {key!r} must be a finite number, got {value!r}")
        return None
    return float(value)


def _section_list(data: dict, key: str, collector: _Collector) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        collector.error(key, f"{key} must be a list")
        return []
    if any(not isinstance(entry, dict) for entry in value):
        collector.error(key, f"every {key} entry must be an object")
        return [entry for entry in value if isinstance(entry, dict)]
    return value


# ---------------------------------------------------------------------------
# Section parsers
# ---------------------------------------------------------------------------


def _parse_benefit(
    data: dict, index: int, horizon: int, base_dir: Path, collector: _Collector
) -> BenefitItem | None:
    loc = f"benefits[{index}]"
    item_id = _require(data, "id", loc, collector, str)
    kind = _require(data, "kind", loc, collector, str)
    if item_id is None or kind is None:
        return None
    loc = f"benefits[{index}] ({item_id})"
    if kind not in benefits_mod.BENEFIT_KINDS:
        collector.error(loc, f"unknown benefit kind {kind!r}")
        return None

    phase = data.get("phase", "early")
    if phase not in benefits_mod.PHASES:
        collector.error(loc, f"phase must be one of {benefits_mod.PHASES}, got {phase!r}")
        return None

    annual_value: UncertainQuantity | None = None
    if kind == "productivity":
        hours = parse_quantity(
            data.get("freed_hours_per_year"), f"{loc}.freed_hours_per_year", collector
        )
        cost = _require(data, "loaded_cost_per_hour", loc, collector, float)
        if hours is None or cost is None:
            return None
        if cost < 0:
            collector.error(loc, "loaded_cost_per_hour must be >= 0")
            return None
        annual_value = _scaled_or_error(hours, cost, loc, collector)
    elif kind == "error_reduction":
        errors = parse_quantity(
            data.get("errors_avoided_per_year"), f"{loc}.errors_avoided_per_year", collector
        )
        cost = _require(data, "cost_per_error", loc, collector, float)
        if errors is None or cost is None:
            return None
        if cost < 0:
            collector.error(loc, "cost_per_error must be >= 0")
            return None
        annual_value = _scaled_or_error(errors, cost, loc, collector)
    else:
        # revenue_uplift and risk_reduction_external: a direct distribution,
        # or (uplift only) an A/B experiment converted through the
        # phase-dependent projection margin.
        if "annual_value" in data:
            annual_value = parse_quantity(data["annual_value"], f"{loc}.annual_value", collector)
        elif kind == "revenue_uplift" and "ab_test" in data:
            ab = _parse_ab_test(data["ab_test"], f"{loc}.ab_test", base_dir, collector)
            if ab is None:
                return None
            try:
                estimate = benefits_mod.uplift_estimate(ab)
                margin = data.get("projection_margin", benefits_mod.default_margin(phase))
                annual_value = benefits_mod.apply_projection_margin(
                    estimate.annual_value, float(margin)
                )
            except ValueError as exc:
                collector.error(loc, str(exc))
                return None
        else:
            collector.error(
                loc, "benefit needs an annual_value distribution (or ab_test for revenue_uplift)"
            )
            return None
    if annual_value is None:
        return None

    start_year = _opt_int(data, "start_year", 0, loc, collector)
    end_year = _opt_int(data, "end_year", horizon - 1, loc, collector)
    attribution = _opt_float(data, "attribution_factor", 1.0, loc, collector)
    erosion = _opt_float(data, "erosion_rate", 0.0, loc, collector)
    if None in (start_year, end_year, attribution, erosion):
        return None
    item = BenefitItem(
        id=item_id,
        kind=kind,
        annual_value=annual_value,
        start_year=start_year,
        end_year=end_year,
        attribution_factor=attribution,
        phase=phase,
        erosion_rate=erosion,
    )
    for message in benefits_mod.validate_item(item, horizon):
        collector.error(loc, message)
    return item


def _scaled_or_error(quantity, factor, loc, collector):
    try:
        return scaled(quantity, factor)
    except ValueError as exc:
        collector.error(loc, str(exc))
        return None


def _parse_ab_test(
    data: Any, location: str, base_dir: Path, collector: _Collector
) -> AbTestResult | None:
    if not isinstance(data, dict):
        collector.error(location, "ab_test must be an object")
        return None
    counts: dict[str, int] = {}
    if "csv" in data:
        csv_path = base_dir / data["csv"]
        try:
            with open(csv_path, newline="") as handle:
                for row in csv.DictReader(handle):
                    arm = row.get("arm", "").strip().lower()
                    if arm not in ("treatment", "control"):
                        collector.error(location, f"unknown arm {arm!r} in {csv_path}")
                        return None
                    counts[f"{arm}_trials"] = int(row["trials"])
                    counts[f"{arm}_successes"] = int(row["successes"])
        except OSError as exc:
            collector.error(location, f"cannot read arm counts: {exc}")
            return None
        except (KeyError, ValueError) as exc:
            collector.error(location, f"bad arm-count CSV {csv_path}: {exc}")
            return None
    else:
        for key in ("treatment_trials", "treatment_successes", "control_trials", "control_successes"):
            value = _require(data, key, location, collector, int)
            if value is None:
                return None
            counts[key] = value
    value_per_success = _require(data, "value_per_success", location, collector, float)
    annual_volume = _require(data, "annual_volume", location, collector, float)
    if value_per_success is None or annual_volume is None:
        return None
    missing = [
        k
        for k in ("treatment_trials", "treatment_successes", "control_trials", "control_successes")
        if k not in counts
    ]
    if missing:
        collector.error(location, f"arm counts missing: {', '.join(missing)}")
        return None
    return AbTestResult(
        treatment_trials=counts["treatment_trials"],
        treatment_successes=counts["treatment_successes"],
        control_trials=counts["control_trials"],
        control_successes=counts["control_successes"],
        value_per_success=value_per_success,
        annual_volume=annual_volume,
    )


def _parse_capex(data: dict, index: int, collector: _Collector) -> CapexItem | None:
    loc = f"costs.capex[{index}]"
    item_id = _require(data, "id", loc, collector, str)
    if item_id is None:
        return None
    loc = f"costs.capex[{index}] ({item_id})"
    amount = parse_quantity(data.get("amount"), f"{loc}.amount", collector)
    life = _require(data, "useful_life_years", loc, collector, int)
    incurred = _opt_int(data, "incurred_year", 0, loc, collector)
    if amount is None or life is None or incurred is None:
        return None
    item = CapexItem(
        id=item_id,
        amount=amount,
        useful_life_years=life,
        incurred_year=incurred,
        category=data.get("category", "development"),
    )
    for message in costs_mod.validate_capex(item):
        collector.error(loc, message)
    return item


def _parse_opex(
    data: dict, index: int, horizon: int, collector: _Collector
) -> OpexItem | None:
    loc = f"costs.opex[{index}]"
    item_id = _require(data, "id", loc, collector, str)
    if item_id is None:
        return None
    loc = f"costs.opex[{index}] ({item_id})"
    amount = parse_quantity(data.get("annual_amount"), f"{loc}.annual_amount", collector)
    start_year = _opt_int(data, "start_year", 0, loc, collector)
    end_year = _opt_int(data, "end_year", horizon - 1, loc, collector)
    if amount is None or start_year is None or end_year is None:
        return None
    item = OpexItem(
        id=item_id,
        annual_amount=amount,
        start_year=start_year,
        end_year=end_year,
        category=data.get("category", "other"),
        specialist=bool(data.get("specialist", False)),
    )
    for message in costs_mod.validate_opex(item):
        collector.error(loc, message)
    return item


def _parse_rules(data: Any, collector: _Collector) -> CostRules:
    loc = "costs.rules"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        collector.error(loc, "rules must be an object")
        return CostRules()
    rules = CostRules(
        maintenance_rate=data.get("maintenance_rate", CostRules.maintenance_rate),
        reserve_rate=data.get("reserve_rate", CostRules.reserve_rate),
        talent_premium_rate=data.get("talent_premium_rate", CostRules.talent_premium_rate),
        reserve_treatment=data.get("reserve_treatment", CostRules.reserve_treatment),
        reserve_carrying_rate=data.get(
            "reserve_carrying_rate", CostRules.reserve_carrying_rate
        ),
    )
    errors, warnings = costs_mod.validate_cost_rules(rules)
    for message in errors:
        collector.error(loc, message)
    for message in warnings:
        collector.warning(loc, message)
    return rules


def _parse_scenario(
    data: dict, index: int, collector: _Collector
) -> RiskScenario | None:
    loc = f"risks[{index}]"
    scenario_id = _require(data, "id", loc, collector, str)
    applies_to = _require(data, "applies_to", loc, collector, str)
    if scenario_id is None or applies_to is None:
        return None
    loc = f"risks[{index}] ({scenario_id})"
    sle = parse_quantity(data.get("sle"), f"{loc}.sle", collector)
    if sle is None:
        return None
    if applies_to not in risk_mod.APPLIES_TO:
        collector.error(loc, f"applies_to must be one of {risk_mod.APPLIES_TO}")
        return None

    shared = data.get("frequency")
    frequency_current = None
    frequency_ai = None
    if applies_to in ("current_only", "both"):
        raw = data.get("frequency_current", shared)
        if raw is None:
            collector.error(loc, "missing frequency for the current state")
        else:
            frequency_current = parse_frequency(raw, f"{loc}.frequency_current", collector)
    if applies_to in ("ai_only", "both"):
        raw = data.get("frequency_ai", shared)
        if raw is None:
            collector.error(loc, "missing frequency for the ai state")
        else:
            frequency_ai = parse_frequency(raw, f"{loc}.frequency_ai", collector)

    tags = data.get("tags", [])
    if not isinstance(tags, list):
        collector.error(loc, "tags must be a list of strings")
        tags = []
    scenario = RiskScenario(
        id=scenario_id,
        sle=sle,
        applies_to=applies_to,
        frequency_current=frequency_current,
        frequency_ai=frequency_ai,
        description=data.get("description", ""),
        tags=tuple(str(tag) for tag in tags),
    )
    for message in risk_mod.validate_scenario(scenario):
        collector.error(loc, message)
    return scenario


def _parse_penalties(
    data: Any, collector: _Collector
) -> list[RiskScenario]:
    if data is None:
        return []
    loc = "penalties"
    if not isinstance(data, dict):
        collector.error(loc, "penalties must be an object")
        return []
    turnover = _require(data, "global_turnover", loc, collector, float)
    entries = data.get("scenarios", [])
    if turnover is None or not isinstance(entries, list):
        if not isinstance(entries, list):
            collector.error(loc, "penalties.scenarios must be a list")
        return []
    scenarios = []
    for index, entry in enumerate(entries):
        entry_loc = f"penalties.scenarios[{index}]"
        if not isinstance(entry, dict):
            collector.error(entry_loc, "penalty scenario must be an object")
            continue
        scenario_id = _require(entry, "id", entry_loc, collector, str)
        tier_name = _require(entry, "tier", entry_loc, collector, str)
        if scenario_id is None or tier_name is None:
            continue
        if tier_name not in PENALTY_TIERS:
            collector.error(
                entry_loc, f"unknown tier {tier_name!r}; expected one of {sorted(PENALTY_TIERS)}"
            )
            continue
        severity = parse_quantity(
            entry.get("severity_fraction"), f"{entry_loc}.severity_fraction", collector
        )
        rate = parse_frequency(
            entry.get("violation_rate"), f"{entry_loc}.violation_rate", collector
        )
        if severity is None or rate is None:
            continue
        try:
            scenarios.append(
                risk_mod.penalty_scenario(
                    scenario_id,
                    PENALTY_TIERS[tier_name],
                    turnover,
                    severity,
                    rate,
                    description=entry.get("description", ""),
                )
            )
        except ValueError as exc:
            collector.error(entry_loc, str(exc))
    return scenarios


# ---------------------------------------------------------------------------
# Top-level loading
# ---------------------------------------------------------------------------


def parse_config(
    data: Any, *, source_path: Path | None = None, content_hash: str = ""
) -> tuple[PortfolioConfig | None, list[Diagnostic]]:
    collector = _Collector()
    if not isinstance(data, dict):
        collector.error("$", "config root must be a JSON object")
        return None, collector.diagnostics

    version = data.get("schema_version")
    if version is None:
        collector.error("$", "missing schema_version")
    elif version != SCHEMA_VERSION:
        collector.error("$", f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")

    name = data.get("name", "unnamed portfolio")
    currency = data.get("currency")
    if not isinstance(currency, str) or not currency:
        collector.error(
            "$.currency",
            "currency must be a single code string; multi-currency portfolios are not supported",
        )
        currency = ""
    horizon = _require(data, "horizon_years", "$", collector, int)
    discount = _require(data, "discount_rate", "$", collector, float)
    if horizon is None or horizon < 1:
        if horizon is not None:
            collector.error("$.horizon_years", f"horizon_years must be >= 1, got {horizon}")
        return None, collector.diagnostics
    if discount is None:
        return None, collector.diagnostics

    base_dir = source_path.parent if source_path is not None else Path.cwd()

    benefit_items = []
    for index, entry in enumerate(_section_list(data, "benefits", collector)):
        item = _parse_benefit(entry, index, horizon, base_dir, collector)
        if item is not None:
            benefit_items.append(item)

    costs_section = data.get("costs", {})
    if not isinstance(costs_section, dict):
        collector.error("costs", "costs must be an object")
        costs_section = {}
    capex_items = []
    for index, entry in enumerate(_section_list(costs_section, "capex", collector)):
        item = _parse_capex(entry, index, collector)
        if item is not None:
            capex_items.append(item)
    opex_items = []
    for index, entry in enumerate(_section_list(costs_section, "opex", collector)):
        item = _parse_opex(entry, index, horizon, collector)
        if item is not None:
            opex_items.append(item)
    rules = _parse_rules(costs_section.get("rules"), collector)

    scenarios = []
    for index, entry in enumerate(_section_list(data, "risks", collector)):
        scenario = _parse_scenario(entry, index, collector)
        if scenario is not None:
            scenarios.append(scenario)
    scenarios.extend(_parse_penalties(data.get("penalties"), collector))

    sim_section = data.get("simulation", {})
    if not isinstance(sim_section, dict):
        collector.error("simulation", "simulation must be an object")
        sim_section = {}
    worker_raw = sim_section.get("worker_count", 1)
    worker_count: int | None
    if worker_raw == "auto":
        worker_count = None
    elif isinstance(worker_raw, int) and not isinstance(worker_raw, bool) and worker_raw >= 1:
        worker_count = worker_raw
    else:
        collector.error(
            "simulation.worker_count", f"must be a positive integer or 'auto', got {worker_raw!r}"
        )
        worker_count = 1
    simulation = SimulationConfig(
        iterations=sim_section.get("iterations", 10_000),
        master_seed=sim_section.get("master_seed", 0),
        worker_count=worker_count,
        target_relative_se=sim_section.get("target_relative_se"),
    )
    if not isinstance(simulation.iterations, int) or simulation.iterations < 1:
        collector.error("simulation.iterations", f"must be >= 1, got {simulation.iterations!r}")
    if not isinstance(simulation.master_seed, int) or isinstance(simulation.master_seed, bool):
        collector.error("simulation.master_seed", "must be an integer")
    elif not 0 <= simulation.master_seed < SEED_LIMIT:
        collector.error(
            "simulation.master_seed", f"must lie in [0, 2^64), got {simulation.master_seed}"
        )

    portfolio = Portfolio(
        name=name,
        currency=currency,
        horizon_years=horizon,
        discount_rate=discount,
        benefits=tuple(benefit_items),
        capex=tuple(capex_items),
        opex=tuple(opex_items),
        cost_rules=rules,
        register=RiskRegister(scenarios=tuple(scenarios)),
    )
    errors, warnings = validate_portfolio(portfolio)
    for message in errors:
        collector.error("portfolio", message)
    for message in warnings:
        collector.warning("portfolio", message)

    if collector.has_errors:
        return None, collector.diagnostics
    return (
        PortfolioConfig(
            portfolio=portfolio,
            simulation=simulation,
            schema_version=SCHEMA_VERSION,
            source_path=source_path,
            content_hash=content_hash,
        ),
        collector.diagnostics,
    )


def load_config(path: str | Path) -> tuple[PortfolioConfig | None, list[Diagnostic]]:
    """Read, parse, and validate a portfolio config file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return None, [Diagnostic(SEVERITY_ERROR, str(path), f"cannot read config: {exc}")]
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        location = str(path)
        if isinstance(exc, json.JSONDecodeError):
            location = f"{path}:{exc.lineno}:{exc.colno}"
        return None, [Diagnostic(SEVERITY_ERROR, location, f"invalid JSON: {exc}")]
    content_hash = hashlib.sha256(raw).hexdigest()
    return parse_config(data, source_path=path, content_hash=content_hash)


# ---------------------------------------------------------------------------
# Quarterly actuals
# ---------------------------------------------------------------------------


def load_actuals(
    path: str | Path, config: PortfolioConfig
) -> tuple[list[ActualsRecord], list[Diagnostic]]:
    """Read quarterly actuals and check every id against the portfolio."""
    path = Path(path)
    collector = _Collector()
    try:
        data = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        collector.error(str(path), f"cannot read actuals: {exc}")
        return [], collector.diagnostics
    except json.JSONDecodeError as exc:
        collector.error(f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc}")
        return [], collector.diagnostics

    records_raw = data.get("records") if isinstance(data, dict) else None
    if not isinstance(records_raw, list) or not records_raw:
        collector.error("$", "actuals must contain a nonempty 'records' list")
        return [], collector.diagnostics

    portfolio = config.portfolio
    benefit_ids = {item.id for item in portfolio.benefits}
    cost_ids = {item.id for item in portfolio.capex} | {item.id for item in portfolio.opex}
    scenario_ids = {s.id for s in portfolio.register.scenarios}

    records = []
    for index, entry in enumerate(records_raw):
        loc = f"records[{index}]"
        if not isinstance(entry, dict):
            collector.error(loc, "record must be an object")
            continue
        period = entry.get("period", {})
        year = period.get("year") if isinstance(period, dict) else None
        quarter = period.get("quarter") if isinstance(period, dict) else None
        if not isinstance(year, int) or not isinstance(quarter, int) or not 1 <= quarter <= 4:
            collector.error(loc, "period must carry an integer year and quarter in 1..4")
            continue
        unknown: list[str] = []
        benefits_actual = {}
        for item_id, value in (entry.get("benefits") or {}).items():
            if item_id not in benefit_ids:
                unknown.append(item_id)
            else:
                benefits_actual[item_id] = float(value)
        costs_actual = {}
        for item_id, value in (entry.get("costs") or {}).items():
            if item_id not in cost_ids:
                unknown.append(item_id)
            else:
                costs_actual[item_id] = float(value)
        losses_actual = {}
        for item_id, value in (entry.get("losses") or {}).items():
            if item_id not in scenario_ids:
                unknown.append(item_id)
                continue
            if not isinstance(value, dict):
                collector.error(loc, f"loss entry {item_id!r} must be an object")
                continue
            losses_actual[item_id] = LossActual(
                events=int(value.get("events", 0)),
                total_loss=float(value.get("total_loss", 0.0)),
            )
        if unknown:
            collector.error(loc, "unknown ids: " + ", ".join(sorted(unknown)))
            continue
        records.append(
            ActualsRecord(
                year=year,
                quarter=quarter,
                benefits=benefits_actual,
                costs=costs_actual,
                losses=losses_actual,
            )
        )
    return records, collector.diagnostics
