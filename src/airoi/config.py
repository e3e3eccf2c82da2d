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
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from . import benefits as benefits_mod
from . import risk as risk_mod
from .benefits import AbTestResult, BenefitItem
from .costs import CapexItem, CostRules, OpexItem
from .distributions import (
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
from .engine import Portfolio, SimulationConfig, validate_portfolio, validate_simulation
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


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == SEVERITY_ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Literal parsers
# ---------------------------------------------------------------------------


_QUANTITY_FAMILIES = {
    "point": (Point, ("value",)),
    "uniform": (Uniform, ("lo", "hi")),
    "triangular": (Triangular, ("lo", "mode", "hi")),
    "pert": (Pert, ("lo", "mode", "hi")),
    "lognormal": (Lognormal, ("median", "sigma")),
}
_FREQUENCY_FAMILIES = {
    "point": (PointRate, ("rate",)),
    "poisson": (PoissonRate, ("rate",)),
}


def _parse_literal(obj: Any, location: str, collector: _Collector, families: dict, noun: str):
    """A literal of one of ``families``; a bare number is its point shorthand."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        _, (name,) = families["point"]
        obj = {"kind": "point", name: obj}
    if not isinstance(obj, dict):
        collector.error(location, f"expected a number or {noun} object, got {obj!r}")
        return None
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in families:
        collector.error(
            location, f"unknown {noun} kind {kind!r}; expected one of {', '.join(families)}"
        )
        return None
    family, names = families[kind]
    params = [_require(obj, name, location, collector, float) for name in names]
    return None if None in params else family(*params)


def parse_quantity(
    obj: Any, location: str, collector: _Collector
) -> UncertainQuantity | None:
    """Parse a distribution literal; bare numbers are Point shorthand."""
    return _parse_literal(obj, location, collector, _QUANTITY_FAMILIES, "distribution")


def parse_frequency(
    obj: Any, location: str, collector: _Collector
) -> FrequencyModel | None:
    """Parse a frequency literal; bare numbers are PointRate shorthand."""
    return _parse_literal(obj, location, collector, _FREQUENCY_FAMILIES, "frequency")


_REQUIRED = object()


def _require(
    data: dict,
    key: str,
    location: str,
    collector: _Collector,
    kind: type,
    default: Any = _REQUIRED,
) -> Any:
    """The typed value of ``data[key]``, or None after reporting why not.

    A missing key is an error unless a ``default`` is given, which is
    returned as is.
    """
    if key not in data:
        if default is _REQUIRED:
            collector.error(location, f"missing required field {key!r}")
            return None
        return default
    value = data[key]
    if kind is float:
        number = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(number):
            collector.error(location, f"field {key!r} must be a finite number, got {value!r}")
            return None
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            collector.error(location, f"field {key!r} must be an integer, got {value!r}")
            return None
        return value
    if not isinstance(value, kind):
        collector.error(location, f"field {key!r} has the wrong type: {value!r}")
        return None
    return value


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

    phase = _require(data, "phase", loc, collector, str, default="early")
    if phase is None:
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
            # An unknown phase is reported with the item; its margin is moot.
            default = benefits_mod.DEFAULT_PROJECTION_MARGINS.get(phase, 0.0)
            margin = _require(data, "projection_margin", loc, collector, float, default)
            if ab is None or margin is None:
                return None
            try:
                estimate = benefits_mod.uplift_estimate(ab)
                annual_value = benefits_mod.apply_projection_margin(
                    estimate.annual_value, margin
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

    start_year = _require(data, "start_year", loc, collector, int, 0)
    end_year = _require(data, "end_year", loc, collector, int, horizon - 1)
    attribution = _require(data, "attribution_factor", loc, collector, float, 1.0)
    erosion = _require(data, "erosion_rate", loc, collector, float, 0.0)
    if None in (start_year, end_year, attribution, erosion):
        return None
    return BenefitItem(
        id=item_id,
        kind=kind,
        annual_value=annual_value,
        start_year=start_year,
        end_year=end_year,
        attribution_factor=attribution,
        phase=phase,
        erosion_rate=erosion,
    )


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
        csv_name = _require(data, "csv", location, collector, str)
        if csv_name is None:
            return None
        csv_path = base_dir / csv_name
        try:
            with open(csv_path, newline="", encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    arm = (row.get("arm") or "").strip().lower()
                    if arm not in ("treatment", "control"):
                        collector.error(location, f"unknown arm {arm!r} in {csv_path}")
                        return None
                    counts[f"{arm}_trials"] = int(row["trials"])
                    counts[f"{arm}_successes"] = int(row["successes"])
        except OSError as exc:
            collector.error(location, f"cannot read arm counts: {exc}")
            return None
        except (KeyError, TypeError, ValueError) as exc:
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
    incurred = _require(data, "incurred_year", loc, collector, int, 0)
    category = _require(data, "category", loc, collector, str, "development")
    if None in (amount, life, incurred, category):
        return None
    return CapexItem(
        id=item_id,
        amount=amount,
        useful_life_years=life,
        incurred_year=incurred,
        category=category,
    )


def _parse_opex(
    data: dict, index: int, horizon: int, collector: _Collector
) -> OpexItem | None:
    loc = f"costs.opex[{index}]"
    item_id = _require(data, "id", loc, collector, str)
    if item_id is None:
        return None
    loc = f"costs.opex[{index}] ({item_id})"
    amount = parse_quantity(data.get("annual_amount"), f"{loc}.annual_amount", collector)
    start_year = _require(data, "start_year", loc, collector, int, 0)
    end_year = _require(data, "end_year", loc, collector, int, horizon - 1)
    category = _require(data, "category", loc, collector, str, "other")
    specialist = _require(data, "specialist", loc, collector, bool, False)
    if None in (amount, start_year, end_year, category, specialist):
        return None
    return OpexItem(
        id=item_id,
        annual_amount=amount,
        start_year=start_year,
        end_year=end_year,
        category=category,
        specialist=specialist,
    )


def _parse_rules(data: Any, collector: _Collector) -> CostRules:
    """The rules as given; the defaults where an error has been reported."""
    loc = "costs.rules"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        collector.error(loc, "rules must be an object")
        return CostRules()
    values = {
        rule.name: _require(data, rule.name, loc, collector, type(rule.default), rule.default)
        for rule in fields(CostRules)
    }
    if None in values.values():
        return CostRules()
    return CostRules(**values)


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
    description = _require(data, "description", loc, collector, str, "")
    tags = _require(data, "tags", loc, collector, list, [])
    if None in (sle, description, tags):
        return None
    scenario = RiskScenario(
        id=scenario_id,
        sle=sle,
        applies_to=applies_to,
        description=description,
        tags=tuple(str(tag) for tag in tags),
    )
    # The frequency of each state the scenario applies to; a missing one is
    # reported when the portfolio is validated.
    frequencies = {}
    for state in risk_mod.STATES:
        key = f"frequency_{state}"
        raw = data.get(key, data.get("frequency"))
        if raw is not None and scenario.applies(state):
            frequencies[key] = parse_frequency(raw, f"{loc}.{key}", collector)
    if None in frequencies.values():
        return None
    return replace(scenario, **frequencies)


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
    entries = _require(data, "scenarios", loc, collector, list, [])
    if turnover is None or entries is None:
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
        description = _require(entry, "description", entry_loc, collector, str, "")
        if severity is None or rate is None or description is None:
            continue
        try:
            scenarios.append(
                risk_mod.penalty_scenario(
                    scenario_id,
                    PENALTY_TIERS[tier_name],
                    turnover,
                    severity,
                    rate,
                    description=description,
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

    version = _require(data, "schema_version", "$", collector, int)
    if version is not None and version != SCHEMA_VERSION:
        collector.error("$", f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")

    name = _require(data, "name", "$", collector, str, "unnamed portfolio")
    horizon = _require(data, "horizon_years", "$", collector, int)
    discount = _require(data, "discount_rate", "$", collector, float)
    if horizon is None or discount is None:
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
    workers = sim_section.get("worker_count", 1)
    simulation = SimulationConfig(
        iterations=sim_section.get("iterations", 10_000),
        master_seed=sim_section.get("master_seed", 0),
        worker_count=None if workers == "auto" else workers,
        target_relative_se=sim_section.get("target_relative_se"),
    )
    for message in validate_simulation(simulation):
        collector.error("simulation", message)

    portfolio = Portfolio(
        name=name,
        currency=data.get("currency", ""),
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

    if has_errors(collector.diagnostics):
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
    except UnicodeDecodeError as exc:
        collector.error(str(path), f"invalid JSON: {exc}")
        return [], collector.diagnostics

    records_raw = data.get("records") if isinstance(data, dict) else None
    if not isinstance(records_raw, list) or not records_raw:
        collector.error("$", "actuals must contain a nonempty 'records' list")
        return [], collector.diagnostics

    portfolio = config.portfolio
    known = {
        "benefits": {item.id for item in portfolio.benefits},
        "costs": {item.id for item in portfolio.capex} | {item.id for item in portfolio.opex},
        "losses": {s.id for s in portfolio.register.scenarios},
    }

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
        sections = {key: _require(entry, key, loc, collector, dict, {}) for key in known}
        if None in sections.values():
            continue
        unknown = sorted(
            item_id
            for key, section in sections.items()
            for item_id in section
            if item_id not in known[key]
        )
        if unknown:
            collector.error(loc, "unknown ids: " + ", ".join(unknown))
            continue
        reported = len(collector.diagnostics)
        benefits_actual, costs_actual = (
            {
                item_id: _require(sections[key], item_id, f"{loc}.{key}", collector, float)
                for item_id in sections[key]
            }
            for key in ("benefits", "costs")
        )
        losses_actual = {}
        for item_id in sections["losses"]:
            loss = _require(sections["losses"], item_id, f"{loc}.losses", collector, dict)
            if loss is not None:
                where = f"{loc}.losses.{item_id}"
                losses_actual[item_id] = LossActual(
                    events=_require(loss, "events", where, collector, int, 0),
                    total_loss=_require(loss, "total_loss", where, collector, float, 0.0),
                )
        if len(collector.diagnostics) == reported:
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
