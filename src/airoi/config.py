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
    content_hash: str


@dataclass(frozen=True)
class ActualsRecord:
    """One quarter's actuals by item id; a loss is the quarter's total loss."""

    year: int
    quarter: int
    benefits: dict[str, float] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    losses: dict[str, float] = field(default_factory=dict)


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


def _read(data: dict, loc: str, collector: _Collector, spec: dict) -> dict | None:
    """Every field of ``spec``, or None after reporting each one that fails.

    ``spec`` maps a key to ``(kind, default)``.  A kind is a JSON type, read
    by :func:`_require`, or a literal parser (``parse_quantity``,
    ``parse_frequency``), which reports at ``loc.key``.
    """
    values = {}
    for key, (kind, default) in spec.items():
        if isinstance(kind, type):
            values[key] = _require(data, key, loc, collector, kind, default)
        else:
            values[key] = kind(data.get(key), f"{loc}.{key}", collector)
    return None if None in values.values() else values


def _header(data: dict, loc: str, collector: _Collector, *keys: str) -> tuple | None:
    """``(location, id, *keys)`` of a section entry, or None after reporting why not.

    The location names the entry by its id: ``section[i] (id)``.
    """
    values = [_require(data, key, loc, collector, str) for key in ("id", *keys)]
    if None in values:
        return None
    return (f"{loc} ({values[0]})", *values)


def _section_list(data: dict, key: str, collector: _Collector, prefix: str = "") -> list:
    """``(location, entry)`` of each object entry of the list ``data[key]``.

    Each entry keeps its own index, also after a non-object entry.
    """
    loc = prefix + key
    value = data.get(key, [])
    if not isinstance(value, list):
        collector.error(loc, f"{key} must be a list")
        return []
    if any(not isinstance(entry, dict) for entry in value):
        collector.error(loc, f"every {key} entry must be an object")
    return [(f"{loc}[{i}]", entry) for i, entry in enumerate(value) if isinstance(entry, dict)]


# ---------------------------------------------------------------------------
# Section parsers
# ---------------------------------------------------------------------------

# The benefit kinds valued as a quantity times a unit value: (quantity key, unit key).
_UNIT_VALUED_BENEFITS = {
    "productivity": ("freed_hours_per_year", "loaded_cost_per_hour"),
    "error_reduction": ("errors_avoided_per_year", "cost_per_error"),
}

_ARM_COUNTS = ("treatment_trials", "treatment_successes", "control_trials", "control_successes")


def _parse_benefit(
    data: dict, loc: str, horizon: int, base_dir: Path, collector: _Collector
) -> BenefitItem | None:
    header = _header(data, loc, collector, "kind")
    if header is None:
        return None
    loc, item_id, kind = header
    if kind not in benefits_mod.BENEFIT_KINDS:
        collector.error(loc, f"unknown benefit kind {kind!r}")
        return None

    phase = _require(data, "phase", loc, collector, str, default="early")
    if phase is None:
        return None

    annual_value: UncertainQuantity | None = None
    if kind in _UNIT_VALUED_BENEFITS:
        quantity_key, unit_key = _UNIT_VALUED_BENEFITS[kind]
        spec = {quantity_key: (parse_quantity, _REQUIRED), unit_key: (float, _REQUIRED)}
        values = _read(data, loc, collector, spec)
        if values is None:
            return None
        if values[unit_key] < 0:
            collector.error(loc, f"{unit_key} must be >= 0")
            return None
        annual_value = scaled(values[quantity_key], values[unit_key])
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

    spec = {
        "start_year": (int, 0),
        "end_year": (int, horizon - 1),
        "attribution_factor": (float, 1.0),
        "erosion_rate": (float, 0.0),
    }
    values = _read(data, loc, collector, spec)
    if values is None:
        return None
    return BenefitItem(id=item_id, kind=kind, annual_value=annual_value, phase=phase, **values)


def _parse_ab_test(
    data: Any, location: str, base_dir: Path, collector: _Collector
) -> AbTestResult | None:
    if not isinstance(data, dict):
        collector.error(location, "ab_test must be an object")
        return None
    counts: dict[str, int] = {}
    spec = {"value_per_success": (float, _REQUIRED), "annual_volume": (float, _REQUIRED)}
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
        spec = {**dict.fromkeys(_ARM_COUNTS, (int, _REQUIRED)), **spec}
    values = _read(data, location, collector, spec)
    if values is None:
        return None
    values.update(counts)
    missing = [key for key in _ARM_COUNTS if key not in values]
    if missing:
        collector.error(location, f"arm counts missing: {', '.join(missing)}")
        return None
    return AbTestResult(**values)


def _parse_capex(data: dict, loc: str, collector: _Collector) -> CapexItem | None:
    header = _header(data, loc, collector)
    if header is None:
        return None
    loc, item_id = header
    spec = {
        "amount": (parse_quantity, _REQUIRED),
        "useful_life_years": (int, _REQUIRED),
        "incurred_year": (int, 0),
        "category": (str, "development"),
    }
    values = _read(data, loc, collector, spec)
    return None if values is None else CapexItem(id=item_id, **values)


def _parse_opex(data: dict, loc: str, horizon: int, collector: _Collector) -> OpexItem | None:
    header = _header(data, loc, collector)
    if header is None:
        return None
    loc, item_id = header
    spec = {
        "annual_amount": (parse_quantity, _REQUIRED),
        "start_year": (int, 0),
        "end_year": (int, horizon - 1),
        "category": (str, "other"),
        "specialist": (bool, False),
    }
    values = _read(data, loc, collector, spec)
    return None if values is None else OpexItem(id=item_id, **values)


def _parse_rules(data: Any, collector: _Collector) -> CostRules:
    """The rules as given; the defaults where an error has been reported."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        collector.error("costs.rules", "rules must be an object")
        return CostRules()
    spec = {rule.name: (type(rule.default), rule.default) for rule in fields(CostRules)}
    values = _read(data, "costs.rules", collector, spec)
    return CostRules() if values is None else CostRules(**values)


def _parse_scenario(data: dict, loc: str, collector: _Collector) -> RiskScenario | None:
    header = _header(data, loc, collector, "applies_to")
    if header is None:
        return None
    loc, scenario_id, applies_to = header
    spec = {"sle": (parse_quantity, _REQUIRED), "description": (str, ""), "tags": (list, [])}
    values = _read(data, loc, collector, spec)
    if values is None:
        return None
    values["tags"] = tuple(str(tag) for tag in values["tags"])
    scenario = RiskScenario(id=scenario_id, applies_to=applies_to, **values)
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


def _parse_penalty(
    data: dict, loc: str, global_turnover: float | None, collector: _Collector
) -> RiskScenario | None:
    """The entry's scenario; without a valid turnover it is only checked."""
    header = _header(data, loc, collector, "tier")
    if header is None:
        return None
    loc, scenario_id, tier_name = header
    if tier_name not in PENALTY_TIERS:
        expected = sorted(PENALTY_TIERS)
        collector.error(loc, f"unknown tier {tier_name!r}; expected one of {expected}")
        return None
    spec = {
        "severity_fraction": (parse_quantity, _REQUIRED),
        "violation_rate": (parse_frequency, _REQUIRED),
        "description": (str, ""),
    }
    values = _read(data, loc, collector, spec)
    if values is None or global_turnover is None:
        return None
    try:
        return risk_mod.penalty_scenario(
            scenario_id, PENALTY_TIERS[tier_name], global_turnover, **values
        )
    except ValueError as exc:
        collector.error(loc, str(exc))
        return None


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

    def parsed(section: dict, key: str, parse, *args, prefix: str = "") -> tuple:
        entries = _section_list(section, key, collector, prefix)
        items = (parse(entry, loc, *args, collector) for loc, entry in entries)
        return tuple(item for item in items if item is not None)

    benefit_items = parsed(data, "benefits", _parse_benefit, horizon, base_dir)
    costs_section = data.get("costs", {})
    if not isinstance(costs_section, dict):
        collector.error("costs", "costs must be an object")
        costs_section = {}
    capex_items = parsed(costs_section, "capex", _parse_capex, prefix="costs.")
    opex_items = parsed(costs_section, "opex", _parse_opex, horizon, prefix="costs.")
    rules = _parse_rules(costs_section.get("rules"), collector)
    scenarios = parsed(data, "risks", _parse_scenario)
    penalties = data.get("penalties")
    if penalties is not None and not isinstance(penalties, dict):
        collector.error("penalties", "penalties must be an object")
    elif penalties is not None:
        turnover = _require(penalties, "global_turnover", "penalties", collector, float)
        if turnover is not None and turnover < 0:
            collector.error("penalties", f"global_turnover must be >= 0, got {turnover}")
            turnover = None
        scenarios += parsed(penalties, "scenarios", _parse_penalty, turnover, prefix="penalties.")

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
        benefits=benefit_items,
        capex=capex_items,
        opex=opex_items,
        cost_rules=rules,
        register=RiskRegister(scenarios=scenarios),
    )
    errors, warnings = validate_portfolio(portfolio)
    for message in errors:
        collector.error("portfolio", message)
    for message in warnings:
        collector.warning("portfolio", message)

    if has_errors(collector.diagnostics):
        return None, collector.diagnostics
    config = PortfolioConfig(portfolio=portfolio, simulation=simulation, content_hash=content_hash)
    return config, collector.diagnostics


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; RFC 8259 leaves a repeated key's meaning to the reader."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _read_json(path: Path, what: str, collector: _Collector) -> tuple[bytes, Any] | None:
    """The file's bytes and its JSON value, or None after reporting why not."""
    try:
        raw = path.read_bytes()
        return raw, json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        collector.error(str(path), f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        collector.error(f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc}")
    except ValueError as exc:  # not UTF-8, or a repeated key
        collector.error(str(path), f"invalid JSON: {exc}")
    return None


def load_config(path: str | Path) -> tuple[PortfolioConfig | None, list[Diagnostic]]:
    """Read, parse, and validate a portfolio config file."""
    path = Path(path)
    collector = _Collector()
    read = _read_json(path, "config", collector)
    if read is None:
        return None, collector.diagnostics
    raw, data = read
    return parse_config(data, source_path=path, content_hash=hashlib.sha256(raw).hexdigest())


# ---------------------------------------------------------------------------
# Quarterly actuals
# ---------------------------------------------------------------------------


# A loss actual: its total, and its event count, which is checked but not compared.
_LOSS_ACTUAL = {"total_loss": (float, _REQUIRED), "events": (int, 0)}


def load_actuals(
    path: str | Path, config: PortfolioConfig
) -> tuple[list[ActualsRecord], list[Diagnostic]]:
    """Read quarterly actuals and check every id against the portfolio."""
    path = Path(path)
    collector = _Collector()
    read = _read_json(path, "actuals", collector)
    if read is None:
        return [], collector.diagnostics
    _, data = read
    if not isinstance(data, dict) or not data.get("records"):
        collector.error("$", "actuals must contain a nonempty 'records' list")
        return [], collector.diagnostics

    portfolio = config.portfolio
    known = {
        "benefits": {item.id for item in portfolio.benefits},
        "costs": {item.id for item in portfolio.capex} | {item.id for item in portfolio.opex},
        "losses": {s.id for s in portfolio.register.scenarios},
    }
    bounds = {"year": (0, portfolio.horizon_years - 1), "quarter": (1, 4)}

    records = []
    for loc, entry in _section_list(data, "records", collector):
        reported = len(collector.diagnostics)
        period = _require(entry, "period", loc, collector, dict)
        if period is None:
            continue
        spec = {"year": (int, _REQUIRED), "quarter": (int, _REQUIRED)}
        period = _read(period, f"{loc}.period", collector, spec)
        if period is None:
            continue
        for key, (low, high) in bounds.items():
            if not low <= period[key] <= high:
                message = f"{key} must lie in {low}..{high}, got {period[key]}"
                collector.error(f"{loc}.period", message)
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
                values = _read(loss, f"{loc}.losses.{item_id}", collector, _LOSS_ACTUAL)
                losses_actual[item_id] = None if values is None else values["total_loss"]
        if len(collector.diagnostics) == reported:
            records.append(
                ActualsRecord(
                    year=period["year"],
                    quarter=period["quarter"],
                    benefits=benefits_actual,
                    costs=costs_actual,
                    losses=losses_actual,
                )
            )
    return records, collector.diagnostics
