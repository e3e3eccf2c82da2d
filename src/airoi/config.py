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
from .model import Portfolio, SimulationConfig, validate_portfolio, validate_simulation
from .quantities import (
    FrequencyModel, Lognormal, Pert, Point, PointRate, PoissonRate, Triangular, UncertainQuantity,
    Uniform, scaled,
)
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
        self.errors = 0

    def error(self, location: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(SEVERITY_ERROR, location, message))
        self.errors += 1

    def warning(self, location: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(SEVERITY_WARNING, location, message))


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == SEVERITY_ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Field tables and literal parsers
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be present


def _require(data: dict, key: str, location: str, collector: _Collector, kind) -> Any:
    """``data[key]`` read as ``kind``, or None after reporting why not.

    A kind is a JSON type (``float`` and ``int`` are a finite number and an
    integer; ``object`` is any value, left to the model's rules) or a literal
    parser such as :func:`parse_quantity`, which reports at ``location.key``.
    """
    if key not in data:
        collector.error(location, f"missing required field {key!r}")
        return None
    value = data[key]
    if not isinstance(kind, type):
        return kind(value, f"{location}.{key}", collector)
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


def _read(
    data: dict, loc: str, collector: _Collector, spec: dict, *family, partial: bool = False
) -> dict | None:
    """Every field of the table ``spec``, or None once one has reported an error.

    The table maps each key the record may hold to ``(kind, default)``.  An
    absent key, or a null one whose default is None, takes its default;
    a callable default is computed from the fields read before it.  Each key
    that neither ``spec`` nor the record's other tables (``family``) holds
    is one warning.  With ``partial``, a field that fails takes its default
    (None if required) and the other fields are still returned.
    """
    errors = collector.errors
    values = {}
    for key, (kind, default) in spec.items():
        reported = collector.errors
        absent = key not in data or (data[key] is None and default is None)
        if absent and default is not _REQUIRED:
            values[key] = default(values) if callable(default) else default
        else:
            values[key] = _require(data, key, loc, collector, kind)
        if partial and collector.errors > reported:
            values[key] = None if default is _REQUIRED else default
    _unknown(data, loc, collector, spec, *family)
    return values if partial or collector.errors == errors else None


def _unknown(data: dict, loc: str, collector: _Collector, *tables) -> None:
    """One warning for each key of ``data`` that none of ``tables`` holds."""
    known = set().union(*tables)
    for key in [key for key in data if key not in known]:
        import difflib  # only once a key is unknown: it stays off start-up

        # Below difflib's 0.6, so that 'l' still finds 'lo'.
        match = difflib.get_close_matches(key, known, n=1, cutoff=0.5)
        hint = f" (did you mean {match[0]!r}?)" if match else ""
        collector.warning(loc, f"unknown field {key!r}{hint}")


def _header(data: dict, loc: str, collector: _Collector, tables, *keys: str) -> tuple | None:
    """``(location, *keys)`` of a section entry, or None after reporting why not.

    The location names the entry by its id, ``section[i] (id)``; an entry
    without a header is still checked for keys that none of ``tables`` holds.
    """
    errors = collector.errors
    values = [_require(data, key, loc, collector, str) for key in ("id", *keys)]
    if collector.errors > errors:
        _unknown(data, loc, collector, *tables)
        return None
    return (f"{loc} ({values[0]})", *values[1:])


def _section_list(section: dict, key: str, collector: _Collector, prefix: str = "") -> list:
    """``(location, entry)`` of each object entry of the list ``section[key]``.

    Each entry keeps its own index, also after a non-object entry.
    """
    loc = prefix + key
    value = section[key]
    if not isinstance(value, list):
        collector.error(loc, f"{key} must be a list")
        return []
    if any(not isinstance(entry, dict) for entry in value):
        collector.error(loc, f"every {key} entry must be an object")
    return [(f"{loc}[{i}]", entry) for i, entry in enumerate(value) if isinstance(entry, dict)]


# A literal is its ``kind`` plus the family's finite parameters.
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
        _unknown(obj, location, collector, ("kind",), *(names for _, names in families.values()))
        return None
    family, names = families[kind]
    values = _read(obj, location, collector, dict.fromkeys(names, (float, _REQUIRED)), ("kind",))
    return None if values is None else family(*values.values())


def parse_quantity(obj: Any, location: str, collector: _Collector) -> UncertainQuantity | None:
    """Parse a distribution literal; bare numbers are Point shorthand."""
    return _parse_literal(obj, location, collector, _QUANTITY_FAMILIES, "distribution")


def parse_frequency(obj: Any, location: str, collector: _Collector) -> FrequencyModel | None:
    """Parse a frequency literal; bare numbers are PointRate shorthand."""
    return _parse_literal(obj, location, collector, _FREQUENCY_FAMILIES, "frequency")


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
    common = {
        "id": (str, _REQUIRED),
        "kind": (str, _REQUIRED),
        "phase": (str, "early"),
        "start_year": (int, 0),
        "end_year": (int, horizon - 1),
        "attribution_factor": (float, 1.0),
        "erosion_rate": (float, 0.0),
    }
    tables = {
        kind: {**common, quantity_key: (parse_quantity, _REQUIRED), unit_key: (float, _REQUIRED)}
        for kind, (quantity_key, unit_key) in _UNIT_VALUED_BENEFITS.items()
    }
    direct = {**common, "annual_value": (parse_quantity, _REQUIRED)}

    def phase_margin(values: dict) -> float:
        # An unknown phase is reported with the item; its margin is moot.
        return benefits_mod.DEFAULT_PROJECTION_MARGINS.get(values["phase"], 0.0)

    # An A/B experiment is converted through the phase's projection margin.
    ab_test = {**common, "ab_test": (dict, _REQUIRED), "projection_margin": (float, phase_margin)}
    family = (*tables.values(), direct, ab_test)
    uplift = ab_test if "ab_test" in data and "annual_value" not in data else direct
    tables.update(revenue_uplift=uplift, risk_reduction_external=direct)
    header = _header(data, loc, collector, family, "kind")
    if header is None:
        return None
    loc, kind = header
    if kind not in tables:
        collector.error(loc, f"unknown benefit kind {kind!r}")
        return None
    values = _read(data, loc, collector, tables[kind], *family)
    if values is None:
        return None
    if kind in _UNIT_VALUED_BENEFITS:
        quantity_key, unit_key = _UNIT_VALUED_BENEFITS[kind]
        quantity, unit = values.pop(quantity_key), values.pop(unit_key)
        if unit < 0:
            collector.error(loc, f"{unit_key} must be >= 0")
            return None
        values["annual_value"] = scaled(quantity, unit)
    elif "ab_test" in values:
        ab = _parse_ab_test(values.pop("ab_test"), f"{loc}.ab_test", base_dir, collector)
        margin = values.pop("projection_margin")
        if ab is None:
            return None
        try:
            estimate = benefits_mod.uplift_estimate(ab).annual_value
            values["annual_value"] = benefits_mod.apply_projection_margin(estimate, margin)
        except ValueError as exc:
            collector.error(loc, str(exc))
            return None
    return BenefitItem(**values)


def _parse_ab_test(
    data: dict, location: str, base_dir: Path, collector: _Collector
) -> AbTestResult | None:
    """The experiment's arm counts, given inline or as a CSV of one row per arm."""
    volume = {"value_per_success": (float, _REQUIRED), "annual_volume": (float, _REQUIRED)}
    inline = {**dict.fromkeys(_ARM_COUNTS, (int, _REQUIRED)), **volume}
    from_csv = {"csv": (str, _REQUIRED), **volume}
    table = from_csv if "csv" in data else inline
    values = _read(data, location, collector, table, inline, from_csv)
    if values is None:
        return None
    if "csv" in values:
        csv_path = base_dir / values.pop("csv")
        try:
            # utf-8-sig: spreadsheet exports start with a byte order mark.
            with open(csv_path, newline="", encoding="utf-8-sig") as handle:
                for row in csv.DictReader(handle):
                    arm = (row.get("arm") or "").strip().lower()
                    if arm not in ("treatment", "control"):
                        collector.error(location, f"unknown arm {arm!r} in {csv_path}")
                        return None
                    if f"{arm}_trials" in values:
                        collector.error(location, f"arm {arm!r} appears twice in {csv_path}")
                        return None
                    values[f"{arm}_trials"] = int(row["trials"])
                    values[f"{arm}_successes"] = int(row["successes"])
        except OSError as exc:
            collector.error(location, f"cannot read arm counts: {exc}")
            return None
        except (KeyError, TypeError, ValueError) as exc:
            collector.error(location, f"bad arm-count CSV {csv_path}: {exc}")
            return None
    missing = [key for key in _ARM_COUNTS if key not in values]
    if missing:
        collector.error(location, f"arm counts missing: {', '.join(missing)}")
        return None
    return AbTestResult(**values)


_CAPEX = {
    "id": (str, _REQUIRED),
    "amount": (parse_quantity, _REQUIRED),
    "useful_life_years": (int, _REQUIRED),
    "incurred_year": (int, 0),
    "category": (str, "development"),
}
# ``end_year`` defaults to the last year of the horizon.
_OPEX = {
    "id": (str, _REQUIRED),
    "annual_amount": (parse_quantity, _REQUIRED),
    "start_year": (int, 0),
    "end_year": (int, _REQUIRED),
    "category": (str, "other"),
    "specialist": (bool, False),
}


def _parse_item(data: dict, loc: str, spec: dict, item: type, collector: _Collector):
    """A section entry whose table's fields are the ``item`` class's fields."""
    header = _header(data, loc, collector, [spec])
    if header is None:
        return None
    values = _read(data, header[0], collector, spec)
    return None if values is None else item(**values)


_SCENARIO = {
    "id": (str, _REQUIRED),
    "applies_to": (str, _REQUIRED),
    "sle": (parse_quantity, _REQUIRED),
    "description": (str, ""),
    "tags": (list, []),
    "frequency": (parse_frequency, None),
    "frequency_current": (parse_frequency, None),
    "frequency_ai": (parse_frequency, None),
}


def _parse_scenario(data: dict, loc: str, collector: _Collector) -> RiskScenario | None:
    header = _header(data, loc, collector, [_SCENARIO], "applies_to")
    if header is None:
        return None
    values = _read(data, header[0], collector, _SCENARIO)
    if values is None:
        return None
    values["tags"] = tuple(str(tag) for tag in values["tags"])
    shared = values.pop("frequency")
    scenario = RiskScenario(**values)
    # A state without a frequency of its own takes the shared one; a missing
    # one is reported when the portfolio is validated.
    frequencies = {
        f"frequency_{state}": (scenario.frequency_for(state) or shared)
        if scenario.applies(state)
        else None
        for state in risk_mod.STATES
    }
    return replace(scenario, **frequencies)


_PENALTY = {
    "id": (str, _REQUIRED),
    "tier": (str, _REQUIRED),
    "severity_fraction": (parse_quantity, _REQUIRED),
    "violation_rate": (parse_frequency, _REQUIRED),
    "description": (str, ""),
}


def _parse_penalty(
    data: dict, loc: str, global_turnover: float | None, collector: _Collector
) -> RiskScenario | None:
    """The entry's scenario; without a valid turnover it is only checked."""
    header = _header(data, loc, collector, [_PENALTY], "tier")
    if header is None:
        return None
    loc, tier_name = header
    if tier_name not in PENALTY_TIERS:
        collector.error(loc, f"unknown tier {tier_name!r}; expected one of {sorted(PENALTY_TIERS)}")
        return None
    values = _read(data, loc, collector, _PENALTY)
    if values is None or global_turnover is None:
        return None
    try:
        tier = PENALTY_TIERS[values.pop("tier")]
        return risk_mod.penalty_scenario(values.pop("id"), tier, global_turnover, **values)
    except ValueError as exc:
        collector.error(loc, str(exc))
        return None


# ---------------------------------------------------------------------------
# Top-level loading
# ---------------------------------------------------------------------------

# Section lists are ``object`` fields that ``_section_list`` reads.
_CONFIG = {
    "schema_version": (int, _REQUIRED),
    "name": (str, "unnamed portfolio"),
    "currency": (object, ""),
    "horizon_years": (int, _REQUIRED),
    "discount_rate": (float, _REQUIRED),
    "benefits": (object, []),
    "costs": (dict, {}),
    "risks": (object, []),
    "penalties": (dict, None),
    "simulation": (dict, {}),
}
_COSTS = {"capex": (object, []), "opex": (object, []), "rules": (dict, None)}
_RULES = {rule.name: (type(rule.default), rule.default) for rule in fields(CostRules)}
_PENALTIES = {"global_turnover": (float, _REQUIRED), "scenarios": (object, [])}
# Run settings are checked by ``validate_simulation``, also after overrides.
_SIMULATION = {setting.name: (object, setting.default) for setting in fields(SimulationConfig)}


def parse_config(
    data: Any, *, source_path: Path | None = None, content_hash: str = ""
) -> tuple[PortfolioConfig | None, list[Diagnostic]]:
    collector = _Collector()
    if not isinstance(data, dict):
        collector.error("$", "config root must be a JSON object")
        return None, collector.diagnostics

    # Sections are read behind any other top-level fault, but every year
    # bound needs the horizon.
    top = _read(data, "$", collector, _CONFIG, partial=True)
    version = top["schema_version"]
    if version is not None and version != SCHEMA_VERSION:
        collector.error("$", f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    horizon, discount = top["horizon_years"], top["discount_rate"]
    if horizon is None or discount is None:
        return None, collector.diagnostics

    base_dir = source_path.parent if source_path is not None else Path.cwd()

    def parsed(section: dict, key: str, parse, *args, prefix: str = "") -> tuple:
        entries = _section_list(section, key, collector, prefix)
        items = (parse(entry, loc, *args, collector) for loc, entry in entries)
        return tuple(item for item in items if item is not None)

    benefit_items = parsed(top, "benefits", _parse_benefit, horizon, base_dir)
    costs = _read(top["costs"], "costs", collector, _COSTS, partial=True)
    capex_items = parsed(costs, "capex", _parse_item, _CAPEX, CapexItem, prefix="costs.")
    opex = {**_OPEX, "end_year": (int, horizon - 1)}
    opex_items = parsed(costs, "opex", _parse_item, opex, OpexItem, prefix="costs.")
    # Bad rules are reported, and the defaults keep the rule checks quiet.
    rules = _read(costs["rules"] or {}, "costs.rules", collector, _RULES)
    scenarios = parsed(top, "risks", _parse_scenario)
    if top["penalties"] is not None:
        penalties = _read(top["penalties"], "penalties", collector, _PENALTIES, partial=True)
        turnover = penalties["global_turnover"]
        if turnover is not None and turnover < 0:
            collector.error("penalties", f"global_turnover must be >= 0, got {turnover}")
            turnover = None
        scenarios += parsed(penalties, "scenarios", _parse_penalty, turnover, prefix="penalties.")

    settings = _read(top["simulation"], "simulation", collector, _SIMULATION)
    simulation = SimulationConfig(**settings)
    for message in validate_simulation(simulation):
        collector.error("simulation", message)

    portfolio = Portfolio(
        name=top["name"],
        currency=top["currency"],
        horizon_years=horizon,
        discount_rate=discount,
        benefits=benefit_items,
        capex=capex_items,
        opex=opex_items,
        cost_rules=CostRules() if rules is None else CostRules(**rules),
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

_ACTUALS = {"records": (object, [])}
# The item maps hold one actual per id of the portfolio.
_RECORD = {"period": (dict, _REQUIRED)} | dict.fromkeys(("benefits", "costs", "losses"), (dict, {}))
_PERIOD = {"year": (int, _REQUIRED), "quarter": (int, _REQUIRED)}
# A loss actual: its total, and its event count, which is checked but not compared.
_LOSS = {"total_loss": (float, _REQUIRED), "events": (int, 0)}


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
    root = _read(data, "$", collector, _ACTUALS) if isinstance(data, dict) else None
    if not (root and root["records"]):
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
    for loc, entry in _section_list(root, "records", collector):
        errors = collector.errors
        record = _read(entry, loc, collector, _RECORD)
        period = record and _read(record["period"], f"{loc}.period", collector, _PERIOD)
        if period is None:
            continue
        for key, (low, high) in bounds.items():
            if not low <= period[key] <= high:
                message = f"{key} must lie in {low}..{high}, got {period[key]}"
                collector.error(f"{loc}.period", message)
        unknown = sorted(
            item_id for key, ids in known.items() for item_id in record[key] if item_id not in ids
        )
        if unknown:
            collector.error(loc, "unknown ids: " + ", ".join(unknown))
            continue
        # Each item map is read through a table of its own ids.
        items = {}
        for key, kind in (("benefits", float), ("costs", float), ("losses", dict)):
            table = dict.fromkeys(record[key], (kind, _REQUIRED))
            items[key] = _read(record[key], f"{loc}.{key}", collector, table, partial=True)
        losses = {
            item_id: _read(loss, f"{loc}.losses.{item_id}", collector, _LOSS)
            for item_id, loss in items["losses"].items()
            if loss is not None
        }
        if collector.errors == errors:
            items["losses"] = {item_id: loss["total_loss"] for item_id, loss in losses.items()}
            records.append(ActualsRecord(**period, **items))
    return records, collector.diagnostics
