"""The benefit, cost, risk, valuation and tracking rules of README and the paper, as plain loops.

An independent reading of the rules, for differential tests: it takes a
config as JSON data (with the directory its arm-count CSVs sit in), a row
of yearly flows, or a run's per-item columns, and shares no code with
``airoi``.
"""

import csv
import itertools
import math
from functools import partial
from pathlib import Path

# EU AI Act fine tiers: (fixed cap in euros, share of global turnover).
PENALTY_TIERS = {
    "prohibited_practice": (35e6, 0.07),
    "high_risk_violation": (15e6, 0.03),
    "information_failure": (7.5e6, 0.01),
}


def quantity_mean(literal) -> float:
    """The mean of a distribution literal; a bare number is a point."""
    if not isinstance(literal, dict):
        return float(literal)
    kind = literal["kind"]
    if kind == "point":
        return literal["value"]
    if kind == "uniform":
        return (literal["lo"] + literal["hi"]) / 2
    if kind == "triangular":
        return (literal["lo"] + literal["mode"] + literal["hi"]) / 3
    if kind == "pert":
        return (literal["lo"] + 4 * literal["mode"] + literal["hi"]) / 6
    if kind == "lognormal":
        return literal["median"] * math.exp(literal["sigma"] ** 2 / 2)
    raise ValueError(kind)


def rate(literal) -> float:
    """Events per year of a frequency literal; a bare number is a point rate."""
    return float(literal if not isinstance(literal, dict) else literal["rate"])


# The benefit kinds valued as a quantity times a unit value: (quantity key, unit key).
UNIT_VALUED = {
    "productivity": ("freed_hours_per_year", "loaded_cost_per_hour"),
    "error_reduction": ("errors_avoided_per_year", "cost_per_error"),
}
# An A/B estimate's default projection margin, by phase.
PHASE_MARGINS = {"early": 0.25, "mature": 0.10}


def arm_counts(ab_test: dict, base_dir: Path) -> dict[str, int]:
    """The four arm counts, inline or from a CSV with one (arm, trials, successes) row per arm."""
    if "csv" not in ab_test:
        return {f"{arm}_{count}": ab_test[f"{arm}_{count}"]
                for arm in ("treatment", "control") for count in ("trials", "successes")}
    counts = {}
    with open(Path(base_dir) / ab_test["csv"], newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            arm = row["arm"].strip().lower()
            counts[f"{arm}_trials"] = int(row["trials"])
            counts[f"{arm}_successes"] = int(row["successes"])
    return counts


def uplift_band(item: dict, base_dir: Path) -> tuple[float, float, float]:
    """(low, point, high) of an A/B benefit: the rate difference times volume
    times value per success, and a band of |point| x margin either side."""
    ab_test, counts = item["ab_test"], arm_counts(item["ab_test"], base_dir)
    treatment = counts["treatment_successes"] / counts["treatment_trials"]
    control = counts["control_successes"] / counts["control_trials"]
    point = (treatment - control) * ab_test["annual_volume"] * ab_test["value_per_success"]
    margin = item.get("projection_margin", PHASE_MARGINS[item.get("phase", "early")])
    return point - abs(point) * margin, point, point + abs(point) * margin


def benefit_mean(item: dict, base_dir: Path) -> float:
    """A benefit's mean annual value before attribution and erosion."""
    if item["kind"] in UNIT_VALUED:
        quantity, unit = UNIT_VALUED[item["kind"]]
        return quantity_mean(item[quantity]) * item[unit]
    if "ab_test" in item and "annual_value" not in item:
        return uplift_band(item, base_dir)[1]
    return quantity_mean(item["annual_value"])


def benefit_row(item: dict, value: float, horizon: int) -> list[float]:
    """Annual value x attribution x (1 - erosion)**(year - start_year),
    inside [start_year, end_year]."""
    start, end = item.get("start_year", 0), item.get("end_year", horizon - 1)
    kept = item.get("attribution_factor", 1.0)
    decay = 1 - item.get("erosion_rate", 0.0)
    return [value * kept * decay ** (year - start) if start <= year <= end else 0.0
            for year in range(horizon)]


def benefit_rows(config: dict, base_dir: Path) -> dict[str, list[float]]:
    """Each benefit's per-year value at its mean, by id."""
    horizon = config["horizon_years"]
    return {item["id"]: benefit_row(item, benefit_mean(item, base_dir), horizon)
            for item in config.get("benefits", [])}


def capex_row(item: dict, amount: float, horizon: int) -> list[float]:
    """Capex on the cash basis: the whole amount in its incurred year."""
    return [amount if year == item.get("incurred_year", 0) else 0.0 for year in range(horizon)]


def opex_row(item: dict, amount: float, rules: dict, horizon: int) -> list[float]:
    """Opex inside [start_year, end_year]; a specialist's personnel cost
    carries the talent premium."""
    premium = item.get("category") == "personnel" and item.get("specialist", False)
    factor = 1 + rules["talent_premium_rate"] if premium else 1
    start, end = item.get("start_year", 0), item.get("end_year", horizon - 1)
    return [amount * factor if start <= year <= end else 0.0 for year in range(horizon)]


def cost_rows(config: dict) -> dict[str, list[float]]:
    """Per-year rows at every mean: capex (straight-line and cash-basis), opex,
    maintenance, reserve, and the totals of both bases."""
    costs, horizon = config["costs"], config["horizon_years"]
    rules, capex, opex = costs["rules"], costs.get("capex", []), costs.get("opex", [])
    development = sum(
        quantity_mean(item["amount"])
        for item in capex
        if item.get("category", "development") == "development"
    )
    cash_rows = [capex_row(item, quantity_mean(item["amount"]), horizon) for item in capex]
    opex_rows = [
        opex_row(item, quantity_mean(item["annual_amount"]), rules, horizon) for item in opex
    ]
    rows = {name: [] for name in ("capex", "cash_capex", "opex", "maintenance", "reserve")}
    for year in range(horizon):
        straight = 0.0
        for item in capex:
            amount, first = quantity_mean(item["amount"]), item.get("incurred_year", 0)
            life = item["useful_life_years"]
            if first <= year < first + life:
                straight += amount / life
        cash = sum(row[year] for row in cash_rows)
        running = sum(row[year] for row in opex_rows)
        maintenance = rules["maintenance_rate"] * development if year >= 1 else 0.0
        reserve = rules["reserve_rate"] * (running + maintenance)
        if rules.get("reserve_treatment") == "carrying_cost":
            reserve *= rules["reserve_carrying_rate"]
        for name, value in zip(rows, (straight, cash, running, maintenance, reserve)):
            rows[name].append(value)
    others = [sum(values) for values in zip(rows["opex"], rows["maintenance"], rows["reserve"])]
    rows["per_year"] = [c + rest for c, rest in zip(rows["capex"], others)]
    rows["cash_per_year"] = [c + rest for c, rest in zip(rows["cash_capex"], others)]
    return rows


def scenario_ales(config: dict) -> list[tuple[str, float, float]]:
    """(id, current ALE, AI ALE) of each risk, then each penalty, in config order.

    ALE is mean severity times rate; a state the scenario does not apply to
    loses nothing, and one without its own frequency takes the shared one.
    A penalty applies to the AI state only, and its severity is the
    fraction of max(fixed cap, turnover share x global turnover).
    """
    rows = []
    for risk in config.get("risks", []):
        severity, applies = quantity_mean(risk["sle"]), risk["applies_to"]
        ales = []
        for state, scope in (("current", "current_only"), ("ai", "ai_only")):
            applied = applies in (scope, "both")
            frequency = risk.get(f"frequency_{state}")
            frequency = risk.get("frequency") if frequency is None else frequency
            ales.append(severity * rate(frequency) if applied else 0.0)
        rows.append((risk["id"], *ales))
    penalties = config.get("penalties") or {}
    for penalty in penalties.get("scenarios", []):
        cap, share = PENALTY_TIERS[penalty["tier"]]
        magnitude = max(cap, share * penalties["global_turnover"])
        severity = quantity_mean(penalty["severity_fraction"]) * magnitude
        rows.append((penalty["id"], 0.0, severity * rate(penalty["violation_rate"])))
    return rows


def percentile(values, p: float) -> float:
    """The value at rank p(n - 1) of the sorted values, linearly interpolated."""
    ordered = sorted(values)
    rank = p * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def track_rows(config: dict, base_dir: Path, actuals: dict, columns: dict) -> list[list]:
    """The rows of ``track``'s CSV after its header, unrounded.

    ``columns`` maps (record type, id) to the run's per-item column: a
    benefit's annual value, a cost item's amount, a scenario's AI-state
    loss.  Each item's mean and the p10 and p90 of its column go through
    the item's rule: a benefit's, capex booked in full in its incurred
    year, opex with the specialist premium, and a loss the same in every
    year.  A quarter is a quarter of its year; an actual outside the band
    is flagged.
    """
    horizon, costs = config["horizon_years"], config["costs"]
    # (record type, id) -> (the item's mean, its rule from an annual value to a row)
    rules = {
        ("loss", scenario): (ai, lambda value: [value] * horizon)
        for scenario, _, ai in scenario_ales(config)
    }
    for item in config.get("benefits", []):
        rule = partial(benefit_row, item, horizon=horizon)
        rules["benefit", item["id"]] = (benefit_mean(item, base_dir), rule)
    for item in costs.get("capex", []):
        rule = partial(capex_row, item, horizon=horizon)
        rules["cost", item["id"]] = (quantity_mean(item["amount"]), rule)
    for item in costs.get("opex", []):
        rule = partial(opex_row, item, rules=costs["rules"], horizon=horizon)
        rules["cost", item["id"]] = (quantity_mean(item["annual_amount"]), rule)
    rows = []
    for record in actuals["records"]:
        year, quarter = record["period"]["year"], record["period"]["quarter"]
        for record_type, key in (("benefit", "benefits"), ("cost", "costs"), ("loss", "losses")):
            for item_id, actual in sorted(record.get(key, {}).items()):
                actual = actual["total_loss"] if record_type == "loss" else actual
                mean, rule = rules[record_type, item_id]
                column = columns[record_type, item_id]
                projected, low, high = (
                    rule(value)[year] / 4
                    for value in (mean, percentile(column, 0.10), percentile(column, 0.90))
                )
                flagged = "no" if low <= actual <= high else "yes"
                rows.append([f"Y{year}Q{quarter}", record_type, item_id, projected, actual,
                             actual - projected, low, high, flagged])
    return rows


# The rates irr searches for a root, as its docstring states them.
IRR_BRACKET = (-0.999, 10.0)


def npv(flows, rate: float) -> float:
    """Net present value: the sum of cf / (1 + rate)**t over years t = 0, 1, ..."""
    return math.fsum(cf / (1 + rate) ** t for t, cf in enumerate(flows))


def payback(flows) -> float | None:
    """The first year whose running sum is >= 0, or None if none is.

    When the sum before that year is negative, the year's flow accrues
    uniformly over it, so the payback falls the share of it still owed
    into the year.
    """
    before = 0.0
    for year, (cf, running) in enumerate(zip(flows, itertools.accumulate(flows))):
        if running >= 0:
            return year - 1 + -before / cf if before < 0 else float(year)
        before = running
    return None


def sign_changes(flows) -> int:
    """Sign alternations between consecutive nonzero flows."""
    signs = [cf > 0 for cf in flows if cf != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_irr(flows, root: float, within: float = 1e-9) -> bool:
    """An IRR's defining property: the NPV is 0, or changes sign, within
    ``within`` of ``root``."""
    values = [npv(flows, rate) for rate in (root - within, root, root + within)]
    return 0.0 in values or (values[0] < 0) != (values[2] < 0)


# -- summary statistics over Python floats -------------------------------------


def row_sums(rows) -> list[float]:
    """Each row's total: math.fsum, the correctly rounded sum, row by row."""
    return [math.fsum(row) for row in rows]


def standard_error(samples) -> float:
    """The sample standard deviation over sqrt(n): the mean by math.fsum, then
    the squared deviations by CPython's ** and their sum by math.fsum."""
    n = len(samples)
    center = math.fsum(samples) / n
    variance = math.fsum((x - center) ** 2 for x in samples) / (n - 1)
    return math.sqrt(variance) / math.sqrt(n)
