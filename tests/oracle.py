"""The cost, risk and valuation rules of README and the paper, as plain loops over years.

An independent reading of the rules, for differential tests: it takes a
config as JSON data, or a row of yearly flows, and shares no code with
``airoi``.
"""

import itertools
import math

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


def cost_rows(config: dict) -> dict[str, list[float]]:
    """Per-year rows at every mean: capex (straight-line and cash-basis), opex,
    maintenance, reserve, and the totals of both bases."""
    costs = config["costs"]
    rules, capex, opex = costs["rules"], costs.get("capex", []), costs.get("opex", [])
    development = sum(
        quantity_mean(item["amount"])
        for item in capex
        if item.get("category", "development") == "development"
    )
    rows = {name: [] for name in ("capex", "cash_capex", "opex", "maintenance", "reserve")}
    for year in range(config["horizon_years"]):
        straight = cash = 0.0
        for item in capex:
            amount, first = quantity_mean(item["amount"]), item.get("incurred_year", 0)
            life = item["useful_life_years"]
            if first <= year < first + life:
                straight += amount / life
            if year == first:
                cash += amount
        running = 0.0
        for item in opex:
            if item.get("start_year", 0) <= year <= item["end_year"]:
                premium = item.get("category") == "personnel" and item.get("specialist", False)
                factor = 1 + rules["talent_premium_rate"] if premium else 1
                running += quantity_mean(item["annual_amount"]) * factor
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
