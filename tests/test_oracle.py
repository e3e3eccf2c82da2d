"""The model's rules against their independent reading in ``oracle.py``.

Every benefit row of ``benefit_schedule``, every cost row of ``tco_pair``,
every ALE of ``delta_table``, and ``analytic_evaluate``'s
``gross_benefits``, ``tco_total`` and ``risk_delta`` must agree with the
oracle to 1e-12 relative, on the reference config and on seeded random
portfolios written out as configs; so must the band an A/B benefit is
drawn from.  So must ``evaluate_outcome``'s NPV and payback, one row at a
time and over a run's columns, and its IRR must have the defining
property of one.  Every cell of ``track``'s CSV must be the oracle's to
within its rounding to cents.
"""

import csv
import dataclasses
import json
import math

import numpy as np

import oracle
from airoi import cli
from airoi.benefits import benefit_schedule
from airoi.config import parse_config
from airoi.costs import tco_pair
from airoi.quantities import PointRate, support
from airoi.engine import SimulationConfig, SimulationResult, analytic_evaluate, run_simulation
from airoi.risk import delta_table
from airoi.valuation import DiscountSpec, evaluate_outcome
from conftest import REFERENCE_CONFIG, minimal_config
from test_engine import _random_portfolio


def _literal(quantity) -> dict:
    return {"kind": type(quantity).__name__.lower(), **dataclasses.asdict(quantity)}


def _frequency(freq) -> dict:
    if isinstance(freq, PointRate):
        return {"kind": "point", "rate": freq.events_per_year}
    return {"kind": "poisson", "rate": freq.mean_events_per_year}


def _benefits(portfolio, gen, base_dir, index: int) -> list[dict]:
    """A random portfolio's benefits as config data, and one A/B benefit.

    The portfolio's benefits take the unit-valued kinds and a direct
    ``annual_value`` in turn.  The A/B benefit's arm counts are inline or in
    a CSV written to ``base_dir``, its phase is early or mature, and its
    margin is the phase's default or explicit, by ``index``; it leaves the
    other fields at their defaults.
    """
    benefits = []
    for n, item in enumerate(portfolio.benefits):
        kind = (*oracle.UNIT_VALUED, "risk_reduction_external")[n % 3]
        benefit = {
            "id": item.id,
            "kind": kind,
            "start_year": item.start_year,
            "end_year": int(gen.integers(item.start_year, portfolio.horizon_years)),
            "attribution_factor": item.attribution_factor,
            "erosion_rate": item.erosion_rate,
        }
        if kind in oracle.UNIT_VALUED:
            quantity, unit = oracle.UNIT_VALUED[kind]
            benefit[quantity] = _literal(item.annual_value)
            benefit[unit] = float(gen.uniform(1, 500))
        else:
            benefit["annual_value"] = _literal(item.annual_value)
        benefits.append(benefit)
    counts = {}
    for arm in ("treatment", "control"):
        trials = int(gen.integers(1, 10**6))
        counts[arm] = (trials, int(gen.integers(0, trials + 1)))
    ab_test = {"value_per_success": float(gen.uniform(1, 100)),
               "annual_volume": float(gen.uniform(1e3, 1e6))}
    if index % 2:
        ab_test["csv"] = f"arms{index}.csv"
        rows = [f"{arm},{trials},{successes}" for arm, (trials, successes) in counts.items()]
        (base_dir / ab_test["csv"]).write_text("\n".join(["arm,trials,successes", *rows]) + "\n")
    else:
        for arm, (trials, successes) in counts.items():
            ab_test.update({f"{arm}_trials": trials, f"{arm}_successes": successes})
    uplift = {"id": "uplift", "kind": "revenue_uplift", "ab_test": ab_test,
              "phase": ("early", "mature")[index // 2 % 2]}
    if index // 4 % 2:
        uplift["projection_margin"] = (0.0, float(gen.uniform(0.0, 0.9)))[index // 8 % 2]
    return benefits + [uplift]


def _random_config(gen, base_dir, index: int) -> dict:
    """A random portfolio as config data, with a random penalty and an A/B benefit.

    The AI state's rate is given as the shared ``frequency``, which a
    current state with its own rate must not take.
    """
    portfolio = _random_portfolio(gen)
    risks = []
    for scenario in portfolio.register.scenarios:
        risk = {"id": scenario.id, "applies_to": scenario.applies_to, "sle": _literal(scenario.sle)}
        if scenario.frequency_current is not None:
            risk["frequency_current"] = _frequency(scenario.frequency_current)
        if scenario.frequency_ai is not None:
            risk["frequency"] = _frequency(scenario.frequency_ai)
        risks.append(risk)
    lo, mode, hi = sorted(gen.uniform(0.0, 1.0, size=3).tolist())
    return minimal_config(
        horizon_years=portfolio.horizon_years,
        benefits=_benefits(portfolio, gen, base_dir, index),
        costs={
            "capex": [
                {**dataclasses.asdict(c), "amount": _literal(c.amount)} for c in portfolio.capex
            ],
            "opex": [
                {**dataclasses.asdict(o), "annual_amount": _literal(o.annual_amount)}
                for o in portfolio.opex
            ],
            "rules": dataclasses.asdict(portfolio.cost_rules),
        },
        risks=risks,
        penalties={
            # The fixed cap is the larger below 1.07e8 to 5e8, by tier.
            "global_turnover": float(gen.uniform(0.0, 1e9)),
            "scenarios": [
                {
                    "id": "fine",
                    "tier": list(oracle.PENALTY_TIERS)[int(gen.integers(3))],
                    "severity_fraction": {"kind": "pert", "lo": lo, "mode": mode, "hi": hi},
                    "violation_rate": {"kind": "point", "rate": float(gen.uniform(0.0, 0.5))},
                }
            ],
        },
    )


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= 1e-12 * max(abs(got), abs(want), scale)


def _configs(base_dir) -> list[dict]:
    """The reference config, then 24 seeded random ones whose arm-count CSVs are in ``base_dir``."""
    gen = np.random.default_rng(2_026)
    reference = json.loads(REFERENCE_CONFIG.read_text())
    return [reference] + [_random_config(gen, base_dir, index) for index in range(24)]


def _parsed(data: dict, base_dir):
    """The config ``data`` read as if it sat in ``base_dir``."""
    config, diagnostics = parse_config(data, source_path=base_dir / "config.json")
    assert config is not None, [str(d) for d in diagnostics]
    return config


def test_benefit_rules_match_the_oracle(tmp_path):
    seen = set()
    for data in _configs(tmp_path):
        portfolio = _parsed(data, tmp_path).portfolio
        horizon = portfolio.horizon_years
        want = oracle.benefit_rows(data, tmp_path)
        for item in portfolio.benefits:
            assert all(map(_close, benefit_schedule([item], horizon), want[item.id])), item.id
        years = list(zip(*want.values()))
        total = benefit_schedule(portfolio.benefits, horizon)
        for got, values in zip(total, years, strict=True):
            assert _close(got, math.fsum(values), sum(map(abs, values)))
        magnitude = sum(abs(value) for values in years for value in values)
        want_total = math.fsum(value for values in years for value in values)
        assert _close(analytic_evaluate(portfolio).gross_benefits, want_total, magnitude)

        for item, raw in zip(portfolio.benefits, data["benefits"], strict=True):
            seen.update(key for key in ("attribution_factor", "erosion_rate") if raw.get(key))
            seen.add(raw["kind"])
            if "ab_test" in raw:
                low, _, high = oracle.uplift_band(raw, tmp_path)
                got_low, got_high = support(item.annual_value)
                assert _close(got_low, low) and _close(got_high, high), (raw, item)
                seen.add("csv" if "csv" in raw["ab_test"] else "inline")
                margin = "explicit" if "projection_margin" in raw else "default"
                seen.add(f"{raw.get('phase', 'early')} {margin} margin")
    assert seen == {
        "attribution_factor", "erosion_rate", *oracle.UNIT_VALUED, "risk_reduction_external",
        "revenue_uplift", "inline", "csv", "early default margin", "mature default margin",
        "early explicit margin", "mature explicit margin",
    }


def _actuals(data: dict, base_dir, gen, columns: dict) -> dict:
    """A record a year holding every item, each actual a random 0.5 to 1.5
    times the oracle's projection."""
    ids = {"benefit": [item["id"] for item in data["benefits"]]}
    costs = data["costs"]
    ids["cost"] = [item["id"] for item in costs.get("capex", []) + costs.get("opex", [])]
    ids["loss"] = [scenario for scenario, _, _ in oracle.scenario_ales(data)]
    records = []
    for year in range(data["horizon_years"]):
        period = {"year": year, "quarter": year % 4 + 1}
        zero = {"period": period, "benefits": dict.fromkeys(ids["benefit"], 0.0),
                "costs": dict.fromkeys(ids["cost"], 0.0),
                "losses": {item_id: {"total_loss": 0.0} for item_id in ids["loss"]}}
        record = {"period": period, "benefits": {}, "costs": {}, "losses": {}}
        for _, record_type, item_id, projected, *_ in oracle.track_rows(
            data, base_dir, {"records": [zero]}, columns
        ):
            actual = round(projected * float(gen.uniform(0.5, 1.5)), 2)
            if record_type == "loss":
                record["losses"][item_id] = {"total_loss": actual}
            else:
                record[f"{record_type}s"][item_id] = actual
        records.append(record)
    return {"records": records}


def test_track_matches_the_oracle(tmp_path):
    gen = np.random.default_rng(25)
    flags = set()
    for index, data in enumerate(_configs(tmp_path)):
        config = _parsed(data, tmp_path)
        result = run_simulation(config.portfolio, config.simulation)
        columns = {("benefit", key): column for key, column in result.benefit_values.items()}
        columns.update((("cost", key), column) for key, column in result.cost_values.items())
        columns.update((("loss", key), ai) for key, (_, ai) in result.scenario_losses.items())
        columns = {key: column.tolist() for key, column in columns.items()}
        actuals = _actuals(data, tmp_path, gen, columns)
        paths = [tmp_path / f"{name}{index}.json" for name in ("config", "actuals")]
        for path, document in zip(paths, (data, actuals)):
            path.write_text(json.dumps(document))
        out = tmp_path / f"track{index}.csv"
        assert cli.main(["track", *map(str, paths), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            got = list(csv.reader(handle))[1:]
        want = oracle.track_rows(data, tmp_path, actuals, columns)
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert got_row[:3] + got_row[8:] == want_row[:3] + want_row[8:], (got_row, want_row)
            for cell, value in zip(got_row[3:8], want_row[3:8]):
                assert abs(float(cell) - value) <= 0.005 + 1e-12 * abs(value), (got_row, want_row)
            flags.add(got_row[8])
    assert flags == {"yes", "no"}


def test_cost_and_risk_rules_match_the_oracle(tmp_path):
    seen = set()
    for data in _configs(tmp_path):
        portfolio = _parsed(data, tmp_path).portfolio
        want = oracle.cost_rows(data)
        amortized, cash = tco_pair(
            portfolio.capex, portfolio.opex, portfolio.cost_rules, portfolio.horizon_years
        )
        rows = {name: getattr(amortized, name) for name in ("capex", "opex", "maintenance")}
        rows.update(reserve=amortized.reserve, per_year=amortized.per_year)
        rows.update(cash_capex=cash.capex, cash_per_year=cash.per_year)
        for name, got in rows.items():
            assert len(got) == len(want[name]), name
            assert all(map(_close, got, want[name])), (name, got, want[name])

        ales = oracle.scenario_ales(data)
        table = delta_table(portfolio.register)
        assert [row[0] for row in table] == [row[0] for row in ales]
        for (_, _, current, ai, delta), (_, want_current, want_ai) in zip(table, ales):
            assert _close(current, want_current) and _close(ai, want_ai)
            assert _close(delta, want_current - want_ai, want_current + want_ai)

        outcome = analytic_evaluate(portfolio)
        assert _close(outcome.tco_total, math.fsum(want["per_year"]))
        magnitude = math.fsum(current + ai for _, current, ai in ales)
        assert _close(outcome.risk_delta, math.fsum(c - a for _, c, a in ales), magnitude)

        rules = data["costs"]["rules"]
        seen.add(rules.get("reserve_treatment", "cash_cost"))
        seen.update("shared frequency" for risk in data["risks"] if "frequency" in risk)
        penalties = data["penalties"]
        for fine in penalties["scenarios"]:
            cap, share = oracle.PENALTY_TIERS[fine["tier"]]
            seen.add("cap" if cap > share * penalties["global_turnover"] else "turnover share")
    assert seen == {"cash_cost", "carrying_cost", "shared frequency", "cap", "turnover share"}


def _one_row(outcome) -> SimulationResult:
    """A one-iteration run holding ``outcome``'s totals and rows: what valuation reads."""
    names = ("gross_benefits", "risk_reduction", "risk_increase", "tco_total", "risk_delta")
    names += ("cash_flows", "cash_basis_flows", "tco_per_year")
    rows = {name: np.array([getattr(outcome, name)]) for name in names}
    return SimulationResult(**rows, benefit_values={}, cost_values={}, scenario_losses={})


def _valued(columns) -> list[tuple]:
    """(npv, irr, payback, multiple roots) of each row of a run's columns, None if undefined."""
    irr_values = np.where(columns.defined["irr"], columns.irr, None)
    paybacks = np.where(columns.defined["payback_years"], columns.payback_years, None)
    return list(
        zip(
            columns.npv.tolist(),
            irr_values.tolist(),
            paybacks.tolist(),
            columns.irr_multiple_roots_possible.tolist(),
        )
    )


def _assert_valuation_matches(outcome, rate: float, valued: tuple, seen: set) -> None:
    value, root, payback, multiple = valued
    assert _close(value, oracle.npv(outcome.cash_flows, rate))
    flows = outcome.cash_basis_flows
    want = oracle.payback(flows)
    assert (payback is None) == (want is None)
    assert want is None or _close(payback, want), (payback, want)
    changes = oracle.sign_changes(flows)
    assert multiple == (changes > 1)
    if root is not None:
        assert oracle.is_irr(flows, root), (flows, root)
        seen.add("irr")
    elif changes == 1:  # one root at most, and none in the bracket
        ends = [oracle.npv(flows, end) for end in oracle.IRR_BRACKET]
        assert 0.0 not in ends and (ends[0] < 0) == (ends[1] < 0), flows
        seen.add("no irr")
    seen.add("payback" if payback is not None else "no payback")


def _assert_rows_match(outcomes, result: SimulationResult, rate: float, seen: set) -> None:
    """Each outcome valued on its own, and as its row of ``result``, against the oracle."""
    discount = DiscountSpec(rate)
    for outcome, row in zip(outcomes, _valued(evaluate_outcome(result, discount)), strict=True):
        one = evaluate_outcome(outcome, discount)
        for valued in ((one.npv, one.irr, one.payback_years, one.irr_multiple_roots_possible), row):
            _assert_valuation_matches(outcome, rate, valued, seen)


def test_valuation_rules_match_the_oracle(tmp_path):
    # Every analytic outcome, and 2,000 simulated reference rows.
    portfolios = [_parsed(data, tmp_path).portfolio for data in _configs(tmp_path)]
    outcomes = [(analytic_evaluate(p), p.discount_rate) for p in portfolios]
    reference, rate = outcomes[0]
    # One sign change each, with the root below and above the bracket.
    for flows in ((-100.0, 0.01, 0.0, 0.0, 0.0), (-1.0, 1e6, 0.0, 0.0, 0.0)):
        outcomes.append((dataclasses.replace(reference, cash_basis_flows=flows), rate))
    seen = set()
    for outcome, rate in outcomes:
        _assert_rows_match([outcome], _one_row(outcome), rate, seen)
    result = run_simulation(portfolios[0], SimulationConfig(iterations=2_000, master_seed=42))
    _assert_rows_match(result.outcomes, result, portfolios[0].discount_rate, seen)
    assert seen == {"irr", "no irr", "payback", "no payback"}
