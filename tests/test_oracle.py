"""The cost, risk and valuation rules against their independent reading in ``oracle.py``.

Every cost row of ``tco_pair``, every ALE of ``delta_table``, and
``analytic_evaluate``'s ``tco_total`` and ``risk_delta`` must agree with
the oracle to 1e-12 relative, on the reference config and on seeded random
portfolios written out as configs.  So must ``evaluate_outcome``'s NPV and
payback, one row at a time and over a run's columns, and its IRR must have
the defining property of one.
"""

import dataclasses
import json
import math

import numpy as np

import oracle
from airoi.config import parse_config
from airoi.costs import tco_pair
from airoi.quantities import PointRate
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


def _random_config(gen) -> dict:
    """A random portfolio's costs and risks as config data, with a random penalty.

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


def _configs() -> list[dict]:
    """The reference config, then 24 seeded random ones."""
    gen = np.random.default_rng(2_026)
    return [json.loads(REFERENCE_CONFIG.read_text())] + [_random_config(gen) for _ in range(24)]


def test_cost_and_risk_rules_match_the_oracle():
    seen = set()
    for data in _configs():
        config, diagnostics = parse_config(data)
        assert config is not None, [str(d) for d in diagnostics]
        portfolio = config.portfolio
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


def test_valuation_rules_match_the_oracle():
    # Every analytic outcome, and 2,000 simulated reference rows.
    portfolios = []
    for data in _configs():
        config, diagnostics = parse_config(data)
        assert config is not None, [str(d) for d in diagnostics]
        portfolios.append(config.portfolio)
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
