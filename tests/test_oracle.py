"""The cost and risk rules against their independent reading in ``oracle.py``.

Every cost row of ``tco_pair``, every ALE of ``delta_table``, and
``analytic_evaluate``'s ``tco_total`` and ``risk_delta`` must agree with
the oracle to 1e-12 relative, on the reference config and on seeded random
portfolios written out as configs.
"""

import dataclasses
import json
import math

import numpy as np

import oracle
from airoi.config import parse_config
from airoi.costs import tco_pair
from airoi.quantities import PointRate
from airoi.engine import analytic_evaluate
from airoi.risk import delta_table
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


def test_cost_and_risk_rules_match_the_oracle():
    gen = np.random.default_rng(2_026)
    configs = [json.loads(REFERENCE_CONFIG.read_text())]
    configs += [_random_config(gen) for _ in range(24)]
    seen = set()
    for data in configs:
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
