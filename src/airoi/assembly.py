"""The stream table, and one iteration's rows assembled from its stream values.

Every stream's annual total is one value: a float for one iteration, or a
numpy column of one value per iteration.  :func:`assemble` builds the
rows from either with the same operations in the same order, so
:mod:`airoi.engine` assembles a block of drawn columns with it and
:func:`analytic_evaluate` assembles the analytic means as floats.  This
module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from . import benefits as benefits_mod
from . import costs as costs_mod
from . import risk as risk_mod
from .model import Portfolio
from .quantities import PointRate, frequency_mean, mean


@dataclass(frozen=True)
class IterationOutcome:
    """One iteration's sampled financial state.

    ``cash_flows`` spreads capital costs straight-line (NPV/ROI basis);
    ``cash_basis_flows`` books capex in the incurred year (payback/IRR
    basis).  Risk deltas enter both as a constant annual amount.
    """

    index: int
    gross_benefits: float
    risk_reduction: float
    risk_increase: float
    tco_total: float
    risk_delta: float
    cash_flows: tuple[float, ...]
    cash_basis_flows: tuple[float, ...]
    tco_per_year: tuple[float, ...]
    benefit_values: dict[str, float]
    cost_values: dict[str, float]
    scenario_losses: dict[str, tuple[float, float]]


# ---------------------------------------------------------------------------
# Stream table
# ---------------------------------------------------------------------------


def benefit_stream_key(item_id: str) -> str:
    return f"benefit:{item_id}"


def capex_stream_key(item_id: str) -> str:
    return f"cost:capex:{item_id}"


def opex_stream_key(item_id: str) -> str:
    return f"cost:opex:{item_id}"


def risk_stream_key(scenario_id: str, state: str) -> str:
    return f"risk:{scenario_id}:{state}"


# A benefit, capex or opex value is a stream of exactly one event a year
# (the collective risk model with N = 1); its count consumes no output.
_ONE_EVENT = PointRate(1.0)


def _streams(portfolio: Portfolio) -> dict[str, tuple]:
    """Every stream that applies, by the key that seeds it: its (frequency, quantity).

    A stream's annual total is the sum of one frequency draw's count of
    quantity draws.  Benefit, capex and opex values come first, then each
    scenario's current and AI loss; a risk state that does not apply has
    no stream.
    """
    streams = {
        benefit_stream_key(item.id): (_ONE_EVENT, item.annual_value) for item in portfolio.benefits
    }
    streams.update(
        (capex_stream_key(item.id), (_ONE_EVENT, item.amount)) for item in portfolio.capex
    )
    streams.update(
        (opex_stream_key(item.id), (_ONE_EVENT, item.annual_amount)) for item in portfolio.opex
    )
    for scenario in portfolio.register.scenarios:
        for state in risk_mod.STATES:
            freq = scenario.frequency_for(state)
            if freq is not None:
                streams[risk_stream_key(scenario.id, state)] = (freq, scenario.sle)
    return streams


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


def _pick(condition: bool, if_true: float, if_false: float) -> float:
    """``np.where`` on one float: a selection, so -0.0 and nan pass unchanged."""
    return if_true if condition else if_false


def assemble(
    portfolio: Portfolio,
    values: Mapping,
    *,
    zeros: Callable = float,
    where: Callable = _pick,
    stack: Callable = tuple,
    total: Callable = math.fsum,
) -> dict:
    """The fields of an outcome from each stream's value, keyed by stream key.

    A value is a float, or a column of one value per iteration.  Benefit
    and cost rows come from the module pipeline (``benefit_schedule``,
    ``tco_pair``); each per-year row is a list of floats or columns until
    ``stack`` makes it a field, and ``total`` sums a stacked row.  A risk
    state without a stream loses ``zeros()``.  The defaults are one
    iteration's: ``float() == 0.0``, a conditional, ``tuple`` and
    ``math.fsum``; :mod:`airoi.engine` passes their column forms.
    """
    benefit_values = {item.id: values[benefit_stream_key(item.id)] for item in portfolio.benefits}
    cost_values = {item.id: values[capex_stream_key(item.id)] for item in portfolio.capex}
    cost_values.update((item.id, values[opex_stream_key(item.id)]) for item in portfolio.opex)
    scenario_losses = {}
    for scenario in portfolio.register.scenarios:
        keys = [risk_stream_key(scenario.id, state) for state in risk_mod.STATES]
        scenario_losses[scenario.id] = tuple(
            values[key] if key in values else zeros() for key in keys
        )
    horizon = portfolio.horizon_years
    benefit_row = benefits_mod.benefit_schedule(portfolio.benefits, horizon, benefit_values)
    schedule, cash_schedule = costs_mod.tco_pair(
        portfolio.capex, portfolio.opex, portfolio.cost_rules, horizon, amounts=cost_values
    )

    # A scenario whose loss falls adds to the risk reduction, one whose
    # loss grows to the risk increase.
    reduction_annual = zeros()
    increase_annual = zeros()
    for loss_current, loss_ai in scenario_losses.values():
        delta = loss_current - loss_ai
        reduces = delta >= 0
        reduction_annual += where(reduces, delta, 0.0)
        increase_annual -= where(reduces, 0.0, delta)
    risk_delta = reduction_annual - increase_annual

    def net(costs):
        return stack([b + risk_delta - t for b, t in zip(benefit_row, costs)])

    tco_per_year = stack(schedule.per_year)
    return dict(
        gross_benefits=total(stack(benefit_row)),
        risk_reduction=reduction_annual * horizon,
        risk_increase=increase_annual * horizon,
        tco_total=total(tco_per_year),
        risk_delta=risk_delta,
        cash_flows=net(schedule.per_year),
        cash_basis_flows=net(cash_schedule.per_year),
        tco_per_year=tco_per_year,
        benefit_values=benefit_values,
        cost_values=cost_values,
        scenario_losses=scenario_losses,
    )


def analytic_evaluate(portfolio: Portfolio) -> IterationOutcome:
    """Deterministic evaluation with every sample replaced by its mean.

    Each stream reads ``mean(quantity) * frequency_mean(freq)``: a value's
    mean, and a risk state's ``ale_analytic``.
    """
    values = {
        key: float(mean(quantity) * frequency_mean(freq))
        for key, (freq, quantity) in _streams(portfolio).items()
    }
    return IterationOutcome(0, **assemble(portfolio, values))
