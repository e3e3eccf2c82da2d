"""Risk-adjusted ROI analysis for AI investment portfolios.

Deterministic Monte Carlo valuation combining benefit models, total cost
of ownership, and annual-loss-expectancy risk deltas into percentile
financial projections.

Every name below is imported from its module on first use (PEP 562), so
importing the package, or a module that needs no numpy, does not load it.
"""

import importlib

# One line per module and its names; a module may take more than one line.
_EXPORTS = """
benefits AbTestResult BenefitItem UpliftEstimate apply_projection_margin benefit_schedule
benefits uplift_estimate
costs CapexItem CostRules CostSchedule OpexItem amortize_capex maintenance_opex
costs reserve_requirement tco
quantities FrequencyModel Lognormal Pert Point PointRate PoissonRate Triangular Uniform
quantities UncertainQuantity mean percentile validate
distributions RngStream sample
model Portfolio SimulationConfig
assembly IterationOutcome analytic_evaluate
engine SampleSummary SimulationResult run_simulation standard_error summarize
risk PENALTY_TIERS PenaltyTier RiskRegister RiskScenario ale_analytic ale_simulate
risk classify_scenario penalty_magnitude penalty_scenario risk_delta
valuation DiscountSpec ValuationOutcome ValuationReport build_report evaluate_outcome irr npv
valuation payback_period risk_adjusted_net
"""
_HOMES = {
    name: home for home, *names in map(str.split, _EXPORTS.strip().splitlines()) for name in names
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
