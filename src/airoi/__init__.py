"""Risk-adjusted ROI analysis for AI investment portfolios.

Deterministic Monte Carlo valuation combining benefit models, total cost
of ownership, and annual-loss-expectancy risk deltas into percentile
financial projections.
"""

from .benefits import (
    AbTestResult,
    BenefitItem,
    UpliftEstimate,
    apply_projection_margin,
    benefit_schedule,
    uplift_estimate,
)
from .costs import (
    CapexItem,
    CostRules,
    CostSchedule,
    OpexItem,
    amortize_capex,
    maintenance_opex,
    reserve_requirement,
    tco,
)
from .distributions import (
    FrequencyModel,
    Lognormal,
    Pert,
    Point,
    PointRate,
    PoissonRate,
    RngStream,
    Triangular,
    Uniform,
    UncertainQuantity,
    mean,
    percentile,
    sample,
    validate,
)
from .engine import (
    IterationOutcome,
    Portfolio,
    SampleSummary,
    SimulationConfig,
    SimulationResult,
    analytic_evaluate,
    run_simulation,
    standard_error,
    summarize,
)
from .risk import (
    PENALTY_TIERS,
    PenaltyTier,
    RiskRegister,
    RiskScenario,
    ale_analytic,
    ale_simulate,
    classify_scenario,
    penalty_magnitude,
    penalty_scenario,
    risk_delta,
)
from .valuation import (
    DiscountSpec,
    ValuationOutcome,
    ValuationReport,
    build_report,
    evaluate_outcome,
    irr,
    npv,
    payback_period,
    risk_adjusted_net,
)

__version__ = "0.1.0"
