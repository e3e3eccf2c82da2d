"""Risk scenario register, annual loss expectancy, and regulatory penalties.

Each scenario pairs a single-loss severity distribution with annualized
occurrence rates for the pre-implementation ("current") and
post-implementation ("ai") states.  The register's delta — current-state
losses minus AI-state losses, summed across scenarios — is the monetary
value of the risk profile change: positive means net risk reduction,
negative is carried as an ongoing cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .quantities import (
    FrequencyModel, UncertainQuantity, frequency_mean, mean, scaled, support, validate,
    validate_frequency,
)

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .distributions import RngStream

APPLIES_TO = ("current_only", "ai_only", "both")
STATES = ("current", "ai")

CLASSIFICATION_REDUCTION = "reduction"
CLASSIFICATION_INTRODUCTION = "introduction"
CLASSIFICATION_NEUTRAL = "neutral"


@dataclass(frozen=True)
class RiskScenario:
    """A named threat with per-event severity and per-state frequency."""

    id: str
    sle: UncertainQuantity
    applies_to: str
    frequency_current: FrequencyModel | None = None
    frequency_ai: FrequencyModel | None = None
    description: str = ""
    tags: tuple[str, ...] = ()

    def applies(self, state: str) -> bool:
        if state == "current":
            return self.applies_to in ("current_only", "both")
        if state == "ai":
            return self.applies_to in ("ai_only", "both")
        raise ValueError(f"unknown state {state!r}")

    def frequency_for(self, state: str) -> FrequencyModel | None:
        if not self.applies(state):
            return None
        return self.frequency_current if state == "current" else self.frequency_ai


@dataclass(frozen=True)
class PenaltyTier:
    """One fine tier: a fixed cap or a fraction of global turnover, whichever is higher."""

    name: str
    fixed_cap: float
    turnover_rate: float


# EU AI Act administrative fine tiers, in euros.
PENALTY_TIERS: dict[str, PenaltyTier] = {
    "prohibited_practice": PenaltyTier("prohibited_practice", 35e6, 0.07),
    "high_risk_violation": PenaltyTier("high_risk_violation", 15e6, 0.03),
    "information_failure": PenaltyTier("information_failure", 7.5e6, 0.01),
}


@dataclass(frozen=True)
class RiskRegister:
    scenarios: tuple[RiskScenario, ...] = ()


def validate_scenario(scenario: RiskScenario) -> list[str]:
    problems: list[str] = []
    if not scenario.id:
        problems.append("scenario id must be nonempty")
    if scenario.applies_to not in APPLIES_TO:
        problems.append(
            f"scenario {scenario.id!r}: applies_to must be one of {APPLIES_TO}, "
            f"got {scenario.applies_to!r}"
        )
        return problems
    problems.extend(validate(scenario.sle, nonnegative=True, label=f"scenario {scenario.id!r} sle"))
    for state in STATES:
        if not scenario.applies(state):
            continue
        freq = scenario.frequency_for(state)
        if freq is None:
            problems.append(
                f"scenario {scenario.id!r}: missing frequency for state {state!r}"
            )
        else:
            problems.extend(
                validate_frequency(freq, label=f"scenario {scenario.id!r} {state} frequency")
            )
    return problems


def validate_register(register: RiskRegister) -> list[str]:
    problems: list[str] = []
    seen: set[str] = set()
    for scenario in register.scenarios:
        if scenario.id in seen:
            problems.append(f"duplicate scenario id {scenario.id!r}")
        seen.add(scenario.id)
        problems.extend(validate_scenario(scenario))
    return problems


# ---------------------------------------------------------------------------
# Annual loss expectancy
# ---------------------------------------------------------------------------


def ale_analytic(scenario: RiskScenario, state: str) -> float:
    """Expected annual loss: mean severity times mean rate; 0 when not applicable.

    Severity and frequency are assumed independent.
    """
    freq = scenario.frequency_for(state)
    if freq is None:
        return 0.0
    return mean(scenario.sle) * frequency_mean(freq)


def ale_simulate(
    scenario: RiskScenario, state: str, rng: "RngStream | np.random.Generator"
) -> float:
    """One iteration's annual loss: a compound sum of sampled event severities."""
    from .distributions import (
        _resolve_generator, make_batch_sampler, make_count_sampler, positioned_total,
    )

    freq = scenario.frequency_for(state)
    if freq is None:
        return 0.0
    return positioned_total(
        make_count_sampler(freq), make_batch_sampler(scenario.sle), _resolve_generator(rng)
    )


def classify_scenario(scenario: RiskScenario) -> str:
    """Sign of the analytic per-scenario delta: reduction, introduction, or neutral."""
    delta = scenario_delta_analytic(scenario)
    if delta > 0:
        return CLASSIFICATION_REDUCTION
    if delta < 0:
        return CLASSIFICATION_INTRODUCTION
    return CLASSIFICATION_NEUTRAL


def scenario_delta_analytic(scenario: RiskScenario) -> float:
    return ale_analytic(scenario, "current") - ale_analytic(scenario, "ai")


def risk_delta(register: RiskRegister) -> float:
    """Analytic aggregate delta over all scenarios, in currency per year.

    A simulated iteration's delta is the ``risk_delta`` column of
    ``engine.run_simulation``; :func:`ale_simulate` draws one state's loss.
    """
    total = 0.0
    for scenario in register.scenarios:
        total += scenario_delta_analytic(scenario)
    return total


def delta_table(register: RiskRegister) -> list[tuple[str, str, float, float, float]]:
    """Per-scenario analytic rows (id, classification, ale_current, ale_ai, delta)."""
    return [
        (
            scenario.id,
            classify_scenario(scenario),
            ale_analytic(scenario, "current"),
            ale_analytic(scenario, "ai"),
            scenario_delta_analytic(scenario),
        )
        for scenario in register.scenarios
    ]


# ---------------------------------------------------------------------------
# EU AI Act penalty exposure
# ---------------------------------------------------------------------------


def penalty_magnitude(tier: PenaltyTier, global_turnover: float) -> float:
    """Statutory maximum fine: the higher of the fixed cap and the turnover share."""
    if global_turnover < 0:
        raise ValueError(f"global turnover must be >= 0, got {global_turnover}")
    return max(tier.fixed_cap, tier.turnover_rate * global_turnover)


def penalty_scenario(
    scenario_id: str,
    tier: PenaltyTier,
    global_turnover: float,
    severity_fraction: UncertainQuantity,
    violation_rate: FrequencyModel,
    description: str = "",
    tags: Iterable[str] = (),
) -> RiskScenario:
    """Build an AI-only scenario whose severity scales the statutory maximum.

    ``severity_fraction`` must have support inside [0, 1]: actual fines run
    "up to" the cap, so the fraction expresses how much of the maximum a
    violation realizes.
    """
    problems = validate(severity_fraction, label="severity_fraction")
    if problems:
        raise ValueError("; ".join(problems))
    lo, hi = support(severity_fraction)
    if lo < 0 or hi > 1:
        raise ValueError(
            f"severity_fraction support must lie within [0, 1], got [{lo}, {hi}]"
        )
    magnitude = penalty_magnitude(tier, global_turnover)
    return RiskScenario(
        id=scenario_id,
        sle=scaled(severity_fraction, magnitude),
        applies_to="ai_only",
        frequency_ai=violation_rate,
        description=description or f"{tier.name} penalty exposure",
        tags=tuple(tags) or ("regulatory",),
    )
