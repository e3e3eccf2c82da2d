import math

import numpy as np
import pytest

from airoi.distributions import (
    Lognormal,
    Point,
    PointRate,
    PoissonRate,
    RngStream,
    Triangular,
    Uniform,
)
from airoi.risk import (
    PENALTY_TIERS,
    RiskRegister,
    RiskScenario,
    ale_analytic,
    ale_simulate,
    classify_scenario,
    delta_table,
    penalty_magnitude,
    penalty_scenario,
    risk_delta,
    scenario_delta_analytic,
    validate_register,
    validate_scenario,
)


def scenario_with_ales(scenario_id: str, ale_current: float, ale_ai: float) -> RiskScenario:
    """Unit-severity scenario whose rates equal the wanted analytic ALEs."""
    return RiskScenario(
        id=scenario_id,
        sle=Point(1.0),
        applies_to="both",
        frequency_current=PointRate(ale_current),
        frequency_ai=PointRate(ale_ai),
    )


def swap_states(scenario: RiskScenario) -> RiskScenario:
    flipped = {"current_only": "ai_only", "ai_only": "current_only", "both": "both"}
    return RiskScenario(
        id=scenario.id,
        sle=scenario.sle,
        applies_to=flipped[scenario.applies_to],
        frequency_current=scenario.frequency_ai,
        frequency_ai=scenario.frequency_current,
        description=scenario.description,
        tags=scenario.tags,
    )


# -- analytic ALE -------------------------------------------------------------


def test_ale_analytic_product_rule():
    scenario = RiskScenario(
        id="s", sle=Point(100_000.0), applies_to="current_only",
        frequency_current=PointRate(0.1),
    )
    assert ale_analytic(scenario, "current") == 10_000.0
    assert ale_analytic(scenario, "ai") == 0.0


def test_ale_analytic_not_applicable_state_is_zero():
    scenario = RiskScenario(
        id="s", sle=Point(50_000.0), applies_to="ai_only", frequency_ai=PointRate(1.0)
    )
    assert ale_analytic(scenario, "current") == 0.0


def test_ale_analytic_triangular_poisson():
    scenario = RiskScenario(
        id="s",
        sle=Triangular(50_000.0, 100_000.0, 150_000.0),
        applies_to="current_only",
        frequency_current=PoissonRate(2.0),
    )
    assert ale_analytic(scenario, "current") == 200_000.0


# -- simulated ALE ------------------------------------------------------------


def test_ale_simulate_zero_rate_is_always_zero():
    scenario = RiskScenario(
        id="s", sle=Point(10_000.0), applies_to="current_only",
        frequency_current=PointRate(0.0),
    )
    for i in range(100):
        assert ale_simulate(scenario, "current", RngStream(1, "s", i)) == 0.0


def test_ale_simulate_deterministic_compound():
    scenario = RiskScenario(
        id="s", sle=Point(10_000.0), applies_to="current_only",
        frequency_current=PointRate(3.0),
    )
    for i in range(100):
        assert ale_simulate(scenario, "current", RngStream(1, "s", i)) == 30_000.0


def test_ale_simulate_compound_mean_matches_walds_identity():
    # E[annual loss] = E[N] * E[X]: lognormal severities with Poisson counts.
    scenario = RiskScenario(
        id="s",
        sle=Lognormal(20_000.0, 0.5),
        applies_to="ai_only",
        frequency_ai=PoissonRate(1.5),
    )
    n = 100_000
    gen = RngStream(7, "compound", 0).generator
    losses = [ale_simulate(scenario, "ai", gen) for _ in range(n)]
    expected = 1.5 * 20_000.0 * math.exp(0.125)
    observed = math.fsum(losses) / n
    se = np.std(losses, ddof=1) / math.sqrt(n)
    assert abs(observed - expected) <= 4 * se


# -- risk delta ---------------------------------------------------------------


def test_risk_delta_empty_register():
    assert risk_delta(RiskRegister(())) == 0.0


def test_risk_delta_single_scenario_sign():
    register = RiskRegister((scenario_with_ales("s", 50_000.0, 80_000.0),))
    assert risk_delta(register) == -30_000.0


def test_risk_delta_sums_scenarios():
    register = RiskRegister(
        (scenario_with_ales("up", 90_000.0, 50_000.0), scenario_with_ales("down", 20_000.0, 50_000.0))
    )
    assert risk_delta(register) == 10_000.0


def test_risk_delta_antisymmetry_exact():
    register = RiskRegister(
        (
            RiskScenario(
                "a",
                Lognormal(40_000.0, 0.7),
                "both",
                frequency_current=PoissonRate(3.1),
                frequency_ai=PoissonRate(1.7),
            ),
            RiskScenario(
                "b", Triangular(5_000.0, 12_000.0, 30_000.0), "ai_only",
                frequency_ai=PointRate(0.8),
            ),
            RiskScenario(
                "c", Uniform(1_000.0, 9_000.0), "current_only",
                frequency_current=PoissonRate(2.2),
            ),
        )
    )
    swapped = RiskRegister(tuple(swap_states(s) for s in register.scenarios))
    assert risk_delta(swapped) == -risk_delta(register)


def test_risk_delta_additivity_exact():
    scenarios = (
        scenario_with_ales("x", 10_000.0, 4_000.0),
        RiskScenario("y", Lognormal(8_000.0, 0.3), "ai_only", frequency_ai=PoissonRate(1.2)),
        scenario_with_ales("z", 100.0, 7_000.0),
    )
    whole = risk_delta(RiskRegister(scenarios))
    parts = 0.0
    for scenario in scenarios:
        parts += risk_delta(RiskRegister((scenario,)))
    assert whole == parts


def test_risk_delta_simulated_mean_matches_analytic():
    register = RiskRegister(
        (
            RiskScenario(
                "a",
                Lognormal(30_000.0, 0.6),
                "both",
                frequency_current=PoissonRate(2.0),
                frequency_ai=PoissonRate(1.1),
            ),
            RiskScenario(
                "b", Triangular(10_000.0, 25_000.0, 60_000.0), "ai_only",
                frequency_ai=PointRate(0.7),
            ),
        )
    )
    n = 20_000
    samplers = {("a", "current"), ("a", "ai"), ("b", "ai")}

    def loss(scenario, state, i):
        if not scenario.applies(state):
            return 0.0
        assert (scenario.id, state) in samplers
        return ale_simulate(scenario, state, RngStream(99, f"risk:{scenario.id}:{state}", i))

    deltas = []
    for i in range(n):
        delta = 0.0
        for scenario in register.scenarios:
            delta += loss(scenario, "current", i) - loss(scenario, "ai", i)
        deltas.append(delta)
    analytic = risk_delta(register)
    observed = math.fsum(deltas) / n
    se = np.std(deltas, ddof=1) / math.sqrt(n)
    assert abs(observed - analytic) <= 4 * se


# -- classification -----------------------------------------------------------


def test_classify_ai_only_is_introduction():
    scenario = RiskScenario(
        "s", Point(10_000.0), "ai_only", frequency_ai=PointRate(1.0)
    )
    assert classify_scenario(scenario) == "introduction"


def test_classify_current_only_is_reduction():
    scenario = RiskScenario(
        "s", Point(10_000.0), "current_only", frequency_current=PointRate(1.0)
    )
    assert classify_scenario(scenario) == "reduction"


def test_classify_balanced_scenario_is_neutral():
    scenario = RiskScenario(
        "s",
        Triangular(5_000.0, 9_000.0, 20_000.0),
        "both",
        frequency_current=PoissonRate(1.3),
        frequency_ai=PoissonRate(1.3),
    )
    assert classify_scenario(scenario) == "neutral"


def test_register_classifications_derived():
    register = RiskRegister(
        (
            scenario_with_ales("worse", 1_000.0, 2_000.0),
            scenario_with_ales("better", 2_000.0, 1_000.0),
        )
    )
    rows = delta_table(register)
    assert [row[0] for row in rows] == ["worse", "better"]
    assert [row[1] for row in rows] == ["introduction", "reduction"]
    assert rows[0][4] == -1_000.0


# -- penalties ----------------------------------------------------------------


def test_penalty_tier_constants():
    assert PENALTY_TIERS["prohibited_practice"].fixed_cap == 35e6
    assert PENALTY_TIERS["prohibited_practice"].turnover_rate == 0.07
    assert PENALTY_TIERS["high_risk_violation"].fixed_cap == 15e6
    assert PENALTY_TIERS["high_risk_violation"].turnover_rate == 0.03
    assert PENALTY_TIERS["information_failure"].fixed_cap == 7.5e6
    assert PENALTY_TIERS["information_failure"].turnover_rate == 0.01


def test_penalty_magnitude_examples():
    prohibited = PENALTY_TIERS["prohibited_practice"]
    information = PENALTY_TIERS["information_failure"]
    assert penalty_magnitude(prohibited, 1e9) == 7e7
    assert penalty_magnitude(prohibited, 1e8) == 3.5e7
    assert penalty_magnitude(information, 0.0) == 7.5e6


def test_penalty_magnitude_floor_property():
    for tier in PENALTY_TIERS.values():
        for turnover in (0.0, 1e6, 1e8, 1e9, 5e10):
            assert penalty_magnitude(tier, turnover) >= tier.fixed_cap
    with pytest.raises(ValueError):
        penalty_magnitude(PENALTY_TIERS["prohibited_practice"], -1.0)


def test_penalty_scenario_analytic_ales():
    prohibited = PENALTY_TIERS["prohibited_practice"]
    full = penalty_scenario("p", prohibited, 1e9, Point(1.0), PointRate(0.02))
    assert full.applies_to == "ai_only"
    assert ale_analytic(full, "ai") == pytest.approx(1.4e6, rel=1e-12)
    assert ale_analytic(full, "current") == 0.0

    nothing = penalty_scenario("p0", prohibited, 1e9, Point(0.0), PoissonRate(3.0))
    assert ale_analytic(nothing, "ai") == 0.0

    half = penalty_scenario("ph", prohibited, 1e8, Uniform(0.0, 1.0), PointRate(0.1))
    assert ale_analytic(half, "ai") == pytest.approx(1.75e6, rel=1e-12)


def test_penalty_scenario_rejects_unbounded_severity():
    tier = PENALTY_TIERS["high_risk_violation"]
    with pytest.raises(ValueError):
        penalty_scenario("p", tier, 1e9, Uniform(-0.1, 0.5), PointRate(0.1))
    with pytest.raises(ValueError):
        penalty_scenario("p", tier, 1e9, Uniform(0.0, 1.2), PointRate(0.1))
    with pytest.raises(ValueError):
        penalty_scenario("p", tier, 1e9, Lognormal(0.1, 0.5), PointRate(0.1))


# -- validation ---------------------------------------------------------------


def test_validate_scenario_missing_frequency():
    scenario = RiskScenario("s", Point(1_000.0), "both", frequency_current=PointRate(1.0))
    problems = validate_scenario(scenario)
    assert any("missing frequency" in p and "ai" in p for p in problems)


def test_validate_scenario_negative_severity_support():
    scenario = RiskScenario(
        "s", Uniform(-10.0, 10.0), "ai_only", frequency_ai=PointRate(1.0)
    )
    assert any("nonnegative" in p for p in validate_scenario(scenario))


def test_validate_register_duplicate_ids():
    register = RiskRegister(
        (
            scenario_with_ales("dup", 1.0, 0.0),
            scenario_with_ales("dup", 2.0, 0.0),
        )
    )
    assert any("duplicate" in p for p in validate_register(register))


def test_scenario_delta_analytic_consistency():
    scenario = scenario_with_ales("s", 9.0, 4.0)
    assert scenario_delta_analytic(scenario) == 5.0
