import math

import pytest

from airoi.costs import (
    CapexItem,
    CostRules,
    OpexItem,
    amortize_capex,
    maintenance_opex,
    reserve_charge,
    reserve_requirement,
    tco,
    tco_pair,
    validate_capex,
    validate_cost_rules,
    validate_opex,
)
from airoi.distributions import Point, RngStream, Triangular, mean, sample

NO_RULES = CostRules(maintenance_rate=0.0, reserve_rate=0.0, talent_premium_rate=0.0)


# -- amortization --------------------------------------------------------------


def test_amortize_straight_line():
    item = CapexItem("dev", Point(300_000.0), useful_life_years=3)
    assert amortize_capex(item, 5) == [100_000.0, 100_000.0, 100_000.0, 0.0, 0.0]


def test_amortize_truncated_at_horizon():
    item = CapexItem("dev", Point(300_000.0), useful_life_years=3)
    assert amortize_capex(item, 2) == [100_000.0, 100_000.0]


def test_amortize_single_year_life():
    item = CapexItem("dev", Point(120_000.0), useful_life_years=1, incurred_year=2)
    assert amortize_capex(item, 4) == [0.0, 0.0, 120_000.0, 0.0]


def test_amortize_beyond_horizon_contributes_nothing():
    item = CapexItem("late", Point(50_000.0), useful_life_years=2, incurred_year=6)
    assert amortize_capex(item, 4) == [0.0] * 4


def test_amortize_cash_basis_books_incurred_year():
    item = CapexItem("dev", Point(300_000.0), useful_life_years=3, incurred_year=1)
    assert amortize_capex(item, 4, cash_basis=True) == [0.0, 300_000.0, 0.0, 0.0]


def test_amortize_conservation_exact_when_share_is_representable():
    item = CapexItem("dev", Point(300_000.0), useful_life_years=3)
    assert sum(amortize_capex(item, 5)) == 300_000.0


def test_amortize_conservation_property():
    for amount, life in [(123_456.78, 7), (99_999.99, 3), (1e6, 6), (17.0, 13)]:
        item = CapexItem("x", Point(amount), useful_life_years=life)
        covered = math.fsum(amortize_capex(item, life + 2))
        assert covered == pytest.approx(amount, rel=1e-9)
        truncated = math.fsum(amortize_capex(item, life - 1))
        assert truncated == pytest.approx(amount * (life - 1) / life, rel=1e-9)


# -- maintenance / reserves / premium ------------------------------------------


def test_maintenance_schedule_example():
    assert maintenance_opex(1_000_000.0, 0.20, 4) == [0.0, 200_000.0, 200_000.0, 200_000.0]


def test_maintenance_zero_rate():
    assert maintenance_opex(1_000_000.0, 0.0, 3) == [0.0, 0.0, 0.0]


def test_out_of_range_maintenance_warns_but_computes_normally():
    rules = CostRules(maintenance_rate=0.30)
    errors, warnings = validate_cost_rules(rules)
    assert errors == []
    assert any("maintenance_rate" in w and "0.15-0.25" in w for w in warnings)
    assert maintenance_opex(1_000_000.0, 0.30, 4) == [0.0, 300_000.0, 300_000.0, 300_000.0]


def test_reserve_requirement_examples():
    assert reserve_requirement(500_000.0, 0.10) == 50_000.0
    assert reserve_requirement(0.0, 0.15) == 0.0


def test_reserve_carrying_cost_treatment():
    rules = CostRules(reserve_treatment="carrying_cost", reserve_carrying_rate=0.05)
    assert reserve_charge(50_000.0, rules) == 2_500.0
    assert reserve_charge(50_000.0, CostRules(reserve_treatment="cash_cost")) == 50_000.0


# -- full schedule ---------------------------------------------------------------


def test_tco_no_items_is_zero():
    schedule = tco([], [], NO_RULES, 4)
    assert schedule.per_year == (0.0, 0.0, 0.0, 0.0)
    assert schedule.total == 0.0


def test_tco_example_schedule():
    schedule = tco(
        [CapexItem("c", Point(300_000.0), useful_life_years=3)],
        [OpexItem("o", Point(50_000.0), 0, 2)],
        NO_RULES,
        3,
    )
    assert schedule.per_year == (150_000.0, 150_000.0, 150_000.0)
    assert schedule.total == 450_000.0


def test_tco_point_inputs_sampled_equals_analytic():
    capex = [CapexItem("c", Point(200_000.0), 2)]
    opex = [OpexItem("o", Point(40_000.0), 0, 3)]
    rules = CostRules(maintenance_rate=0.2, reserve_rate=0.1)
    analytic = tco(capex, opex, rules, 4)
    sampled = tco(
        capex, opex, rules, 4,
        amounts={"c": 200_000.0, "o": 40_000.0},
    )
    assert analytic == sampled


def test_tco_component_rows_sum_to_per_year():
    rules = CostRules(maintenance_rate=0.2, reserve_rate=0.12, talent_premium_rate=0.35)
    schedule = tco(
        [CapexItem("c", Point(500_000.0), 4)],
        [
            OpexItem("o", Triangular(40_000.0, 50_000.0, 75_000.0), 0, 4),
            OpexItem("ml", Point(100_000.0), 0, 4, category="personnel", specialist=True),
        ],
        rules,
        5,
    )
    for year in range(5):
        assert schedule.per_year[year] == pytest.approx(
            schedule.capex[year]
            + schedule.opex[year]
            + schedule.maintenance[year]
            + schedule.reserve[year],
            rel=1e-12,
        )
    # premium applied: opex rows carry 135k for the specialist
    assert schedule.opex[0] == pytest.approx(mean(Triangular(40_000.0, 50_000.0, 75_000.0)) + 135_000.0)


def test_tco_linearity_in_item_sets():
    rules = CostRules(maintenance_rate=0.18, reserve_rate=0.11)
    capex_a = [CapexItem("a", Point(100_000.0), 2)]
    capex_b = [CapexItem("b", Point(250_000.0), 5, incurred_year=1)]
    opex_a = [OpexItem("oa", Point(30_000.0), 0, 4)]
    opex_b = [OpexItem("ob", Point(45_000.0), 2, 4)]
    combined = tco(capex_a + capex_b, opex_a + opex_b, rules, 5)
    only_a = tco(capex_a, opex_a, rules, 5)
    only_b = tco(capex_b, opex_b, rules, 5)
    for year in range(5):
        assert combined.per_year[year] == pytest.approx(
            only_a.per_year[year] + only_b.per_year[year], rel=1e-12
        )


def test_tco_pair_matches_individual_calls_exactly():
    capex = [CapexItem("c", Triangular(90_000.0, 100_000.0, 140_000.0), 3)]
    opex = [OpexItem("o", Point(20_000.0), 0, 3)]
    rules = CostRules(maintenance_rate=0.2, reserve_rate=0.1)
    amounts = {"c": 111_111.11, "o": 20_000.0}
    amortized, cash = tco_pair(capex, opex, rules, 4, amounts=amounts)
    assert amortized == tco(capex, opex, rules, 4, amounts=amounts)
    assert cash == tco_pair(capex, opex, rules, 4, amounts=amounts)[1]


def test_analytic_tco_matches_mean_of_simulated():
    capex = [CapexItem("c", Triangular(80_000.0, 100_000.0, 130_000.0), 2)]
    opex = [OpexItem("o", Triangular(30_000.0, 40_000.0, 56_000.0), 0, 2)]
    rules = CostRules(maintenance_rate=0.2, reserve_rate=0.1)
    analytic_total = tco(capex, opex, rules, 3).total
    n = 100_000
    capex_gen = RngStream(17, "cost:capex:c", 0).generator
    opex_gen = RngStream(17, "cost:opex:o", 0).generator
    totals = []
    for _ in range(n):
        totals.append(
            tco(
                capex, opex, rules, 3,
                amounts={
                    "c": sample(capex[0].amount, capex_gen),
                    "o": sample(opex[0].annual_amount, opex_gen),
                },
            ).total
        )
    observed = math.fsum(totals) / n
    variance = math.fsum((t - observed) ** 2 for t in totals) / (n - 1)
    se = math.sqrt(variance / n)
    assert abs(observed - analytic_total) <= 4 * se


# -- validation ------------------------------------------------------------------


def test_validate_capex_catches_bad_fields():
    bad = CapexItem("", Point(-5.0), useful_life_years=0, incurred_year=-1, category="misc")
    problems = validate_capex(bad)
    assert len(problems) >= 4


def test_validate_opex_year_ordering():
    bad = OpexItem("o", Point(10.0), start_year=3, end_year=1)
    assert any("start_year" in p for p in validate_opex(bad))


def test_validate_rules_rejects_out_of_domain_rates():
    errors, _ = validate_cost_rules(CostRules(maintenance_rate=1.5))
    assert errors
    errors, _ = validate_cost_rules(CostRules(reserve_treatment="prepaid"))
    assert any("reserve_treatment" in e for e in errors)


def test_validate_rules_flags_all_customary_ranges():
    rules = CostRules(maintenance_rate=0.05, reserve_rate=0.3, talent_premium_rate=0.9)
    errors, warnings = validate_cost_rules(rules)
    assert errors == []
    assert len(warnings) == 3
