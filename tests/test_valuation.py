import math

import pytest

from airoi.engine import IterationOutcome
from airoi.valuation import (
    DiscountSpec,
    ValuationOutcome,
    build_report,
    cashflow_sign_changes,
    evaluate_outcome,
    irr,
    npv,
    payback_period,
    risk_adjusted_net,
)


def make_outcome(
    *,
    gross=0.0,
    reduction=0.0,
    increase=0.0,
    tco_total=0.0,
    delta=0.0,
    flows=(0.0,),
    cash_flows=None,
    tco_per_year=None,
) -> IterationOutcome:
    flows = tuple(flows)
    return IterationOutcome(
        index=0,
        gross_benefits=gross,
        risk_reduction=reduction,
        risk_increase=increase,
        tco_total=tco_total,
        risk_delta=delta,
        cash_flows=flows,
        cash_basis_flows=tuple(cash_flows) if cash_flows is not None else flows,
        tco_per_year=tuple(tco_per_year) if tco_per_year is not None else (0.0,) * len(flows),
        benefit_values={},
        cost_values={},
        scenario_losses={},
    )


# -- headline identity -----------------------------------------------------------


def test_risk_adjusted_net_examples():
    assert risk_adjusted_net(0.0, 0.0, 0.0, 0.0) == 0.0
    assert risk_adjusted_net(500_000.0, 40_000.0, 30_000.0, 450_000.0) == 60_000.0
    assert risk_adjusted_net(100.0, 0.0, 0.0, 100.0) == 0.0


def test_risk_adjusted_net_requires_nonnegative_split():
    with pytest.raises(ValueError):
        risk_adjusted_net(0.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        risk_adjusted_net(0.0, 0.0, -1.0, 0.0)


# -- NPV ---------------------------------------------------------------------------


def test_npv_constructed_root():
    assert npv([-100.0, 110.0], 0.10) == pytest.approx(0.0, abs=1e-12)


def test_npv_zero_rate_is_plain_sum():
    flows = [-100.0, 30.0, 40.0, 50.0]
    assert npv(flows, 0.0) == math.fsum(flows)


def test_npv_two_year_annuity():
    # Oracle: direct arithmetic, 60/1.05 + 60/1.1025 - 100.
    oracle = 60.0 / 1.05 + 60.0 / 1.1025 - 100.0
    assert npv([-100.0, 60.0, 60.0], 0.05) == pytest.approx(oracle, rel=1e-12)
    assert npv([-100.0, 60.0, 60.0], 0.05) == pytest.approx(11.565, abs=1e-3)


def test_npv_rejects_bad_inputs():
    with pytest.raises(ValueError):
        npv([], 0.1)
    with pytest.raises(ValueError):
        npv([1.0], -1.0)


def test_npv_strictly_decreasing_for_conventional_flows():
    flows = [-1000.0, 300.0, 400.0, 500.0]
    rates = [-0.5, -0.2, 0.0, 0.1, 0.5, 1.0, 4.0]
    values = [npv(flows, r) for r in rates]
    assert all(a > b for a, b in zip(values, values[1:]))


# -- IRR ---------------------------------------------------------------------------


def test_irr_one_year_root():
    assert irr([-100.0, 110.0]) == pytest.approx(0.10, abs=1e-9)


def test_irr_two_year_root():
    assert irr([-100.0, 0.0, 121.0]) == pytest.approx(0.10, abs=1e-9)


def test_irr_no_sign_change_is_undefined():
    assert irr([100.0, 110.0]) is None
    assert irr([-100.0, -10.0]) is None
    assert irr([0.0, 0.0, 0.0]) is None


def test_irr_residual_meets_tolerance():
    flows = [-1000.0, 300.0, 420.0, 680.0]
    root = irr(flows)
    assert root is not None
    assert abs(npv(flows, root)) <= max(1e-6, 1e-9 * math.fsum(abs(f) for f in flows))


def test_irr_scaling_invariance():
    flows = [-100.0, 35.0, 45.0, 55.0]
    base = irr(flows)
    scaled = irr([f * 1000.0 for f in flows])
    assert scaled == pytest.approx(base, abs=1e-9)


def test_irr_smallest_root_for_multiple_sign_changes():
    # Two sign alternations: roots may be plural; the smaller one is returned.
    flows = [-100.0, 230.0, -132.0]  # roots at 0.1 and 0.2
    root = irr(flows)
    assert root == pytest.approx(0.10, abs=1e-6)
    assert cashflow_sign_changes(flows) == 2


def test_irr_defined_on_every_horizon():
    # Past about 108 years the discount factor at the bracket's lower end
    # underflows to zero; the bisection must still find the root.
    for horizon in range(1, 201):
        flows = [-100.0] + [1.0] * (horizon - 1)
        rate = irr(flows)
        if horizon == 1:
            assert rate is None
            continue
        assert -0.999 < rate < 10.0
        assert abs(npv(flows, rate)) <= max(1e-6, 1e-9 * math.fsum(abs(f) for f in flows))
        assert irr([-cf for cf in flows]) == rate


def test_irr_ignores_nan_npv_at_bracket_end():
    # From 106 years on, terms of both signs overflow at -0.999 and their
    # sum is inf - inf = nan; the root must not move to the bracket's end.
    root = irr([-1.0] * 98 + [1.0] * 2)
    assert abs(root - (math.sqrt(0.5) - 1.0)) <= 1e-9
    for horizon in range(100, 121):
        assert irr([-1.0] * (horizon - 2) + [1.0] * 2) == pytest.approx(root, abs=1e-12)


def test_irr_root_outside_bracket_is_undefined():
    # Root above 10.0 (1100% return) falls outside the search bracket.
    assert irr([-1.0, 12.5]) is None


# -- payback -----------------------------------------------------------------------


def test_payback_exact_year_boundary():
    assert payback_period([-100.0, 50.0, 50.0]) == 2.0


def test_payback_interpolates_within_year():
    assert payback_period([-100.0, 40.0, 40.0, 40.0]) == 2.5


def test_payback_never_recovered():
    assert payback_period([-100.0, 10.0, 10.0]) is None


def test_payback_zero_when_no_outlay():
    assert payback_period([5.0, 1.0]) == 0.0


def test_payback_invariant_to_trailing_zero_years():
    flows = [-100.0, 60.0, 60.0]
    assert payback_period(flows + [0.0, 0.0]) == payback_period(flows)


def test_payback_scaling_invariance():
    flows = [-128.0, 48.0, 48.0, 64.0]
    assert payback_period([f * 7.0 for f in flows]) == payback_period(flows)


# -- per-iteration valuation --------------------------------------------------------


def test_evaluate_outcome_composes_identity():
    outcome = make_outcome(
        gross=500_000.0,
        reduction=40_000.0,
        increase=30_000.0,
        tco_total=450_000.0,
        delta=2_000.0,
        flows=(-100_000.0, 90_000.0, 90_000.0),
        tco_per_year=(100_000.0, 50_000.0, 50_000.0),
    )
    valuation = evaluate_outcome(outcome, DiscountSpec(0.05))
    assert valuation.net_risk_adjusted_benefit == 60_000.0
    expected_dtco = npv(outcome.tco_per_year, 0.05)
    assert valuation.roi_ratio == pytest.approx(60_000.0 / expected_dtco, rel=1e-12)
    assert valuation.npv == pytest.approx(npv(outcome.cash_flows, 0.05), rel=1e-12)
    assert valuation.risk_delta == 2_000.0


def test_evaluate_outcome_roi_undefined_for_zero_tco():
    outcome = make_outcome(gross=10.0, flows=(10.0,), tco_per_year=(0.0,))
    valuation = evaluate_outcome(outcome, DiscountSpec(0.0))
    assert valuation.roi_ratio is None


def test_evaluate_outcome_flags_multiple_sign_changes():
    outcome = make_outcome(flows=(-10.0, 30.0, -15.0), cash_flows=(-10.0, 30.0, -15.0))
    valuation = evaluate_outcome(outcome, DiscountSpec(0.0))
    assert valuation.irr_multiple_roots_possible


def test_discount_spec_rejects_negative_rate():
    with pytest.raises(ValueError):
        DiscountSpec(-0.01)


# -- report ------------------------------------------------------------------------


def outcome_row(net, roi, npv_value, irr_value, payback, delta) -> ValuationOutcome:
    return ValuationOutcome(
        net_risk_adjusted_benefit=net,
        roi_ratio=roi,
        npv=npv_value,
        irr=irr_value,
        payback_years=payback,
        risk_delta=delta,
    )


def test_build_report_single_outcome_collapses_percentiles():
    report = build_report([outcome_row(10.0, 0.1, 5.0, 0.08, 2.0, 1.0)])
    summary = report.metrics["net_risk_adjusted_benefit"]
    assert summary.p10 == summary.p50 == summary.p90 == 10.0
    assert summary.standard_error == 0.0
    assert report.exclusions == {}


def test_build_report_excludes_undefined_metrics():
    rows = [outcome_row(float(i), None, 1.0, None, None, 0.0) for i in range(5)]
    report = build_report(rows)
    assert "irr" not in report.metrics
    assert "payback_years" not in report.metrics
    assert "roi_ratio" not in report.metrics
    assert report.exclusions["irr"] == 5
    assert report.exclusions["payback_years"] == 5
    assert "npv" in report.metrics


def test_build_report_partial_exclusions_counted():
    rows = [
        outcome_row(1.0, 0.1, 1.0, 0.05, 2.0, 0.0),
        outcome_row(2.0, 0.2, 2.0, None, None, 0.0),
        outcome_row(3.0, 0.3, 3.0, 0.07, 3.0, 0.0),
    ]
    report = build_report(rows)
    assert report.exclusions == {"irr": 1, "payback_years": 1}
    assert report.metrics["irr"].n == 2


def test_build_report_rejects_empty():
    with pytest.raises(ValueError):
        build_report([])
