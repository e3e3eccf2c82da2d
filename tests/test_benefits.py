import math
from statistics import NormalDist

import numpy as np
import pytest

from airoi.benefits import (
    DEFAULT_PROJECTION_MARGINS,
    AbTestResult,
    BenefitItem,
    apply_projection_margin,
    benefit_schedule,
    item_value_at,
    uplift_estimate,
    validate_item,
)
from airoi.distributions import Point, Triangular, mean


def flat_item(item_id: str, value: float, start: int, end: int, **kwargs) -> BenefitItem:
    return BenefitItem(
        id=item_id,
        kind=kwargs.pop("kind", "productivity"),
        annual_value=Point(value),
        start_year=start,
        end_year=end,
        **kwargs,
    )


# -- A/B uplift -------------------------------------------------------------------


def test_uplift_equal_arms_is_exactly_zero():
    ab = AbTestResult(1000, 100, 1000, 100, 10.0, 100_000.0)
    estimate = uplift_estimate(ab)
    assert estimate.annual_value == 0.0
    assert estimate.lower < 0.0 < estimate.upper


def test_uplift_point_estimate():
    ab = AbTestResult(1000, 120, 1000, 100, 10.0, 100_000.0)
    estimate = uplift_estimate(ab)
    assert estimate.annual_value == pytest.approx(20_000.0, rel=1e-12)
    assert estimate.annual_value > 0.0


def test_uplift_interval_matches_normal_approximation():
    ab = AbTestResult(1000, 120, 1000, 100, 10.0, 100_000.0)
    estimate = uplift_estimate(ab, confidence=0.95)
    z = NormalDist().inv_cdf(0.975)
    assert z == pytest.approx(1.959964, abs=1e-6)
    se = math.sqrt(0.12 * 0.88 / 1000 + 0.10 * 0.90 / 1000)
    half = z * se * 10.0 * 100_000.0
    assert estimate.upper - estimate.annual_value == pytest.approx(half, rel=1e-12)
    assert estimate.annual_value - estimate.lower == pytest.approx(half, rel=1e-12)


def test_uplift_interval_against_bootstrap_oracle():
    # Brute-force oracle: resample both arms, take percentile bounds of the
    # incremental value. The normal interval should land close to it.
    ab = AbTestResult(1000, 120, 1000, 100, 10.0, 100_000.0)
    estimate = uplift_estimate(ab, confidence=0.95)
    gen = np.random.Generator(np.random.Philox(key=2718))
    n_boot = 20_000
    treatment = gen.binomial(ab.treatment_trials, 0.12, size=n_boot) / ab.treatment_trials
    control = gen.binomial(ab.control_trials, 0.10, size=n_boot) / ab.control_trials
    scale = ab.annual_volume * ab.value_per_success
    values = (treatment - control) * scale
    boot_lower, boot_upper = np.percentile(values, [2.5, 97.5])
    width = estimate.upper - estimate.lower
    assert estimate.lower == pytest.approx(boot_lower, abs=0.06 * width)
    assert estimate.upper == pytest.approx(boot_upper, abs=0.06 * width)


def test_uplift_rejects_empty_arms_and_bad_counts():
    with pytest.raises(ValueError):
        uplift_estimate(AbTestResult(0, 0, 1000, 100, 10.0, 1.0))
    with pytest.raises(ValueError):
        uplift_estimate(AbTestResult(1000, 100, 0, 0, 10.0, 1.0))
    with pytest.raises(ValueError):
        uplift_estimate(AbTestResult(1000, 2000, 1000, 100, 10.0, 1.0))


def test_uplift_negative_lower_bound_preserved():
    ab = AbTestResult(500, 52, 500, 50, 10.0, 10_000.0)
    estimate = uplift_estimate(ab)
    assert estimate.lower < 0.0


# -- projection margins ----------------------------------------------------------


def test_margin_examples():
    assert apply_projection_margin(100_000.0, 0.25) == Triangular(75_000.0, 100_000.0, 125_000.0)
    assert apply_projection_margin(100_000.0, 0.0) == Point(100_000.0)
    assert apply_projection_margin(100_000.0, 0.30) == Triangular(70_000.0, 100_000.0, 130_000.0)


def test_margin_mean_preservation_on_currency_magnitudes():
    for point in (100_000.0, 250_000.0, 80_000.0, -50_000.0, 0.0, 1_234_500.0):
        for margin in (0.05, 0.10, 0.20, 0.25, 0.30):
            assert mean(apply_projection_margin(point, margin)) == point


def test_margin_mean_preservation_within_ulp_everywhere():
    gen = np.random.Generator(np.random.Philox(key=31))
    for _ in range(2000):
        point = float(gen.uniform(-1e7, 1e7))
        margin = float(gen.uniform(0.01, 0.99))
        recovered = mean(apply_projection_margin(point, margin))
        assert recovered == pytest.approx(point, rel=3e-16, abs=1e-12)


def test_margin_orders_support_for_negative_points():
    band = apply_projection_margin(-100_000.0, 0.25)
    assert band == Triangular(-125_000.0, -100_000.0, -75_000.0)


def test_margin_domain_and_defaults():
    with pytest.raises(ValueError):
        apply_projection_margin(10.0, 1.0)
    with pytest.raises(ValueError):
        apply_projection_margin(10.0, -0.1)
    assert DEFAULT_PROJECTION_MARGINS == {"early": 0.25, "mature": 0.10}


# -- schedules ---------------------------------------------------------------------


def test_schedule_flat_item():
    items = [flat_item("b", 100_000.0, 0, 2)]
    assert benefit_schedule(items, 3) == [100_000.0, 100_000.0, 100_000.0]


def test_schedule_attribution_scales():
    items = [flat_item("b", 100_000.0, 0, 2, attribution_factor=0.5)]
    assert benefit_schedule(items, 3) == [50_000.0, 50_000.0, 50_000.0]


def test_schedule_erosion_decays_geometrically():
    items = [flat_item("b", 100_000.0, 0, 2, erosion_rate=0.20)]
    schedule = benefit_schedule(items, 3)
    assert schedule[0] == 100_000.0
    assert schedule[1] == pytest.approx(80_000.0, rel=1e-12)
    assert schedule[2] == pytest.approx(64_000.0, rel=1e-12)


def test_schedule_respects_year_window():
    items = [flat_item("b", 10_000.0, 1, 2)]
    assert benefit_schedule(items, 4) == [0.0, 10_000.0, 10_000.0, 0.0]


def test_schedule_uses_supplied_values():
    items = [flat_item("b", 10_000.0, 0, 1, attribution_factor=0.5)]
    assert benefit_schedule(items, 2, values={"b": 30_000.0}) == [15_000.0, 15_000.0]


def test_schedule_monotone_in_attribution():
    low = flat_item("b", 75_000.0, 0, 3, attribution_factor=0.3, erosion_rate=0.1)
    high = flat_item("b", 75_000.0, 0, 3, attribution_factor=0.9, erosion_rate=0.1)
    low_row = benefit_schedule([low], 4)
    high_row = benefit_schedule([high], 4)
    assert all(h >= l for h, l in zip(high_row, low_row))


def test_schedule_erosion_keeps_values_nonnegative_and_nonincreasing():
    item = flat_item("b", 50_000.0, 1, 5, erosion_rate=0.35)
    row = benefit_schedule([item], 6)
    active = row[1:]
    assert all(v >= 0.0 for v in active)
    assert all(a >= b for a, b in zip(active, active[1:]))


def test_item_value_outside_window_is_zero():
    item = flat_item("b", 10_000.0, 2, 3)
    assert item_value_at(item, 1, 10_000.0) == 0.0
    assert item_value_at(item, 4, 10_000.0) == 0.0


# -- validation ---------------------------------------------------------------------


def test_validate_item_catches_field_errors():
    bad = BenefitItem(
        id="",
        kind="windfall",
        annual_value=Point(1.0),
        start_year=3,
        end_year=1,
        attribution_factor=1.5,
        phase="late",
        erosion_rate=1.0,
    )
    problems = validate_item(bad, horizon=2)
    joined = "\n".join(problems)
    assert "kind" in joined
    assert "attribution_factor" in joined
    assert "erosion_rate" in joined
    assert "phase" in joined
    assert "start_year" in joined


def test_validate_item_horizon_bound():
    item = flat_item("b", 1.0, 0, 5)
    assert any("horizon" in p for p in validate_item(item, horizon=3))
    assert validate_item(item, horizon=6) == []
