import math

import numpy as np
import pytest

from airoi.distributions import (
    Lognormal,
    Pert,
    Point,
    PointRate,
    PoissonRate,
    RngStream,
    SubstreamSampler,
    Triangular,
    Uniform,
    frequency_mean,
    is_degenerate,
    make_batch_sampler,
    mean,
    percentile,
    sample,
    sample_event_count,
    scaled,
    stream_words,
    support,
    validate,
    validate_frequency,
)

ALL_VARIANTS = [
    Point(5.0),
    Uniform(2.0, 8.0),
    Triangular(1.0, 2.0, 3.0),
    Pert(1.0, 2.0, 3.0),
    Lognormal(20_000.0, 0.5),
]


# -- sampling -----------------------------------------------------------------


def test_point_samples_exact_value():
    rng = RngStream(1, "x", 0)
    assert sample(Point(5.0), rng) == 5.0


def test_zero_width_uniform_samples_its_bound():
    rng = RngStream(1, "x", 0)
    assert sample(Uniform(2.0, 2.0), rng) == 2.0


def test_degenerate_variants_consume_no_randomness():
    rng = RngStream(3, "x", 0)
    before = rng.generator.bit_generator.state["state"]["counter"].copy()
    assert sample(Triangular(4.0, 4.0, 4.0), rng) == 4.0
    assert sample(Pert(7.0, 7.0, 7.0), rng) == 7.0
    assert sample(Lognormal(3.0, 0.0), rng) == 3.0
    after = rng.generator.bit_generator.state["state"]["counter"]
    assert list(before) == list(after)


@pytest.mark.parametrize("quantity", ALL_VARIANTS, ids=lambda q: type(q).__name__)
def test_sample_mean_matches_analytic_mean(quantity):
    # Monte Carlo consistency: N = 1e5 sample mean within 4 standard errors.
    n = 100_000
    gen = RngStream(2024, f"mc:{type(quantity).__name__}", 0).generator
    draws = [sample(quantity, gen) for _ in range(n)]
    sample_mean = math.fsum(draws) / n
    se = np.std(draws, ddof=1) / math.sqrt(n)
    if se == 0.0:
        assert sample_mean == mean(quantity)
    else:
        assert abs(sample_mean - mean(quantity)) <= 4 * se


def test_samples_stay_inside_support():
    for quantity in ALL_VARIANTS:
        lo, hi = support(quantity)
        gen = RngStream(5, "support", 0).generator
        for _ in range(2000):
            value = sample(quantity, gen)
            assert lo <= value <= hi


# -- determinism --------------------------------------------------------------


def test_identical_triples_give_identical_sequences():
    a = RngStream(42, "risk:fraud:current", 7)
    b = RngStream(42, "risk:fraud:current", 7)
    quantity = Lognormal(100.0, 0.8)
    assert [sample(quantity, a) for _ in range(10)] == [
        sample(quantity, b) for _ in range(10)
    ]


def test_distinct_keys_and_iterations_differ():
    quantity = Uniform(0.0, 1.0)
    base = sample(quantity, RngStream(42, "a", 0))
    assert sample(quantity, RngStream(42, "b", 0)) != base
    assert sample(quantity, RngStream(42, "a", 1)) != base
    assert sample(quantity, RngStream(43, "a", 0)) != base


def test_stream_isolation_under_added_keys():
    # Draws for stream "a" are unchanged when another stream is interleaved.
    quantity = Triangular(0.0, 1.0, 2.0)
    solo = [sample(quantity, RngStream(9, "a", i)) for i in range(20)]
    interleaved = []
    for i in range(20):
        sample(quantity, RngStream(9, "b", i))
        interleaved.append(sample(quantity, RngStream(9, "a", i)))
    assert solo == interleaved


def test_substream_sampler_matches_rngstream_bits():
    sampler = SubstreamSampler()
    words = stream_words(42, "cost:opex:compute")
    quantity = Pert(10.0, 20.0, 40.0)
    for iteration in (0, 1, 17, 9999, 2**64 + 3):
        via_sampler = sample(quantity, sampler.at(words, iteration))
        via_stream = sample(quantity, RngStream(42, "cost:opex:compute", iteration))
        assert via_sampler == via_stream


def test_batch_sampler_consumes_stream_like_sequential_draws():
    quantity = Lognormal(50.0, 0.4)
    scalar_gen = RngStream(3, "sev", 5).generator
    batch_gen = RngStream(3, "sev", 5).generator
    sequential = [sample(quantity, scalar_gen) for _ in range(9)]
    total = make_batch_sampler(quantity)(batch_gen, 9)
    assert total == pytest.approx(math.fsum(sequential), rel=1e-12)
    # Both generators must have advanced identically.
    assert scalar_gen.random() == batch_gen.random()


# -- analytic moments ---------------------------------------------------------


def test_mean_formulas():
    assert mean(Point(7.5)) == 7.5
    assert mean(Uniform(2.0, 8.0)) == 5.0
    assert mean(Triangular(1.0, 2.0, 3.0)) == 2.0
    assert mean(Pert(1.0, 2.0, 3.0)) == 2.0
    assert mean(Lognormal(1.0, 0.0)) == 1.0
    assert mean(Lognormal(100.0, 0.5)) == pytest.approx(100.0 * math.exp(0.125), rel=1e-15)
    assert mean(Pert(0.0, 1.0, 8.0)) == 2.0  # (0 + 4 + 8) / 6


def test_support_bounds():
    assert support(Point(3.0)) == (3.0, 3.0)
    assert support(Uniform(1.0, 2.0)) == (1.0, 2.0)
    assert support(Lognormal(5.0, 1.0)) == (0.0, math.inf)


def test_scaled_preserves_family_and_scales_mean():
    for quantity in ALL_VARIANTS:
        doubled = scaled(quantity, 2.0)
        assert type(doubled) is type(quantity)
        assert mean(doubled) == pytest.approx(2.0 * mean(quantity), rel=1e-15)
    assert scaled(Uniform(1.0, 2.0), 0.0) == Point(0.0)
    with pytest.raises(ValueError):
        scaled(Point(1.0), -1.0)


def test_is_degenerate():
    assert is_degenerate(Point(1.0))
    assert is_degenerate(Uniform(2.0, 2.0))
    assert is_degenerate(Lognormal(4.0, 0.0))
    assert not is_degenerate(Triangular(1.0, 2.0, 3.0))


# -- validation ---------------------------------------------------------------


def test_validate_ordering_violation_names_constraint():
    problems = validate(Triangular(3.0, 2.0, 1.0))
    assert len(problems) == 1
    assert "lo <= mode <= hi" in problems[0]


def test_validate_lognormal_median():
    problems = validate(Lognormal(-1.0, 1.0))
    assert any("median > 0" in p for p in problems)
    assert validate(Lognormal(1.0, -0.5))  # negative sigma rejected


def test_validate_clean_point():
    assert validate(Point(100_000.0)) == []


def test_validate_nonnegative_flag():
    assert validate(Uniform(-5.0, 5.0), nonnegative=True)
    assert validate(Uniform(0.0, 5.0), nonnegative=True) == []


def test_validate_rejects_nonfinite_parameters():
    nan = float("nan")
    inf = float("inf")
    for quantity in (
        Point(nan),
        Uniform(0.0, inf),
        Triangular(0.0, nan, 1.0),
        Pert(-inf, 0.0, 1.0),
        Lognormal(1.0, nan),
        Uniform(-1e308, 1e308),
        Triangular(-1e308, 0.0, 1e308),
        Pert(-1e308, 0.0, 1e308),
    ):
        assert any("finite" in p for p in validate(quantity)), quantity
    assert validate(Uniform(-1e307, 1e307)) == []


def test_validate_rejects_a_pert_whose_shape_overflows():
    # 4 (mode - lo) is inf, so every draw would be nan; a degenerate PERT stays valid.
    assert len(validate(Pert(-1e308, 0.0, 1e307))) == 1
    assert validate(Pert(1e307, 1e307, 1e307)) == []


# -- frequency models ---------------------------------------------------------


def test_frequency_means():
    assert frequency_mean(PointRate(2.5)) == 2.5
    assert frequency_mean(PoissonRate(1.5)) == 1.5


def test_validate_frequency_bounds_the_rate():
    for rate in (0.0, 2.5, 1e6):
        assert validate_frequency(PointRate(rate)) == []
        assert validate_frequency(PoissonRate(rate)) == []
    for rate in (-1.0, math.nextafter(1e6, math.inf), 1e9, math.inf, math.nan):
        assert validate_frequency(PointRate(rate))
        assert validate_frequency(PoissonRate(rate))


def test_point_rate_integer_is_exact():
    gen = RngStream(1, "f", 0).generator
    assert all(sample_event_count(PointRate(3.0), gen) == 3 for _ in range(50))
    assert all(sample_event_count(PointRate(0.0), gen) == 0 for _ in range(50))


def test_point_rate_thinning_hits_expected_count():
    # Bernoulli thinning keeps the mean event count equal to the rate.
    n = 50_000
    gen = RngStream(11, "thin", 0).generator
    counts = [sample_event_count(PointRate(2.4), gen) for _ in range(n)]
    observed = math.fsum(counts) / n
    se = np.std(counts, ddof=1) / math.sqrt(n)
    assert abs(observed - 2.4) <= 4 * se
    assert set(counts) == {2, 3}


def test_poisson_rate_mean_and_zero():
    gen = RngStream(12, "poisson", 0).generator
    n = 50_000
    counts = [sample_event_count(PoissonRate(1.5), gen) for _ in range(n)]
    observed = math.fsum(counts) / n
    se = np.std(counts, ddof=1) / math.sqrt(n)
    assert abs(observed - 1.5) <= 4 * se
    assert sample_event_count(PoissonRate(0.0), gen) == 0


# -- percentiles --------------------------------------------------------------


def test_percentile_examples():
    assert percentile([7, 7, 7], 0.5) == 7.0
    assert percentile([10, 20, 30, 40], 0.5) == 25.0  # rank 1.5
    assert percentile([10, 20, 30, 40], 0.0) == 10.0
    assert percentile([10, 20, 30, 40], 1.0) == 40.0


def test_percentile_matches_numpy_oracle():
    gen = np.random.Generator(np.random.Philox(key=77))
    data = list(gen.normal(0.0, 10.0, size=501))
    for p in (0.0, 0.1, 0.25, 0.5, 0.845, 0.9, 1.0):
        assert percentile(data, p) == pytest.approx(
            float(np.percentile(data, p * 100)), rel=1e-12, abs=1e-12
        )


def test_percentile_monotonic_in_p():
    gen = np.random.Generator(np.random.Philox(key=78))
    data = list(gen.exponential(5.0, size=200))
    grid = [i / 50 for i in range(51)]
    values = [percentile(data, p) for p in grid]
    assert values == sorted(values)


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)
