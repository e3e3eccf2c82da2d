import concurrent.futures
import dataclasses
import math
import multiprocessing
import tracemalloc
from concurrent.futures import Executor, Future

import numpy as np
import pytest

import oracle
from airoi import distributions, engine
from airoi.benefits import BenefitItem, benefit_schedule
from airoi.costs import CapexItem, CostRules, OpexItem, tco_pair
from airoi.distributions import (
    Lognormal,
    Pert,
    Point,
    PointRate,
    PoissonRate,
    RngStream,
    Triangular,
    Uniform,
    mean,
    percentile,
    sample,
    scaled,
)
from airoi.engine import (
    ENGINE_METRICS,
    MAX_ITERATIONS,
    Portfolio,
    SampleSummary,
    SimulationConfig,
    _assemble_columns,
    analytic_evaluate,
    benefit_stream_key,
    capex_stream_key,
    opex_stream_key,
    risk_stream_key,
    run_simulation,
    standard_error,
    summarize,
    validate_portfolio,
    validate_simulation,
)
from airoi.risk import RiskRegister, RiskScenario, ale_analytic, ale_simulate
from airoi.valuation import DiscountSpec, evaluate_outcome


def small_portfolio(extra_scenarios: tuple = (), horizon: int = 4) -> Portfolio:
    scenarios = (
        RiskScenario(
            "fraud",
            Lognormal(25_000.0, 0.5),
            "both",
            frequency_current=PoissonRate(1.4),
            frequency_ai=PoissonRate(0.8),
        ),
    ) + extra_scenarios
    return Portfolio(
        name="small",
        currency="EUR",
        horizon_years=horizon,
        discount_rate=0.06,
        benefits=(
            BenefitItem(
                "hours", "productivity", Triangular(90_000.0, 120_000.0, 150_000.0), 0, horizon - 1,
                attribution_factor=0.8,
            ),
            BenefitItem(
                "errors", "error_reduction", Uniform(30_000.0, 50_000.0), 1, horizon - 1,
                erosion_rate=0.1,
            ),
        ),
        capex=(CapexItem("build", Triangular(180_000.0, 220_000.0, 280_000.0), 3),),
        opex=(
            OpexItem("run", Uniform(35_000.0, 45_000.0), 0, horizon - 1, category="compute"),
            OpexItem("team", Point(60_000.0), 0, horizon - 1, category="personnel", specialist=True),
        ),
        cost_rules=CostRules(maintenance_rate=0.2, reserve_rate=0.1, talent_premium_rate=0.4),
        register=RiskRegister(scenarios),
    )


def all_point_portfolio() -> Portfolio:
    return Portfolio(
        name="point",
        currency="EUR",
        horizon_years=3,
        discount_rate=0.05,
        benefits=(BenefitItem("b", "productivity", Point(120_000.0), 0, 2),),
        capex=(CapexItem("c", Point(90_000.0), 3),),
        opex=(OpexItem("o", Point(30_000.0), 0, 2),),
        cost_rules=CostRules(maintenance_rate=0.2, reserve_rate=0.1),
        register=RiskRegister(
            (
                RiskScenario(
                    "r", Point(10_000.0), "both",
                    frequency_current=PointRate(2.0), frequency_ai=PointRate(1.0),
                ),
            )
        ),
    )


# -- determinism ----------------------------------------------------------------


def test_same_seed_repeats_bit_identically():
    portfolio = small_portfolio()
    cfg = SimulationConfig(iterations=300, master_seed=11)
    first = run_simulation(portfolio, cfg)
    second = run_simulation(portfolio, cfg)
    assert first.outcomes == second.outcomes


def test_worker_count_does_not_change_results(monkeypatch):
    # A stand-in executor runs each submitted block inline, so no process
    # starts; the process is taken to run on three CPUs.  A run asks for 100000
    # workers, uses three and builds one executor, also when early stopping
    # at an unreachable target, which walks the same blocks as a plain run.
    built, chunks = [], []

    class InlineExecutor(Executor):
        def __init__(self, max_workers):
            built.append(max_workers)

        def submit(self, fn, *args):
            chunks.append(args[-2:])
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    portfolio = small_portfolio()
    discount = DiscountSpec(portfolio.discount_rate)
    # 240 iterations are one block, which runs in process and builds no
    # executor.  8199 iterations are nine 1000-iteration steps in three
    # blocks, one per worker; 17500 are eighteen steps in six blocks, two per
    # worker, the last one short.  No block is longer than one kernel pass.
    for iterations, blocks in ((240, 1), (8_199, 3), (17_500, 6)):
        serial = run_simulation(
            portfolio, SimulationConfig(iterations=iterations, master_seed=5, worker_count=1)
        )
        assert built == []
        for target in (None, 1e-12):
            parallel = run_simulation(
                portfolio,
                SimulationConfig(iterations, 5, worker_count=100_000, target_relative_se=target),
            )
            assert (built, len(chunks)) == (([3], blocks) if blocks > 1 else ([], 0))
            assert all(stop - start <= engine._KERNEL_BLOCK for start, stop in chunks)
            built.clear()
            chunks.clear()
            assert serial.outcomes == parallel.outcomes
        assert [o.index for o in parallel.outcomes] == list(range(iterations))
        valuations = [evaluate_outcome(o, discount) for o in serial.outcomes]
        assert [v.risk_delta for v in valuations] == serial.risk_delta.tolist()


def test_early_stopping_walks_the_plain_blocks(monkeypatch):
    # An unreachable target decides after every 1000-iteration step but
    # draws the same kernel-sized blocks as the plain run, and the same rows.
    handed = []
    run_block = engine._run_block

    def recorded(*args):
        handed.append(args[-2:])
        return run_block(*args)

    monkeypatch.setattr(engine, "_run_block", recorded)
    portfolio = small_portfolio()
    runs = []
    for target in (None, 1e-12):
        handed.clear()
        result = run_simulation(portfolio, SimulationConfig(10_000, 4, target_relative_se=target))
        runs.append((list(handed), result.gross_benefits.tolist()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(0, 4_000), (4_000, 8_000), (8_000, 10_000)]


def test_real_worker_pool_matches_the_serial_run(monkeypatch):
    # Two worker processes over four 3000-iteration blocks, once plainly and
    # once stopping at a target met partway through the second block; no
    # worker outlives the run.  The process is taken to run on two CPUs, so
    # the pool starts on any host.
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    portfolio = small_portfolio()
    iterations = 12_000
    serial = run_simulation(portfolio, SimulationConfig(iterations, 3))
    nets = (
        serial.gross_benefits + serial.risk_reduction - serial.risk_increase - serial.tco_total
    ).tolist()
    ratios = [
        oracle.standard_error(nets[:n]) / abs(math.fsum(nets[:n]) / n)
        for n in range(1_000, 5_001, 1_000)
    ]
    assert min(ratios[:4]) > ratios[4]
    for target, rows in ((None, iterations), (ratios[4], 5_000)):
        pooled = run_simulation(
            portfolio, SimulationConfig(iterations, 3, worker_count=2, target_relative_se=target)
        )
        assert multiprocessing.active_children() == []
        assert len(pooled) == rows
        assert pooled.outcomes == serial.outcomes[:rows]


def test_outcomes_reproducible_from_named_streams():
    # Outcome i is derivable in isolation from (seed, stream key, i).
    portfolio = small_portfolio()
    result = run_simulation(portfolio, SimulationConfig(iterations=40, master_seed=21))
    item = portfolio.benefits[0]
    scenario = portfolio.register.scenarios[0]
    for i in (0, 7, 39):
        outcome = result.outcomes[i]
        stream = RngStream(21, benefit_stream_key(item.id), i)
        from airoi.distributions import sample

        assert outcome.benefit_values[item.id] == sample(item.annual_value, stream)
        loss_current = ale_simulate(
            scenario, "current", RngStream(21, risk_stream_key(scenario.id, "current"), i)
        )
        loss_ai = ale_simulate(
            scenario, "ai", RngStream(21, risk_stream_key(scenario.id, "ai"), i)
        )
        assert outcome.scenario_losses[scenario.id] == (loss_current, loss_ai)


def test_stream_stability_when_scenario_added():
    # Appending a scenario must not move any existing item's samples.
    base = small_portfolio()
    extra = RiskScenario(
        "drift", Lognormal(40_000.0, 0.6), "ai_only", frequency_ai=PoissonRate(0.9)
    )
    grown = small_portfolio(extra_scenarios=(extra,))
    cfg = SimulationConfig(iterations=150, master_seed=9)
    before = run_simulation(base, cfg)
    after = run_simulation(grown, cfg)
    for outcome_before, outcome_after in zip(before.outcomes, after.outcomes):
        assert outcome_before.benefit_values == outcome_after.benefit_values
        assert outcome_before.cost_values == outcome_after.cost_values
        assert outcome_before.scenario_losses["fraud"] == outcome_after.scenario_losses["fraud"]
        assert "drift" in outcome_after.scenario_losses


# -- analytic evaluation ----------------------------------------------------------


def test_all_point_model_simulation_is_degenerate():
    portfolio = all_point_portfolio()
    result = run_simulation(portfolio, SimulationConfig(iterations=50, master_seed=3))
    analytic = analytic_evaluate(portfolio)
    reference = result.outcomes[0]
    for outcome in result.outcomes:
        assert outcome.cash_flows == reference.cash_flows
        assert outcome.gross_benefits == analytic.gross_benefits
        assert outcome.tco_total == analytic.tco_total
        assert outcome.risk_delta == analytic.risk_delta
    for name in ENGINE_METRICS:
        summary = summarize(getattr(result, name).tolist())
        assert summary.standard_error == 0.0
        assert summary.p10 == summary.p50 == summary.p90


def test_analytic_uses_distribution_means():
    portfolio = small_portfolio()
    outcome = analytic_evaluate(portfolio)
    assert outcome.benefit_values["hours"] == 120_000.0
    assert outcome.cost_values["run"] == 40_000.0
    # fraud delta: mean(sle) * (1.4 - 0.8)
    sle_mean = 25_000.0 * math.exp(0.125)
    assert outcome.risk_delta == pytest.approx(sle_mean * 0.6, rel=1e-12)


def test_analytic_matches_module_pipeline():
    portfolio = small_portfolio()
    outcome = analytic_evaluate(portfolio)
    expected_row = benefit_schedule(portfolio.benefits, portfolio.horizon_years)
    assert outcome.gross_benefits == math.fsum(expected_row)
    amortized, cash = tco_pair(
        portfolio.capex, portfolio.opex, portfolio.cost_rules, portfolio.horizon_years
    )
    assert outcome.tco_per_year == amortized.per_year
    assert outcome.tco_total == amortized.total
    horizon = portfolio.horizon_years
    for t in range(horizon):
        assert outcome.cash_flows[t] == pytest.approx(
            expected_row[t] + outcome.risk_delta - amortized.per_year[t], rel=1e-12
        )
        assert outcome.cash_basis_flows[t] == pytest.approx(
            expected_row[t] + outcome.risk_delta - cash.per_year[t], rel=1e-12
        )


def test_simulated_iteration_matches_module_pipeline():
    portfolio = small_portfolio()
    result = run_simulation(portfolio, SimulationConfig(iterations=30, master_seed=13))
    outcome = result.outcomes[19]
    row = benefit_schedule(portfolio.benefits, portfolio.horizon_years, outcome.benefit_values)
    amortized, cash = tco_pair(
        portfolio.capex,
        portfolio.opex,
        portfolio.cost_rules,
        portfolio.horizon_years,
        amounts=outcome.cost_values,
    )
    assert outcome.tco_per_year == amortized.per_year
    assert math.fsum(row) == outcome.gross_benefits
    assert tuple(
        row[t] + outcome.risk_delta - cash.per_year[t]
        for t in range(portfolio.horizon_years)
    ) == outcome.cash_basis_flows


def test_eq1_split_consistency():
    portfolio = small_portfolio(
        extra_scenarios=(
            RiskScenario(
                "bias", Triangular(20_000.0, 45_000.0, 95_000.0), "ai_only",
                frequency_ai=PoissonRate(0.6),
            ),
        )
    )
    result = run_simulation(portfolio, SimulationConfig(iterations=200, master_seed=31))
    horizon = portfolio.horizon_years
    for outcome in result.outcomes:
        assert outcome.risk_reduction >= 0.0
        assert outcome.risk_increase >= 0.0
        assert outcome.risk_reduction - outcome.risk_increase == pytest.approx(
            outcome.risk_delta * horizon, rel=1e-12, abs=1e-9
        )


def test_linearity_doubling_monetary_inputs():
    portfolio = small_portfolio()
    doubled = Portfolio(
        name=portfolio.name,
        currency=portfolio.currency,
        horizon_years=portfolio.horizon_years,
        discount_rate=portfolio.discount_rate,
        benefits=tuple(
            BenefitItem(
                b.id, b.kind, scaled(b.annual_value, 2.0), b.start_year, b.end_year,
                attribution_factor=b.attribution_factor, phase=b.phase, erosion_rate=b.erosion_rate,
            )
            for b in portfolio.benefits
        ),
        capex=tuple(
            CapexItem(c.id, scaled(c.amount, 2.0), c.useful_life_years, c.incurred_year, c.category)
            for c in portfolio.capex
        ),
        opex=tuple(
            OpexItem(o.id, scaled(o.annual_amount, 2.0), o.start_year, o.end_year, o.category, o.specialist)
            for o in portfolio.opex
        ),
        cost_rules=portfolio.cost_rules,
        register=RiskRegister(
            tuple(
                RiskScenario(
                    s.id, scaled(s.sle, 2.0), s.applies_to,
                    frequency_current=s.frequency_current, frequency_ai=s.frequency_ai,
                )
                for s in portfolio.register.scenarios
            )
        ),
    )
    base = analytic_evaluate(portfolio)
    big = analytic_evaluate(doubled)
    assert big.gross_benefits == pytest.approx(2 * base.gross_benefits, rel=1e-12)
    assert big.tco_total == pytest.approx(2 * base.tco_total, rel=1e-12)
    assert big.risk_delta == pytest.approx(2 * base.risk_delta, rel=1e-12)
    for t in range(portfolio.horizon_years):
        assert big.cash_flows[t] == pytest.approx(2 * base.cash_flows[t], rel=1e-12)


def test_simulated_mean_converges_to_analytic():
    portfolio = small_portfolio()
    result = run_simulation(portfolio, SimulationConfig(iterations=20_000, master_seed=77))
    analytic = analytic_evaluate(portfolio)
    nets = [
        o.gross_benefits + o.risk_reduction - o.risk_increase - o.tco_total
        for o in result.outcomes
    ]
    target = (
        analytic.gross_benefits
        + analytic.risk_reduction
        - analytic.risk_increase
        - analytic.tco_total
    )
    observed = math.fsum(nets) / len(nets)
    se = standard_error(nets)
    assert abs(observed - target) <= 4 * se


# -- configuration and guards -------------------------------------------------------


def test_run_simulation_validates_first():
    portfolio = small_portfolio(horizon=0)
    with pytest.raises(ValueError):
        run_simulation(portfolio, SimulationConfig(iterations=10, master_seed=1))
    with pytest.raises(ValueError):
        run_simulation(small_portfolio(), SimulationConfig(iterations=0, master_seed=1))


def test_a_cost_past_the_float_range_is_a_value_and_no_warning():
    # Two 1e308 capex items of one year's life overflow the TCO, as on one
    # row, where the assembly's floats give inf and nan without a warning.
    # The suite turns warnings into errors, so a leaked numpy RuntimeWarning
    # fails the run here.
    portfolio = Portfolio(
        "overflow", "EUR", 3, 0.05,
        capex=tuple(CapexItem(item_id, Point(1e308), 1) for item_id in "ab"),
    )
    result = run_simulation(portfolio, SimulationConfig(iterations=5, master_seed=2))
    one_row = analytic_evaluate(portfolio)
    for name in ("tco_total", "tco_per_year", "cash_flows", "cash_basis_flows"):
        rows = getattr(result, name)
        assert rows.tobytes() == np.array([getattr(one_row, name)] * 5).tobytes(), name
    assert math.isinf(one_row.tco_total)


def test_validate_portfolio_bounds_the_horizon():
    # Validation only: no model runs at the bound.
    for horizon in (2, 200):  # one year is too short for its year-1 benefit
        assert validate_portfolio(small_portfolio(horizon=horizon)) == ([], [])
    for horizon in (0, 201, 2**64):
        errors, _ = validate_portfolio(small_portfolio(horizon=horizon))
        assert errors == [f"horizon_years must lie in [1, 200], got {horizon}"]


def test_validate_simulation_checks_every_setting():
    assert validate_simulation(SimulationConfig()) == []
    valid = SimulationConfig(
        iterations=1, master_seed=2**64 - 1, worker_count=None, target_relative_se=1e-9
    )
    assert validate_simulation(valid) == []
    for field, values in {
        "iterations": (0, -1, 2.0, True, "x", None),
        "master_seed": (-1, 2**64, 1.0, False, "x", None),
        "worker_count": (0, -2, 1.5, True, "many"),
        "target_relative_se": (0, -1, math.inf, math.nan, True, "x", []),
    }.items():
        for value in values:
            errors = validate_simulation(dataclasses.replace(valid, **{field: value}))
            assert len(errors) == 1 and errors[0].startswith(field), (field, value)


def test_worker_count_auto_is_read_once_by_the_run_settings():
    # "auto", which validate_simulation's message offers, is None from a
    # library caller too: every CPU this process may run on.
    auto = SimulationConfig(iterations=100, master_seed=5, worker_count="auto")
    assert auto == SimulationConfig(iterations=100, master_seed=5, worker_count=None)
    assert validate_simulation(auto) == []
    assert dataclasses.replace(SimulationConfig(), worker_count="auto").worker_count is None
    # One block, so no pool starts: the rows of a one-worker run.
    portfolio = small_portfolio()
    one = run_simulation(portfolio, dataclasses.replace(auto, worker_count=1))
    assert run_simulation(portfolio, auto).cash_flows.tobytes() == one.cash_flows.tobytes()


def test_validate_simulation_caps_iterations():
    # By value only: neither count is run.
    assert MAX_ITERATIONS == 10**8
    assert validate_simulation(SimulationConfig(iterations=MAX_ITERATIONS)) == []
    assert validate_simulation(SimulationConfig(iterations=MAX_ITERATIONS + 1)) == [
        f"iterations must be at most {MAX_ITERATIONS}, got {MAX_ITERATIONS + 1}"
    ]


def test_validate_portfolio_reports_duplicates_and_double_counting():
    portfolio = small_portfolio()
    dup = Portfolio(
        name="dup",
        currency="EUR",
        horizon_years=3,
        discount_rate=0.05,
        benefits=(
            BenefitItem("same", "productivity", Point(1.0), 0, 2),
            BenefitItem("same", "productivity", Point(2.0), 0, 2),
            BenefitItem("ext", "risk_reduction_external", Point(5.0), 0, 2),
        ),
        register=portfolio.register,
    )
    errors, warnings = validate_portfolio(dup)
    assert any("duplicate benefit id" in e for e in errors)
    assert any("counted twice" in w for w in warnings)


def test_early_stop_quantizes_to_blocks():
    portfolio = all_point_portfolio()  # zero variance: stops at the first check
    cfg = SimulationConfig(iterations=5_000, master_seed=1, target_relative_se=0.01)
    result = run_simulation(portfolio, cfg)
    assert len(result.outcomes) == 1_000
    full = run_simulation(portfolio, SimulationConfig(iterations=1_000, master_seed=1))
    assert result.outcomes == full.outcomes
    # An unreachable target decides after every 1000-iteration step, the
    # last one partial; serially or split over workers, the blocks must
    # reproduce one uninterrupted run.
    portfolio = small_portfolio()
    full = run_simulation(portfolio, SimulationConfig(iterations=4_133, master_seed=8))
    for workers in (1, 3):
        blocked = run_simulation(
            portfolio,
            SimulationConfig(
                iterations=4_133, master_seed=8, worker_count=workers, target_relative_se=1e-12
            ),
        )
        assert blocked.outcomes == full.outcomes


class _InlineExecutor(Executor):
    """Runs each submitted block inline, so a multi-worker run starts no process."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_worker_cap_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # Pinned to one of the host's two CPUs, an automatic worker count is one:
    # the run builds no executor and never loads the pool.
    built = []

    class RecordingExecutor(_InlineExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    portfolio = small_portfolio()
    for workers in (None, 2):
        run_simulation(portfolio, SimulationConfig(8_000, 5, worker_count=workers))
    assert built == []
    # Without an affinity call, the CPU count caps the workers.
    monkeypatch.delattr(engine.os, "sched_getaffinity")
    run_simulation(portfolio, SimulationConfig(8_000, 5, worker_count=None))
    assert built == [2]


def test_pooled_early_stop_draws_at_most_one_block_per_worker_past_it(monkeypatch):
    # 40000 iterations over three workers are ten 4000-iteration blocks, and
    # a target of 1e9 is met at the first step.  The stand-in executor draws
    # each block when it is submitted, so it counts what a pool would draw:
    # the stopping block and at most one more per worker, not all ten, which
    # a pool could no longer cancel once they sat in its call queue.
    submitted = []

    class RecordingExecutor(_InlineExecutor):
        def submit(self, fn, *args):
            submitted.append(args[-2:])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    portfolio = small_portfolio()
    serial = run_simulation(portfolio, SimulationConfig(40_000, 6, target_relative_se=1e9))
    pooled = run_simulation(
        portfolio, SimulationConfig(40_000, 6, worker_count=3, target_relative_se=1e9)
    )
    assert len(serial) == len(pooled) == 1_000
    assert pooled.outcomes == serial.outcomes
    assert submitted == [(0, 4_000), (4_000, 8_000), (8_000, 12_000)]


def test_early_stop_decides_at_the_stopping_ratio(monkeypatch):
    # The stopping rule answers standard_error(nets) / |mean| <= target as
    # that expression over every net so far would.  Targets at, and one ulp
    # and 1e-9 relative either side of, the ratio after block 3 stop at the
    # same block serially and over three workers; only the targets within
    # the rule's error bound run the exact expression.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    portfolio = small_portfolio()
    iterations = 4_000
    full = run_simulation(portfolio, SimulationConfig(iterations=iterations, master_seed=8))
    nets = (full.gross_benefits + full.risk_reduction - full.risk_increase - full.tco_total).tolist()
    ratios = [
        oracle.standard_error(nets[:n]) / abs(math.fsum(nets[:n]) / n)
        for n in range(1_000, iterations + 1, 1_000)
    ]
    ratio = ratios[2]
    assert min(ratios[:2]) > ratio > ratios[3]

    exact_calls = []
    monkeypatch.setattr(
        engine, "standard_error", lambda s: exact_calls.append(len(s)) or standard_error(s)
    )
    for target, bounded in (
        (ratio, False),
        (math.nextafter(ratio, math.inf), False),
        (math.nextafter(ratio, 0.0), False),
        (ratio * (1 + 1e-9), True),
        (ratio * (1 - 1e-9), True),
    ):
        stops = next(k for k, r in enumerate(ratios, 1) if r <= target)
        for workers in (1, 3):
            exact_calls.clear()
            result = run_simulation(
                portfolio,
                SimulationConfig(iterations, 8, worker_count=workers, target_relative_se=target),
            )
            assert len(result) == 1_000 * stops
            assert result.gross_benefits.tolist() == full.gross_benefits[: len(result)].tolist()
            assert (exact_calls == []) == bounded


def test_exact_partials_keep_the_exact_sum():
    from fractions import Fraction

    rng = np.random.default_rng(4)
    for _ in range(200):
        values = (rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50)).tolist()
        values += [-v for v in values[:10]] + [1e300, -1e300, 5e-324]
        partials = engine._exact_partials(values)
        assert sum(map(Fraction, partials)) == sum(map(Fraction, values))
        assert math.fsum(partials) == math.fsum(values)


def _random_portfolio(gen) -> Portfolio:
    # Covers every branch the sampling kernel splits on: degenerate members,
    # closed-form families (uniform, triangular), rejection-sampled ones
    # (PERT, lognormal), thinned and integer point rates, point rates with
    # dozens of events, and Poisson rates of 0, below 10 and 10 or more.
    quantity_makers = [
        lambda: Point(float(gen.uniform(1_000, 200_000))),
        lambda: Uniform(*sorted(gen.uniform(1_000, 200_000, size=2))),
        lambda: Triangular(*sorted(gen.uniform(1_000, 200_000, size=3))),
        lambda: Lognormal(float(gen.uniform(1_000, 100_000)), float(gen.uniform(0.0, 1.2))),
        lambda: Pert(*sorted(gen.uniform(1_000, 200_000, size=3))),
        lambda: Triangular(*[float(gen.uniform(1_000, 200_000))] * 3),
    ]

    def quantity():
        return quantity_makers[int(gen.integers(len(quantity_makers)))]()

    frequency_makers = [
        lambda: PointRate(float(gen.uniform(0.0, 4.0))),
        lambda: PointRate(float(gen.integers(0, 4))),
        lambda: PointRate(float(gen.uniform(50.0, 80.0))),
        lambda: PoissonRate(float(gen.uniform(0.0, 4.0))),
        lambda: PoissonRate(float(gen.uniform(8.0, 14.0))),
        lambda: PoissonRate(0.0),
    ]

    def frequency():
        return frequency_makers[int(gen.integers(len(frequency_makers)))]()

    horizon = int(gen.integers(1, 7))
    benefits = tuple(
        BenefitItem(
            f"b{i}",
            "productivity",
            quantity(),
            start_year=int(gen.integers(0, horizon)),
            end_year=horizon - 1,
            attribution_factor=float(gen.uniform(0.0, 1.0)),
            erosion_rate=float(gen.uniform(0.0, 0.5)),
        )
        for i in range(int(gen.integers(0, 4)))
    )
    capex = tuple(
        CapexItem(
            f"c{i}",
            quantity(),
            useful_life_years=int(gen.integers(1, 8)),
            incurred_year=int(gen.integers(0, horizon)),
            category="development" if gen.random() < 0.7 else "infrastructure",
        )
        for i in range(int(gen.integers(0, 3)))
    )
    opex = tuple(
        OpexItem(
            f"o{i}",
            quantity(),
            start_year=int(gen.integers(0, horizon)),
            end_year=horizon - 1,
            category="personnel" if gen.random() < 0.4 else "compute",
            specialist=bool(gen.random() < 0.5),
        )
        for i in range(int(gen.integers(0, 3)))
    )
    applies_choices = ("current_only", "ai_only", "both")
    scenarios = []
    for i in range(int(gen.integers(0, 8))):
        applies = applies_choices[int(gen.integers(3))]
        scenarios.append(
            RiskScenario(
                f"s{i}",
                quantity(),
                applies,
                frequency_current=frequency() if applies != "ai_only" else None,
                frequency_ai=frequency() if applies != "current_only" else None,
            )
        )
    return Portfolio(
        name="fuzz",
        currency="EUR",
        horizon_years=horizon,
        discount_rate=float(gen.uniform(0.0, 0.2)),
        benefits=benefits,
        capex=capex,
        opex=opex,
        cost_rules=CostRules(
            maintenance_rate=float(gen.uniform(0.0, 0.4)),
            reserve_rate=float(gen.uniform(0.0, 0.3)),
            talent_premium_rate=float(gen.uniform(0.0, 0.8)),
            reserve_treatment="carrying_cost" if gen.random() < 0.3 else "cash_cost",
            reserve_carrying_rate=float(gen.uniform(0.0, 0.2)),
        ),
        register=RiskRegister(tuple(scenarios)),
    )


def _pipeline_outcome(portfolio: Portfolio, seed: int, index: int):
    """Outcome ``index`` drawn from its named streams one value at a time.

    The draws are the positioned scalar reference for the kernel's sampling;
    they are assembled as a one-row block.
    """

    columns = {}
    for key, quantity in [
        *((benefit_stream_key(b.id), b.annual_value) for b in portfolio.benefits),
        *((capex_stream_key(c.id), c.amount) for c in portfolio.capex),
        *((opex_stream_key(o.id), o.annual_amount) for o in portfolio.opex),
    ]:
        columns[key] = np.full(1, sample(quantity, RngStream(seed, key, index)))
    for s in portfolio.register.scenarios:
        for state in ("current", "ai"):
            key = risk_stream_key(s.id, state)
            columns[key] = np.full(1, ale_simulate(s, state, RngStream(seed, key, index)))
    block = _assemble_columns(portfolio, 1, columns)
    return dataclasses.replace(block.outcomes[0], index=index)


def test_random_portfolios_satisfy_core_invariants():
    # Seeded sweep over random model shapes: the identity, the delta split,
    # and degenerate-free summaries must hold for all of them, every
    # outcome must equal the module pipeline's for the same (seed, iteration),
    # and the analytic run must read each stream at its mean.
    gen = RngStream(20_240_809, "fuzz", 0).generator
    for _ in range(40):
        portfolio = _random_portfolio(gen)
        analytic = analytic_evaluate(portfolio)
        benefit_means = {item.id: mean(item.annual_value) for item in portfolio.benefits}
        cost_means = {item.id: mean(item.amount) for item in portfolio.capex}
        cost_means.update({item.id: mean(item.annual_amount) for item in portfolio.opex})
        loss_means = {
            s.id: (ale_analytic(s, "current"), ale_analytic(s, "ai"))
            for s in portfolio.register.scenarios
        }
        for values, means in (
            (analytic.benefit_values, benefit_means),
            (analytic.cost_values, cost_means),
            (analytic.scenario_losses, loss_means),
        ):
            assert values.keys() == means.keys()
            for key, value in means.items():
                assert values[key] == value
        result = run_simulation(portfolio, SimulationConfig(iterations=60, master_seed=3))
        assert [o.index for o in result.outcomes] == list(range(60))
        horizon = portfolio.horizon_years
        for outcome in result.outcomes:
            assert outcome == _pipeline_outcome(portfolio, 3, outcome.index)
            # The float path of the schedule code gives the same rows.
            row = benefit_schedule(portfolio.benefits, horizon, outcome.benefit_values)
            amortized, cash = tco_pair(
                portfolio.capex,
                portfolio.opex,
                portfolio.cost_rules,
                horizon,
                amounts=outcome.cost_values,
            )
            assert math.fsum(row) == outcome.gross_benefits
            assert amortized.per_year == outcome.tco_per_year
            assert amortized.total == outcome.tco_total
            assert tuple(
                row[t] + outcome.risk_delta - cash.per_year[t] for t in range(horizon)
            ) == outcome.cash_basis_flows
            assert outcome.risk_reduction >= 0.0
            assert outcome.risk_increase >= 0.0
            assert outcome.risk_reduction - outcome.risk_increase == pytest.approx(
                outcome.risk_delta * horizon, rel=1e-12, abs=1e-9
            )
            assert len(outcome.cash_flows) == horizon
            assert all(v >= 0.0 for v in outcome.tco_per_year)
        for name in ENGINE_METRICS:
            summary = summarize(getattr(result, name).tolist())
            assert summary.min <= summary.p10 <= summary.p50 <= summary.p90 <= summary.max


def test_stream_table_holds_every_stream_that_applies(reference_config):
    # Every benefit, capex and opex key, then the key of each risk state that
    # applies, in draw order; a state without a stream loses exactly 0.0.
    gen = RngStream(20_261_019, "streams", 0).generator
    portfolios = [reference_config.portfolio, *(_random_portfolio(gen) for _ in range(12))]
    applies = {s.applies_to for p in portfolios for s in p.register.scenarios}
    assert applies == {"both", "current_only", "ai_only"}
    for portfolio in portfolios:
        scenarios = portfolio.register.scenarios
        assert list(engine._streams(portfolio)) == [
            *(benefit_stream_key(b.id) for b in portfolio.benefits),
            *(capex_stream_key(c.id) for c in portfolio.capex),
            *(opex_stream_key(o.id) for o in portfolio.opex),
            *(
                risk_stream_key(s.id, state)
                for s in scenarios
                for state in ("current", "ai")
                if s.applies_to in ("both", f"{state}_only")
            ),
        ]
        result = run_simulation(portfolio, SimulationConfig(iterations=50, master_seed=5))
        for s in scenarios:
            for state, losses in zip(("current", "ai"), result.scenario_losses[s.id]):
                if s.applies_to not in ("both", f"{state}_only"):
                    assert losses.tobytes() == np.zeros(50).tobytes()


def _bits(result) -> list[bytes]:
    """Every array of ``result`` as bytes, so -0.0 and 0.0 differ."""
    return [array.tobytes() for array in result._arrays()]


def test_round_size_does_not_change_a_block(monkeypatch, reference_config):
    # Streams drawn one at a time, or all in one round, give the columns of
    # streams drawn in rounds of the default size.  The added scenarios make sure that every
    # draw path that asks for positions runs: Poisson rates of 0, below 10 and
    # 10 or more, a PERT with a shape of 1, and lognormal batches of more than
    # 8 events.
    extra = (
        RiskScenario(
            "x0", Lognormal(5_000.0, 0.4), "both",
            frequency_current=PoissonRate(0.0), frequency_ai=PoissonRate(3.5),
        ),
        RiskScenario(
            "x1", Pert(1_000.0, 4_000.0, 9_000.0), "both",
            frequency_current=PoissonRate(12.5), frequency_ai=PoissonRate(9.5),
        ),
        RiskScenario(
            "x2", Pert(1_000.0, 1_000.0, 9_000.0), "current_only",
            frequency_current=PoissonRate(2.0),
        ),
        RiskScenario("x3", Lognormal(2_000.0, 0.8), "ai_only", frequency_ai=PointRate(11.5)),
    )
    gen = RngStream(2_026, "rounds", 0).generator
    portfolios = [reference_config.portfolio, small_portfolio(extra)]
    for _ in range(6):
        portfolio = _random_portfolio(gen)
        scenarios = portfolio.register.scenarios + extra
        portfolios.append(dataclasses.replace(portfolio, register=RiskRegister(scenarios)))
    together = [engine._run_block(portfolio, 42, 1_000, 2_500) for portfolio in portfolios]
    for streams in (1, 10**6):
        monkeypatch.setattr(distributions, "_ROUND_STREAMS", streams)
        for portfolio, expected in zip(portfolios, together):
            assert _bits(engine._run_block(portfolio, 42, 1_000, 2_500)) == _bits(expected)


def test_reference_run_keeps_its_philox_pass_budget(monkeypatch, reference_config):
    # A block's streams share one Philox pass per round, and a stream's
    # severity request covers all its count groups.  One pass per stream
    # and request, as before rounds, took 151 here; one stream per round, 73.
    assert distributions._normal_tables() is not None
    passes = 0
    philox_block = distributions.philox_block

    def counted(*args):
        nonlocal passes
        passes += 1
        return philox_block(*args)

    monkeypatch.setattr(distributions, "philox_block", counted)
    cfg = SimulationConfig(iterations=10_000, master_seed=42, worker_count=1)
    run_simulation(reference_config.portfolio, cfg)
    assert 0 < passes <= 52


def test_blocks_are_written_in_place(monkeypatch):
    # Twelve 1000-row blocks: a run holds its result and one block's scratch
    # at a time, not every block beside their concatenation (about twice
    # the result).  32 KB cover the interpreter's own objects.
    monkeypatch.setattr(engine, "_KERNEL_BLOCK", engine._EARLY_STOP_BLOCK)
    portfolio = small_portfolio()
    run_simulation(portfolio, SimulationConfig(1_000, 9))  # fills the samplers' caches
    tracemalloc.start()
    try:
        block_peak = 0
        for start in range(0, 12_000, 1_000):
            tracemalloc.reset_peak()
            engine._run_block(portfolio, 9, start, start + 1_000)
            block_peak = max(block_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        result = run_simulation(portfolio, SimulationConfig(12_000, 9, worker_count=1))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = sum(array.nbytes for array in result._arrays())
    assert block_peak < result_bytes
    assert run_peak < result_bytes + block_peak + 2**15
    assert _bits(result) == _bits(engine._run_block(portfolio, 9, 0, 12_000))


def test_an_early_stop_holds_only_what_it_drew(reference_config):
    # 10^8 iterations with a target met at the first step: arrays sized for
    # the whole run would ask for tens of GB.  The run holds one block and
    # its exact-size copy, the stop rule's per-step statistics (four doubles
    # a step) and the list of block bounds (a list slot and an int each).
    portfolio = reference_config.portfolio
    cfg = SimulationConfig(10**8, 42, worker_count=1, target_relative_se=1e9)
    run_simulation(portfolio, SimulationConfig(1_000, 42))  # fills the samplers' caches
    tracemalloc.start()
    try:
        engine._run_block(portfolio, 42, 0, engine._KERNEL_BLOCK)
        block_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result = run_simulation(portfolio, cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stats_bytes = 32 * (cfg.iterations // engine._EARLY_STOP_BLOCK)
    bounds_bytes = 36 * (cfg.iterations // engine._KERNEL_BLOCK)
    assert len(result) == engine._EARLY_STOP_BLOCK
    assert all(array.base is None for array in result._arrays())
    assert run_peak < 2 * block_peak + stats_bytes + bounds_bytes
    plain = run_simulation(portfolio, SimulationConfig(engine._EARLY_STOP_BLOCK, 42))
    assert _bits(result) == _bits(plain)


def test_an_early_stop_grows_its_arrays_by_doubling(monkeypatch):
    # 1000-row blocks and a stop rule that stops at 11,500 rows of 40,000:
    # the arrays grow to 2,000, 4,000, 8,000 and 16,000 rows, then the
    # result is copied to its 11,500.
    monkeypatch.setattr(engine, "_KERNEL_BLOCK", engine._EARLY_STOP_BLOCK)
    sizes = []
    grown = engine._grown
    monkeypatch.setattr(
        engine, "_grown", lambda result, rows, size: sizes.append(size) or grown(result, rows, size)
    )

    class StopAt:
        def __init__(self, target, steps):
            self.seen = 0

        def stop(self, block):
            self.seen += len(block)
            return None if self.seen < 12_000 else len(block) // 2

    monkeypatch.setattr(engine, "_StopRule", StopAt)
    portfolio = small_portfolio()
    result = run_simulation(portfolio, SimulationConfig(40_000, 4, target_relative_se=1.0))
    assert sizes == [2_000, 4_000, 8_000, 16_000]
    assert len(result) == 11_500
    assert all(array.base is None for array in result._arrays())
    assert _bits(result) == _bits(engine._run_block(portfolio, 4, 0, 11_500))


# -- summary statistics ----------------------------------------------------------


def test_standard_error_examples():
    assert standard_error([5.0, 5.0, 5.0]) == 0.0
    assert standard_error([0.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        standard_error([1.0])


def test_standard_error_of_seeded_normal_draws():
    gen = RngStream(123, "se", 0).generator
    draws = list(gen.standard_normal(10_000))
    assert standard_error(draws) == pytest.approx(0.01, rel=0.2)


def _summary_of_sorted(values: list[float]) -> SampleSummary:
    """The summary over ``sorted(values)``, field by field, from the oracle's sums."""
    ordered = sorted(values)
    n = len(ordered)
    return SampleSummary(
        n=n,
        mean=math.fsum(ordered) / n,
        standard_error=oracle.standard_error(ordered) if n >= 2 else 0.0,
        p10=percentile(ordered, 0.10),
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        min=ordered[0],
        max=ordered[-1],
    )


def test_summarize_consistency_with_raw_recomputation():
    gen = RngStream(5, "sum", 0).generator
    column = gen.normal(10.0, 3.0, size=999)
    values = column.tolist()
    for summary in (summarize(values), summarize(column)):
        assert summary.n == 999
        assert summary.mean == math.fsum(values) / 999
        assert summary.standard_error == oracle.standard_error(values)
        assert summary.p10 == percentile(values, 0.10)
        assert summary.p50 == percentile(values, 0.50)
        assert summary.p90 == percentile(values, 0.90)
        assert summary.min == min(values)
        assert summary.max == max(values)
        assert summary.min <= summary.p10 <= summary.p50 <= summary.p90 <= summary.max

    # Ties of -0.0 and 0.0 keep their input order, as sorted() keeps them;
    # repr tells the two zeros apart.
    rng = np.random.default_rng(3)
    for pool in ([-0.0, 0.0, 1.0, math.inf], [-math.inf, -1.0, -0.0, 0.0]):
        for _ in range(200):
            column = rng.choice(pool, size=int(rng.integers(17, 300)))
            expected = repr(_summary_of_sorted(column.tolist()))
            assert repr(summarize(column)) == expected
            assert repr(summarize(column.tolist())) == expected

    # The squared deviations are Python floats: numpy's array x ** 2
    # differs from CPython's in the last bit on some of these samples.
    rng = np.random.default_rng(11)
    for _ in range(20_000):
        scale = 10.0 ** int(rng.integers(0, 9))
        column = rng.normal(0.0, scale, size=int(rng.integers(2, 40)))
        assert summarize(column).standard_error == oracle.standard_error(column.tolist())
