"""The array calls of the valuation functions against their one-row bodies.

Every value is compared with ``==``; a None of the one-row call is nan,
or False in the mask, on the array side.  Where a one-row call raises, the
array call over the same rows raises the first row's error.
"""

import math

import numpy as np
import pytest

from airoi import valuation
from airoi.costs import CapexItem
from airoi.distributions import RngStream
from airoi.engine import _ROW_FIELDS, SimulationConfig, SimulationResult, run_simulation
from airoi.model import Portfolio
from airoi.quantities import Point
from airoi.valuation import (
    REPORT_METRICS,
    DiscountSpec,
    ValuationColumns,
    build_report,
    cashflow_sign_changes,
    evaluate_outcome,
    irr,
    npv,
    payback_period,
)
from test_engine import _random_portfolio, small_portfolio


def _result(call):
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def assert_block_matches_rows(flows: np.ndarray) -> None:
    rows = flows.tolist()
    for fn, args, optional in (
        (npv, (0.0,), False),
        (npv, (0.07,), False),
        (irr, (), True),
        (payback_period, (), True),
        (cashflow_sign_changes, (), False),
    ):
        expected = [_result(lambda: fn(row, *args)) for row in rows]
        got = _result(lambda: fn(flows, *args))
        errors = [value for value in expected if isinstance(value, tuple)]
        if errors:
            assert got == errors[0], fn.__name__
            continue
        values = got.tolist()
        if optional:
            values = [None if math.isnan(value) else value for value in values]
        assert values == expected, fn.__name__


def assert_columns_match(columns, outcomes) -> None:
    assert len(columns) == len(outcomes)
    everywhere = np.ones(len(columns), dtype=bool)
    for name in REPORT_METRICS:
        values = getattr(columns, name).tolist()
        defined = columns.defined.get(name, everywhere).tolist()
        got = [value if ok else None for value, ok in zip(values, defined)]
        assert got == [getattr(o, name) for o in outcomes], name
    assert columns.irr_multiple_roots_possible.tolist() == [
        o.irr_multiple_roots_possible for o in outcomes
    ]


def _ordinary_rows(gen, horizon: int, count: int) -> list[list[float]]:
    """Conventional, many-signed, sparse, all-zero and single-flow rows."""
    rows = []
    for _ in range(count):
        kind = int(gen.integers(5))
        if kind == 0:  # one outlay, then returns
            rows.append([-float(gen.uniform(10, 1e6))] + gen.uniform(0, 3e5, horizon - 1).tolist())
        elif kind == 1:  # any signs: several roots are possible
            rows.append(gen.normal(0.0, 1e4, horizon).tolist())
        elif kind == 2:  # zeros between the sign changes
            row = gen.normal(0.0, 100.0, horizon)
            row[gen.random(horizon) < 0.6] = 0.0
            rows.append(row.tolist())
        elif kind == 3:
            rows.append([0.0] * horizon)
        else:
            row = [0.0] * horizon
            row[int(gen.integers(horizon))] = float(gen.normal(0.0, 50.0))
            rows.append(row)
    return rows


def test_block_matches_rows_at_every_horizon():
    gen = RngStream(20_261_018, "valuation-block", 0).generator
    for horizon in range(1, 201):
        rows = _ordinary_rows(gen, horizon, 6)
        # The flows of test_irr_defined_on_every_horizon and of
        # test_irr_ignores_nan_npv_at_bracket_end at their own horizon.
        defined = [-100.0] + [1.0] * (horizon - 1)
        rows += [defined, [-cf for cf in defined]]
        if horizon >= 100:
            rows.append([-1.0] * (horizon - 2) + [1.0] * 2)
        assert_block_matches_rows(np.array(rows))


def test_block_matches_rows_in_one_call():
    # Every horizon's special flows, padded with zero years, beside ordinary
    # and multiple-root rows in one array.
    gen = RngStream(20_261_018, "valuation-block", 1).generator
    horizon = 200
    rows = _ordinary_rows(gen, horizon, 40)
    for length in range(1, horizon + 1):
        rows.append([-100.0] + [1.0] * (length - 1))
        rows.append([100.0] + [-1.0] * (length - 1))
    for length in range(100, 121):
        rows.append([-1.0] * (length - 2) + [1.0] * 2)
    rows.append([-100.0, 230.0, -132.0])  # roots at 0.1 and 0.2
    rows.append([-1.0, 6.0, -11.0, 6.0])  # roots at 0.0, 1.0 and 2.0
    flows = np.array([row + [0.0] * (horizon - len(row)) for row in rows])
    assert (cashflow_sign_changes(flows) > 1).sum() >= 2
    assert_block_matches_rows(flows)


def test_block_takes_the_fallback_where_a_discount_is_zero():
    # At the bracket's lower end the discount of year 108 underflows to 0:
    # dividing by it gives +inf, but the Horner sign of f is negative.
    flows = [-1.0] + [0.0] * 106 + [-1e-13, 1e-17]
    assert irr(flows) is None
    assert_block_matches_rows(np.array([flows, [-cf for cf in flows]]))


def test_block_matches_rows_holding_infinities():
    inf = math.inf
    groups = (
        [[-inf, 1.0, 2.0], [1.0, inf, -1.0], [-5.0, 0.0, inf], [0.0, -inf, 0.0]],
        [[inf, -inf, 1.0], [-1.0, 2.0, 3.0]],  # fsum of inf and -inf
        [[-1e308, 1e308, 1e308], [-1.0, 2.0, 3.0]],  # intermediate overflow in fsum
    )
    for rows in groups:
        assert_block_matches_rows(np.array(rows))
        for row in rows:
            assert_block_matches_rows(np.array([row]))


def test_evaluate_outcome_columns_match_rows_on_random_portfolios():
    gen = RngStream(20_261_018, "valuation-sweep", 0).generator
    for _ in range(40):
        portfolio = _random_portfolio(gen)
        result = run_simulation(portfolio, SimulationConfig(iterations=60, master_seed=5))
        discount = DiscountSpec(portfolio.discount_rate)
        outcomes = [evaluate_outcome(o, discount) for o in result.outcomes]
        columns = evaluate_outcome(result, discount)
        assert_columns_match(columns, outcomes)
        assert build_report(columns) == build_report(outcomes)


def test_evaluate_outcome_columns_match_rows_on_the_reference_run(
    reference_config, reference_simulation
):
    discount = DiscountSpec(reference_config.portfolio.discount_rate)
    outcomes = [evaluate_outcome(o, discount) for o in reference_simulation.outcomes]
    columns = evaluate_outcome(reference_simulation, discount)
    assert_columns_match(columns, outcomes)
    assert columns.irr_multiple_roots_possible.any()
    assert build_report(columns) == build_report(outcomes)


def _column_bytes(columns) -> dict[str, bytes]:
    arrays = {name: getattr(columns, name) for name in REPORT_METRICS}
    arrays["irr_multiple_roots_possible"] = columns.irr_multiple_roots_possible
    arrays.update({f"defined.{name}": mask for name, mask in columns.defined.items()})
    return {name: array.tobytes() for name, array in arrays.items()}


def test_evaluate_outcome_in_slices_keeps_the_bits(
    reference_config, reference_simulation, monkeypatch
):
    discount = DiscountSpec(reference_config.portfolio.discount_rate)
    whole = _column_bytes(evaluate_outcome(reference_simulation, discount))
    horizon = reference_simulation.tco_per_year.shape[1]
    gen = RngStream(20_261_019, "valuation-slices", 0).generator
    small = run_simulation(_random_portfolio(gen), SimulationConfig(iterations=60, master_seed=3))
    small_discount = DiscountSpec(0.05)
    small_whole = _column_bytes(evaluate_outcome(small, small_discount))
    # Four uneven slices of the reference run, then one row per slice.
    monkeypatch.setattr(valuation, "_SLICE_CELLS", horizon * 3001)
    assert _column_bytes(evaluate_outcome(reference_simulation, discount)) == whole
    monkeypatch.setattr(valuation, "_SLICE_CELLS", 1)
    assert _column_bytes(evaluate_outcome(small, small_discount)) == small_whole


def test_roi_rule_keeps_the_one_row_bits(monkeypatch):
    # A run without costs has a discounted TCO of 0: ROI is undefined, None
    # on a row and nan with a False mask in a column.  Two 1e308 capex items
    # of one year's life overflow the TCO: ROI is defined, and nan.  Their
    # rows, between ordinary ones, keep the one-row bits, masks included,
    # in one slice and at one row per slice.
    horizon = 3
    overflow = Portfolio(
        "overflow", "EUR", horizon, 0.05,
        capex=tuple(CapexItem(item_id, Point(1e308), 1) for item_id in "ab"),
    )
    portfolios = (small_portfolio(horizon=horizon), Portfolio("free", "EUR", horizon, 0.05),
                  overflow)
    config = SimulationConfig(iterations=5, master_seed=2)
    runs = [run_simulation(portfolio, config) for portfolio in portfolios]
    interleaved = np.arange(15).reshape(3, 5).T.ravel()
    result = SimulationResult(
        **{name: np.concatenate([getattr(run, name) for run in runs])[interleaved]
           for name in _ROW_FIELDS},
        benefit_values={}, cost_values={}, scenario_losses={},
    )
    discount = DiscountSpec(0.05)
    rows = [evaluate_outcome(outcome, discount) for outcome in result.outcomes]
    assert [row.roi_ratio is None for row in rows] == [False, True, False] * 5
    assert all(math.isnan(row.roi_ratio) for row in rows[2::3])
    expected = _column_bytes(ValuationColumns.from_outcomes(rows))
    for cells in (valuation._SLICE_CELLS, 1):
        monkeypatch.setattr(valuation, "_SLICE_CELLS", cells)
        assert _column_bytes(evaluate_outcome(result, discount)) == expected


def test_one_row_array_is_valued_as_its_list(reference_simulation):
    # A row of a run's arrays, valued on its own, has the list's bits and
    # errors: an empty row, and a discount that underflows to zero.
    for flows in (reference_simulation.cash_flows, reference_simulation.cash_basis_flows):
        for row in flows[:300]:
            values = row.tolist()
            assert npv(row, 0.07) == npv(values, 0.07)
            assert irr(row) == irr(values)
            assert payback_period(row) == payback_period(values)
    empty = (ValueError, "cashflows must be nonempty")
    assert _result(lambda: npv(np.array([]), 0.1)) == empty
    assert _result(lambda: irr(np.array([]))) == empty
    assert _result(lambda: payback_period(np.array([]))) == empty
    long = np.full(200, 10.0)
    long[0] = -100.0
    underflow = _result(lambda: npv(long, -0.999))
    assert underflow == _result(lambda: npv(long.tolist(), -0.999))
    assert underflow[0] is ZeroDivisionError


def _f(flows: list[float], rate: float) -> float:
    """``irr``'s f restated: a plain sum from 0.0; a division by zero or a
    nan total takes the sign of the Horner value as an infinity."""
    factor = 1.0 + rate
    discount, total = 1.0, 0.0
    try:
        for cf in flows:
            total += cf / discount
            discount *= factor
        if not math.isnan(total):
            return total
    except ZeroDivisionError:
        pass
    scaled = 0.0
    for cf in flows:
        scaled = scaled * factor + cf
    return math.copysign(math.inf, scaled) if scaled else 0.0


def test_npv_at_has_the_bits_of_the_one_row_f():
    # By bit pattern, so a -0.0 where one row sums to 0.0 fails, as do the
    # sign of an infinity and the fallback's choice.  Both shapes of the
    # factors: one per column, and the grid scan's column of rates, the
    # whole grid at once and each of a few grid rates alone.
    gen = RngStream(20_261_020, "valuation-f", 0).generator
    lo, hi = valuation._IRR_BRACKET
    step = (hi - lo) / valuation._IRR_GRID_POINTS
    rates = [lo, hi, lo + step, lo + 7 * step, lo + 104 * step, 0.5 * (lo + hi)]
    special = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324]
    grid = lo + np.arange(valuation._IRR_GRID_POINTS + 1) * step
    for horizon in (1, 2, 5, 40, 109, 200):
        rows = [[0.0] * horizon, [-0.0] * horizon, [-0.0] + [0.0] * (horizon - 1)]
        # A tiny last flow: the discount that divides it underflows at the
        # lower bracket end over a long horizon, and the Horner sign decides.
        rows += [[-1.0] + [0.0] * (horizon - 2) + [1e-17] * min(1, horizon - 1)]
        # At horizon 109 and the lower end only the last discount is 0: its
        # +inf is no nan, but the Horner sign is negative.
        if horizon >= 3:
            rows.append([-1.0] + [0.0] * (horizon - 3) + [-1e-13, 1e-17])
        rows += [[1e308] * horizon, [-1.0] * (horizon - 1) + [1e308]]
        for _ in range(60):
            row = gen.normal(0.0, 1e4, horizon)
            picks = gen.random(horizon) < 0.3
            row[picks] = gen.choice(special, int(picks.sum()))
            rows.append(row.tolist())
        columns = [(row, rate) for row in rows for rate in rates]
        years = np.array([row for row, _ in columns]).T
        with valuation._quiet():
            got = valuation._npv_at(years, 1.0 + np.array([rate for _, rate in columns]))
        expected = np.array([_f(row, rate) for row, rate in columns])
        differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert differ.size == 0, [columns[i] for i in differ[:3]]

        years = np.array(rows).T
        window = np.empty((grid.size, len(rows)))  # written in place, as the scan's
        with valuation._quiet():
            valuation._npv_at(years, (1.0 + grid)[:, None], window)
        for g in (0, 1, 7, 104, 511, 512):
            with valuation._quiet():
                alone = valuation._npv_at(years, np.array([[1.0 + grid[g]]]))
            expected = np.array([_f(row, float(grid[g])) for row in rows]).view(np.uint64)
            assert window[g].view(np.uint64).tolist() == expected.tolist(), g
            assert alone[0].view(np.uint64).tolist() == expected.tolist(), g
    # One row sums -0.0 from 0.0 to 0.0.
    assert valuation._npv_at(np.array([[-0.0]]), np.array([1.1])).view(np.uint64).tolist() == [0]


def _assert_irr_bits(flows: np.ndarray, expected: np.ndarray | None = None) -> None:
    """``irr`` of the array against the one-row ``irr`` of each row, by bit pattern."""
    if expected is None:
        expected = np.array([math.nan if root is None else root for root in map(irr, flows)])
    got = irr(flows)
    differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, [(flows[i].tolist(), got[i], expected[i]) for i in differ[:3]]


def _grid_rate(index: int) -> float:
    lo, hi = valuation._IRR_BRACKET
    return lo + index * ((hi - lo) / valuation._IRR_GRID_POINTS)


def _root_at(rate: float) -> list[float]:
    """Flows with three sign changes whose f is (1 - u)(1 + u^2), u = (1 + rate) / (1 + x).

    Each year's flow is the one-row scan's discount at ``rate``, so f at
    ``rate`` itself sums 1, -1, 1, -1 to exactly 0; f is below 0 before it
    and above 0 after it.
    """
    discount, row = 1.0, []
    for sign in (1.0, -1.0, 1.0, -1.0):
        row.append(sign * discount)
        discount *= 1.0 + rate
    return row


def _scan_rows() -> list[list[float]]:
    points = valuation._IRR_GRID_POINTS
    rows = []
    # f exactly 0 at a grid rate: the first, inside a window, at the last
    # rate of an 8-rate window, and at the last rate of the grid.
    for index in (1, 3, 8, 16, 300, points):
        rows.append(_root_at(_grid_rate(index)))
    # A sign change between two grid rates: straddling the edge of 8-rate
    # windows, just before one, and before the last rate.
    for index in (0, 7, 8, 15, 16, 299, points - 1):
        rows.append(_root_at(0.5 * (_grid_rate(index) + _grid_rate(index + 1))))
    # No root in the bracket.
    rows += [[1.0, -1.0, 1.0, 0.0], [1.0, -3.0, 3.0, 0.0], [2.0, -1.0, 0.0, 1.0]]
    return rows


@pytest.mark.parametrize("cells", [1, 8, 10**9])
def test_grid_scan_stops_where_the_one_row_scan_stops(monkeypatch, cells):
    # One window of a rate, windows of cells // S rates, and the whole grid
    # in one window: the same roots, bit for bit, as the one-row scan.
    monkeypatch.setattr(valuation, "_SCAN_CELLS", cells)
    rows = _scan_rows()
    assert (cashflow_sign_changes(np.array(rows)) > 1).all()
    _assert_irr_bits(np.array(rows))
    for row in rows:  # one row scanning: with 8 cells, windows of 8 rates
        _assert_irr_bits(np.array([row]))


@pytest.mark.parametrize("cells", [1, 8, 10**9])
def test_grid_scan_takes_the_fallback_over_a_long_horizon(monkeypatch, cells):
    # At horizon 200 the discounts near the bracket's lower end underflow
    # to 0 and sums of both signs overflow to nan: the Horner sign decides.
    monkeypatch.setattr(valuation, "_SCAN_CELLS", cells)
    gen = RngStream(20_261_018, "valuation-block", 2).generator
    horizon = 200
    rows = [
        [1.0] + [-1.0] * (horizon - 3) + [1.0, 1.0],
        [-1.0, 2.0] + [0.0] * (horizon - 4) + [-1e-13, 1e-17],
        [1e300, -1e300] * (horizon // 2),
    ]
    rows += [row for row in _ordinary_rows(gen, horizon, 30) if cashflow_sign_changes(row) > 1]
    _assert_irr_bits(np.array(rows))
    # At the grid's second rate, year 197's discount is 0: its division
    # gives +inf, a sum that is no nan, but the Horner sign is negative.
    _assert_irr_bits(np.array([[1.0, -2.0] + [0.0] * 194 + [-1e-17, 1e-19]]))


@pytest.mark.parametrize("cells", [1, 10**9])
def test_grid_scan_of_one_row_among_many_ordinary_rows(monkeypatch, cells):
    # 10^4 conventional rows and one with several roots: only that row
    # scans, alone in its windows.
    gen = RngStream(20_261_018, "valuation-block", 3).generator
    flows = np.concatenate(
        [-gen.uniform(1e5, 1e6, (10_000, 1)), gen.uniform(0.0, 4e5, (10_000, 4))], axis=1
    )
    flows[5_000] = [-100.0, 230.0, -132.0, 0.0, 0.0]  # roots at 0.1 and 0.2
    assert (cashflow_sign_changes(flows) > 1).sum() == 1
    monkeypatch.setattr(valuation, "_SCAN_CELLS", cells)
    _assert_irr_bits(flows)
