"""Capital budgeting metrics and the risk-adjusted percentile report.

Composes the headline identity — gross benefits plus risk-reduction value,
minus risk-increase costs and total cost of ownership — and derives NPV,
IRR, payback, and the ROI ratio per iteration.  Summaries report the 10th,
50th, and 90th percentiles alongside mean and standard error.

Each metric function takes one iteration's flows, or an iterations x
years array and then returns one value per row.  The one-row body is the
reference: the array code repeats its float operations in the same order
(sequential products and sums, year by year or by ``accumulate``, per-row
``math.fsum``), so both give the same bits.

Importing this module loads no numpy: the one-row code runs on floats,
and each function that works on arrays imports numpy where it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from .assembly import IterationOutcome

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .engine import SampleSummary, SimulationResult

# Metrics whose defined values feed each summary; IRR, payback, and the ROI
# ratio can be undefined for an iteration and are excluded with a count.
REPORT_METRICS = (
    "net_risk_adjusted_benefit",
    "roi_ratio",
    "npv",
    "irr",
    "payback_years",
    "risk_delta",
)

# Metrics that can be undefined for an iteration (None on one row).
OPTIONAL_METRICS = ("roi_ratio", "irr", "payback_years")

_IRR_BRACKET = (-0.999, 10.0)
_IRR_GRID_POINTS = 512
_BISECT_STEPS = 200
# Iteration-years valued at once by evaluate_outcome on a SimulationResult.
_SLICE_CELLS = 1 << 18


@dataclass(frozen=True)
class DiscountSpec:
    """End-of-year discounting at a flat annual rate."""

    annual_rate: float

    def __post_init__(self) -> None:
        if self.annual_rate < 0:
            raise ValueError(f"discount rate must be >= 0, got {self.annual_rate}")


@dataclass(frozen=True)
class ValuationOutcome:
    net_risk_adjusted_benefit: float
    roi_ratio: float | None
    npv: float
    irr: float | None
    payback_years: float | None
    risk_delta: float
    irr_multiple_roots_possible: bool = False


@dataclass(frozen=True, eq=False)
class ValuationColumns:
    """A run's valuation as columns: entry ``r`` of each array is iteration ``r``.

    ``defined`` holds a mask for each of ``OPTIONAL_METRICS``; an entry
    the one-row call leaves undefined (None) is nan there and False in
    its mask.  A nan or inf that a defined entry reaches by overflow stays
    a value, as on one row.
    """

    net_risk_adjusted_benefit: np.ndarray
    roi_ratio: np.ndarray
    npv: np.ndarray
    irr: np.ndarray
    payback_years: np.ndarray
    risk_delta: np.ndarray
    irr_multiple_roots_possible: np.ndarray
    defined: dict[str, np.ndarray]

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[ValuationOutcome]) -> "ValuationColumns":
        import numpy as np

        def column(name: str) -> np.ndarray:
            values = (getattr(o, name) for o in outcomes)
            return np.array([math.nan if v is None else v for v in values], dtype=float)

        return cls(
            **{name: column(name) for name in REPORT_METRICS},
            irr_multiple_roots_possible=np.array(
                [o.irr_multiple_roots_possible for o in outcomes], dtype=bool
            ),
            defined={
                name: np.array([getattr(o, name) is not None for o in outcomes], dtype=bool)
                for name in OPTIONAL_METRICS
            },
        )

    def __len__(self) -> int:
        return self.npv.shape[0]

    def values(self, name: str) -> np.ndarray:
        """The defined values of metric ``name``, in iteration order."""
        column = getattr(self, name)
        mask = self.defined.get(name)
        return column if mask is None else column[mask]


@dataclass(frozen=True)
class ValuationReport:
    n: int
    metrics: dict[str, SampleSummary]
    exclusions: dict[str, int]
    irr_multiple_root_iterations: int


def risk_adjusted_net(
    gross: float, risk_reduction: float, risk_increase: float, tco_total: float
) -> float:
    """Net value: gross + risk reduction - risk increase - total cost.

    Takes floats or equal-length columns.  The signed risk delta must be
    split into its nonnegative sides before entering here.
    """
    for name, side in (("risk_reduction", risk_reduction), ("risk_increase", risk_increase)):
        if getattr(side, "ndim", 0):  # a column: its lowest negative entry, else 0.0
            side = side[side < 0].min(initial=0.0)
        if side < 0:
            raise ValueError(f"{name} must be >= 0, got {side}")
    return gross + risk_reduction - risk_increase - tco_total


def _is_block(cashflows) -> bool:
    """Whether ``cashflows`` is an iterations x years array, by its shape alone."""
    return getattr(cashflows, "ndim", None) == 2


def _one_row(cashflows) -> Sequence[float]:
    """A row of floats: a 1-D array as its list, for the list's bits and errors."""
    return cashflows.tolist() if hasattr(cashflows, "tolist") else cashflows


def _quiet() -> np.errstate:
    """An inf or nan reached by overflow is a value, as on one row: no warning."""
    import numpy as np

    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def npv(cashflows: Sequence[float] | np.ndarray, rate: float) -> float | np.ndarray:
    """Present value of year-indexed flows; year 0 is undiscounted."""
    if _is_block(cashflows):
        with _quiet():
            return _npv_rows(cashflows, rate)
    cashflows = _one_row(cashflows)
    if not cashflows:
        raise ValueError("cashflows must be nonempty")
    if rate <= -1.0:
        raise ValueError(f"rate must exceed -1, got {rate}")
    factor = 1.0 + rate
    discount = 1.0
    terms = []
    for cf in cashflows:
        terms.append(cf / discount)
        discount *= factor
    return math.fsum(terms)


def _npv_rows(flows: np.ndarray, rate: float) -> np.ndarray:
    import numpy as np

    from .engine import fsum_rows

    if flows.shape[1] == 0:
        raise ValueError("cashflows must be nonempty")
    if rate <= -1.0:
        raise ValueError(f"rate must exceed -1, got {rate}")
    discount = np.multiply.accumulate(np.r_[1.0, np.full(flows.shape[1] - 1, 1.0 + rate)])
    if not discount.all():  # the one-row loop divides by the zero
        raise ZeroDivisionError("float division by zero")
    return fsum_rows(flows / discount)


def irr(cashflows: Sequence[float] | np.ndarray) -> float | None | np.ndarray:
    """Discount rate at which NPV crosses zero, or None when no root exists.

    Runs a bracketed bisection over (-0.999, 10.0] and returns the smallest
    root found.  Cash flows with a single sign change are bracketed
    directly; flows with several sign changes fall back to a grid scan, so
    later roots may exist (flagged upstream).

    Over a long horizon the discount factor (1 + rate)**t underflows to
    zero near the bracket's lower end, where the NPV lies beyond the float
    range: the division fails, or terms of both signs overflow and their
    sum is nan.  There the NPV counts as an infinity with the sign of
    NPV * (1 + rate)**T, T the last year, which is finite; so any horizon
    of finite flows gives a root or None, never an error.

    On an iterations x years array, the root of each row, nan for None.
    """
    if _is_block(cashflows):
        with _quiet():
            return _irr_rows(cashflows)
    cashflows = _one_row(cashflows)
    if not cashflows:
        raise ValueError("cashflows must be nonempty")
    changes = cashflow_sign_changes(cashflows)
    if changes == 0:
        return None
    lo, hi = _IRR_BRACKET
    scale = math.fsum(abs(cf) for cf in cashflows)
    tolerance = max(1e-6, 1e-9 * scale)
    flows = tuple(cashflows)

    def f(rate: float) -> float:
        # Plain accumulation: called ~40 times per bisection, and the
        # residual check below re-verifies against npv()'s tolerance.
        factor = 1.0 + rate
        discount = 1.0
        total = 0.0
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

    f_lo = f(lo)
    if changes == 1:
        # At most one root beyond -1; the bracket ends decide existence.
        if f_lo == 0.0:
            return lo
        f_hi = f(hi)
        if f_lo * f_hi > 0:
            return None
        return _bisect(f, lo, hi, f_lo, tolerance)
    step = (hi - lo) / _IRR_GRID_POINTS
    x_prev, f_prev = lo, f_lo
    for i in range(1, _IRR_GRID_POINTS + 1):
        x = lo + i * step
        fx = f(x)
        if f_prev == 0.0:
            return x_prev
        if f_prev * fx < 0:
            return _bisect(f, x_prev, x, f_prev, tolerance)
        x_prev, f_prev = x, fx
    if f_prev == 0.0:
        return x_prev
    return None


def _bisect(f, lo: float, hi: float, f_lo: float, tolerance: float) -> float:
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if abs(f_mid) <= tolerance and hi - lo <= 1e-10:
            return mid
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _npv_at(years: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The one-row ``irr``'s f on each column of years x rows flows, at its own rate."""
    import numpy as np

    factors = 1.0 + rates
    discount = np.ones(rates.shape[0])
    total = np.zeros(rates.shape[0])
    for t, cf in enumerate(years):
        if t:
            discount *= factors
        total += cf / discount
    # Once a discount underflows to 0 it stays 0, so the last one used tells.
    fallback = np.flatnonzero(np.isnan(total) | (discount == 0))
    if fallback.size:
        factors = factors[fallback]
        scaled = np.zeros(fallback.size)
        for cf in years[:, fallback]:
            scaled = scaled * factors + cf
        total[fallback] = np.where(scaled != 0, np.copysign(np.inf, scaled), 0.0)
    return total


def _irr_rows(flows: np.ndarray) -> np.ndarray:
    """``irr`` of every row: one lockstep bisection over all bracketed rows.

    Rows with several sign changes first scan the grid together, each row
    dropping out at its first sign change of f, so scratch memory stays
    one array of the rows still scanning.
    """
    import numpy as np

    from .engine import fsum_rows

    if flows.shape[1] == 0:
        raise ValueError("cashflows must be nonempty")
    roots = np.full(flows.shape[0], math.nan)
    changes = cashflow_sign_changes(flows)
    rows = np.flatnonzero(changes)
    flows, changes = flows[rows], changes[rows]
    scaled = 1e-9 * fsum_rows(np.abs(flows))
    tolerance = np.where(scaled > 1e-6, scaled, 1e-6)  # max(1e-6, scaled), nan included
    years = np.ascontiguousarray(flows.T)
    lo, hi = _IRR_BRACKET
    f_lo = _npv_at(years, np.full(rows.size, lo))
    brackets = []  # (positions into rows, lower ends, upper ends, f at the lower ends)

    single = np.flatnonzero(changes == 1)
    roots[rows[single[f_lo[single] == 0.0]]] = lo
    single = single[f_lo[single] != 0.0]
    f_hi = _npv_at(years[:, single], np.full(single.size, hi))
    single = single[~(f_lo[single] * f_hi > 0)]
    brackets.append((single, np.full(single.size, lo), np.full(single.size, hi), f_lo[single]))

    scanning = np.flatnonzero(changes > 1)
    f_prev = f_lo[scanning]
    step = (hi - lo) / _IRR_GRID_POINTS
    x_prev = lo
    for i in range(1, _IRR_GRID_POINTS + 1):
        if not scanning.size:
            break
        x = lo + i * step
        fx = _npv_at(years[:, scanning], np.full(scanning.size, x))
        zero = f_prev == 0.0
        roots[rows[scanning[zero]]] = x_prev
        crossed = ~zero & (f_prev * fx < 0)
        count = int(crossed.sum())
        brackets.append(
            (scanning[crossed], np.full(count, x_prev), np.full(count, x), f_prev[crossed])
        )
        going = ~(zero | crossed)
        scanning, f_prev, x_prev = scanning[going], fx[going], x
    roots[rows[scanning[f_prev == 0.0]]] = x_prev

    at, lows, highs, f_lows = (np.concatenate(parts) for parts in zip(*brackets))
    roots[rows[at]] = _bisect_rows(years[:, at], lows, highs, f_lows, tolerance[at])
    return roots


def _bisect_rows(
    years: np.ndarray, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, tolerance: np.ndarray
) -> np.ndarray:
    """``_bisect`` on every column of years x rows flows at once; each stops at its own step."""
    import numpy as np

    roots = np.empty(lo.size)
    at = np.arange(lo.size)
    for _ in range(_BISECT_STEPS):
        if not at.size:
            return roots
        mid = 0.5 * (lo + hi)
        f_mid = _npv_at(years, mid)
        done = (mid == lo) | (mid == hi) | ((np.abs(f_mid) <= tolerance) & (hi - lo <= 1e-10))
        lower = f_lo * f_mid <= 0
        hi = np.where(lower, mid, hi)
        lo, f_lo = np.where(lower, lo, mid), np.where(lower, f_lo, f_mid)
        if done.any():
            roots[at[done]] = mid[done]
            going = ~done
            years = years[:, going]
            at, lo, hi, f_lo, tolerance = (
                array[going] for array in (at, lo, hi, f_lo, tolerance)
            )
    roots[at] = 0.5 * (lo + hi)
    return roots


def cashflow_sign_changes(cashflows: Sequence[float] | np.ndarray) -> int | np.ndarray:
    """Number of sign alternations among nonzero flows (possible IRR roots).

    On an iterations x years array, the count of each row.
    """
    if _is_block(cashflows):
        import numpy as np

        signs = np.where(cashflows > 0, 1, np.where(cashflows != 0, -1, 0)).astype(np.int8)
        # Each year carries the sign of the row's last nonzero flow so far.
        years = np.arange(cashflows.shape[1])
        last = np.maximum.accumulate(np.where(signs != 0, years, 0), axis=1)
        carried = np.take_along_axis(signs, last, axis=1)
        return ((carried[:, 1:] != carried[:, :-1]) & (carried[:, :-1] != 0)).sum(axis=1)
    signs = [1 if cf > 0 else -1 for cf in cashflows if cf != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def payback_period(cashflows: Sequence[float] | np.ndarray) -> float | None | np.ndarray:
    """First time the cumulative flow reaches zero, interpolated within the year.

    Year-t flows accrue uniformly across (t-1, t].  Returns None when the
    cumulative sum never recovers inside the horizon.  On an iterations x
    years array, the payback of each row, nan for None.
    """
    if _is_block(cashflows):
        with _quiet():
            return _payback_rows(cashflows)
    cashflows = _one_row(cashflows)
    if not cashflows:
        raise ValueError("cashflows must be nonempty")
    cumulative = 0.0
    for t, cf in enumerate(cashflows):
        previous = cumulative
        cumulative += cf
        if cumulative >= 0:
            if t == 0 or previous >= 0:
                return float(t)
            return (t - 1) + (-previous) / cf
    return None


def _payback_rows(flows: np.ndarray) -> np.ndarray:
    import numpy as np

    if flows.shape[1] == 0:
        raise ValueError("cashflows must be nonempty")
    cumulative = np.add.accumulate(flows, axis=1)
    recovered = cumulative >= 0
    rows = np.flatnonzero(recovered.any(axis=1))
    years = recovered[rows].argmax(axis=1)
    paybacks = np.full(flows.shape[0], math.nan)
    paybacks[rows] = years
    # Past year 0 the previous cumulative sum is negative: interpolate.
    rows, years = rows[years > 0], years[years > 0]
    previous = cumulative[rows, years - 1]
    paybacks[rows] = (years - 1) + (-previous) / flows[rows, years]
    return paybacks


def evaluate_outcome(
    outcome: "IterationOutcome | SimulationResult", discount: DiscountSpec
) -> "ValuationOutcome | ValuationColumns":
    """Financial metrics for one iteration, from its outcome.

    NPV and the ROI denominator use the amortized cost schedule; IRR and
    payback run on cash-basis flows, since both measure recovery of actual
    outlays.  On a SimulationResult, the metrics of every iteration as
    columns.
    """
    if not isinstance(outcome, IterationOutcome):
        return _evaluate_columns(outcome, discount)
    *values, _ = _valuation(outcome, discount.annual_rate)
    return ValuationOutcome(*values)


def _valuation(outcome, rate: float, rows: slice | None = None) -> tuple:
    """The valuation of an outcome: ``ValuationOutcome``'s fields in order, then ROI's mask.

    Reads an ``IterationOutcome``'s floats and per-year tuples, or ``rows``
    of a ``SimulationResult``'s columns and iterations x years arrays; every
    step takes either, and calls each metric through this module's names.
    """

    def read(name: str):
        field = getattr(outcome, name)
        return field if rows is None else field[rows]

    net = risk_adjusted_net(
        read("gross_benefits"), read("risk_reduction"), read("risk_increase"), read("tco_total")
    )
    discounted_tco = npv(read("tco_per_year"), rate)
    # ROI is undefined where the discounted TCO is 0: None on a row, nan in a
    # column; a nan that a defined entry reaches by overflow stays a value.
    roi_defined = discounted_tco != 0
    if rows is None:
        roi_ratio = net / discounted_tco if roi_defined else None
    else:
        import numpy as np

        undefined = np.full(net.shape, math.nan)
        roi_ratio = np.divide(net, discounted_tco, out=undefined, where=roi_defined)
    cash_basis = read("cash_basis_flows")
    return (
        net,
        roi_ratio,
        npv(read("cash_flows"), rate),
        irr(cash_basis),
        payback_period(cash_basis),
        read("risk_delta"),
        cashflow_sign_changes(cash_basis) > 1,
        roi_defined,
    )


def _evaluate_columns(result: SimulationResult, discount: DiscountSpec) -> ValuationColumns:
    """The one-row metrics of every iteration, in the one-row order, as columns.

    Every step works row by row, so the run is valued in slices of at most
    ``_SLICE_CELLS`` iteration-years: scratch memory stays bounded on a
    long horizon and the columns keep the bits of one call over all rows.
    """
    import numpy as np

    rows = max(1, _SLICE_CELLS // result.tco_per_year.shape[1])
    with _quiet():
        parts = [
            _valuation(result, discount.annual_rate, slice(start, start + rows))
            for start in range(0, len(result), rows)
        ]
    *arrays, roi_defined = map(np.concatenate, zip(*parts))
    columns = dict(zip((field.name for field in fields(ValuationOutcome)), arrays))
    return ValuationColumns(
        **columns,
        defined={
            "roi_ratio": roi_defined,
            # Neither is nan where it is defined.
            "irr": ~np.isnan(columns["irr"]),
            "payback_years": ~np.isnan(columns["payback_years"]),
        },
    )


def build_report(outcomes: "ValuationColumns | Sequence[ValuationOutcome]") -> ValuationReport:
    """Percentile summaries per metric, excluding undefined values with counts.

    Takes a run's columns, as ``evaluate_outcome`` returns them for a
    SimulationResult, or one ValuationOutcome per iteration.
    """
    from .engine import summarize

    if not len(outcomes):
        raise ValueError("cannot build a report from zero outcomes")
    if not isinstance(outcomes, ValuationColumns):
        outcomes = ValuationColumns.from_outcomes(outcomes)
    n = len(outcomes)
    metrics: dict[str, SampleSummary] = {}
    exclusions: dict[str, int] = {}
    for name in REPORT_METRICS:
        values = outcomes.values(name)
        excluded = n - len(values)
        if excluded:
            exclusions[name] = excluded
        if len(values):
            metrics[name] = summarize(values)
    return ValuationReport(
        n=n,
        metrics=metrics,
        exclusions=exclusions,
        irr_multiple_root_iterations=int(outcomes.irr_multiple_roots_possible.sum()),
    )
