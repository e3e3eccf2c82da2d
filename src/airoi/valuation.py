"""Capital budgeting metrics and the risk-adjusted percentile report.

Composes the headline identity — gross benefits plus risk-reduction value,
minus risk-increase costs and total cost of ownership — and derives NPV,
IRR, payback, and the ROI ratio per iteration.  Summaries report the 10th,
50th, and 90th percentiles alongside mean and standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .engine import SampleSummary, summarize

if TYPE_CHECKING:  # pragma: no cover
    from .engine import IterationOutcome, IterationRow

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

_IRR_BRACKET = (-0.999, 10.0)
_IRR_GRID_POINTS = 512


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

    The signed risk delta must be split into its nonnegative sides before
    entering here.
    """
    if risk_reduction < 0:
        raise ValueError(f"risk_reduction must be >= 0, got {risk_reduction}")
    if risk_increase < 0:
        raise ValueError(f"risk_increase must be >= 0, got {risk_increase}")
    return gross + risk_reduction - risk_increase - tco_total


def npv(cashflows: Sequence[float], rate: float) -> float:
    """Present value of year-indexed flows; year 0 is undiscounted."""
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


def irr(cashflows: Sequence[float]) -> float | None:
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
    """
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
    for _ in range(200):
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


def cashflow_sign_changes(cashflows: Sequence[float]) -> int:
    """Number of sign alternations among nonzero flows (possible IRR roots)."""
    signs = [1 if cf > 0 else -1 for cf in cashflows if cf != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def payback_period(cashflows: Sequence[float]) -> float | None:
    """First time the cumulative flow reaches zero, interpolated within the year.

    Year-t flows accrue uniformly across (t-1, t].  Returns None when the
    cumulative sum never recovers inside the horizon.
    """
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


def evaluate_outcome(
    outcome: "IterationOutcome | IterationRow", discount: DiscountSpec
) -> ValuationOutcome:
    """Financial metrics for one iteration, from its outcome or its row.

    NPV and the ROI denominator use the amortized cost schedule; IRR and
    payback run on cash-basis flows, since both measure recovery of actual
    outlays.
    """
    net = risk_adjusted_net(
        outcome.gross_benefits,
        outcome.risk_reduction,
        outcome.risk_increase,
        outcome.tco_total,
    )
    discounted_tco = npv(outcome.tco_per_year, discount.annual_rate)
    roi_ratio = net / discounted_tco if discounted_tco != 0 else None
    return ValuationOutcome(
        net_risk_adjusted_benefit=net,
        roi_ratio=roi_ratio,
        npv=npv(outcome.cash_flows, discount.annual_rate),
        irr=irr(outcome.cash_basis_flows),
        payback_years=payback_period(outcome.cash_basis_flows),
        risk_delta=outcome.risk_delta,
        irr_multiple_roots_possible=cashflow_sign_changes(outcome.cash_basis_flows) > 1,
    )


def build_report(outcomes: Sequence[ValuationOutcome]) -> ValuationReport:
    """Percentile summaries per metric, excluding undefined values with counts."""
    if not outcomes:
        raise ValueError("cannot build a report from zero outcomes")
    n = len(outcomes)
    metrics: dict[str, SampleSummary] = {}
    exclusions: dict[str, int] = {}
    for name in REPORT_METRICS:
        values = [v for v in (getattr(o, name) for o in outcomes) if v is not None]
        excluded = n - len(values)
        if excluded:
            exclusions[name] = excluded
        if values:
            metrics[name] = summarize(values)
    return ValuationReport(
        n=n,
        metrics=metrics,
        exclusions=exclusions,
        irr_multiple_root_iterations=sum(
            1 for o in outcomes if o.irr_multiple_roots_possible
        ),
    )
