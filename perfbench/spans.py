"""In-memory span recording around the public functions the CLI reaches.

The traced child wraps module attributes at run time; no source file of
the program changes.  A span is ``(span_id, parent_id, name, start, end)``
with ``perf_counter`` times; all spans of one child share its run id.
Spans are kept in memory and written once, when the command has finished.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Callable, Sequence

# (module, attribute, span name).  The CLI calls these through the ``cli``
# module's own bindings and the ``valuation`` module object, and
# ``evaluate_outcome`` reaches ``npv``/``irr``/``payback_period`` through
# its module globals, so patching the attributes catches every call.
WRAPPED = (
    ("airoi.cli", "load_config", "config.load_config"),
    ("airoi.cli", "run_simulation", "engine.run_simulation"),
    ("airoi.cli", "analytic_evaluate", "engine.analytic_evaluate"),
    ("airoi.valuation", "evaluate_outcome", "valuation.evaluate_outcome"),
    ("airoi.valuation", "irr", "valuation.irr"),
    ("airoi.valuation", "npv", "valuation.npv"),
    ("airoi.valuation", "payback_period", "valuation.payback_period"),
    ("airoi.valuation", "build_report", "valuation.build_report"),
)
MAIN_SPAN = "cli.main"
LOAD_SPAN = "config.load_config"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _current_rss_kb() -> int | None:
    """Resident set size now (not the high-water mark); None off Linux."""
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
    except OSError:
        return None
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


class SpanRecorder:
    """Collects nested spans of one process; single-threaded use only."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self.rss_after_load_kb: int | None = None
        self.loaded_config = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append((span_id, parent, name, 0.0, 0.0))
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if name == LOAD_SPAN:
                self.rss_after_load_kb = _current_rss_kb()
                self.loaded_config = result[0] if isinstance(result, tuple) else result
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists.

        A target a later refactor removed is skipped, so its span and the
        metrics built on it are absent rather than zero.
        """
        for module_name, attribute, name in WRAPPED:
            module = sys.modules.get(module_name)
            fn = getattr(module, attribute, None)
            if fn is not None:
                setattr(module, attribute, self.wrap(name, fn))


def self_times(spans: Sequence[Sequence]) -> dict[int, float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, _name, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span_id] = (end - start) - covered
    return result


def totals_by_name(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span_id, _parent, name, start, end in spans:
        entry = totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[span_id]
    return totals


def config_counts(config) -> dict[str, float]:
    """Per-iteration work implied by a loaded config, via public helpers.

    A helper a later refactor removed leaves its count absent.
    """
    counts: dict[str, float] = {}
    try:
        from airoi.distributions import frequency_mean, is_degenerate
    except ImportError:
        return counts
    portfolio = config.portfolio
    quantities = (
        [item.annual_value for item in portfolio.benefits]
        + [item.amount for item in portfolio.capex]
        + [item.annual_amount for item in portfolio.opex]
    )
    states = [
        freq
        for scenario in portfolio.register.scenarios
        for freq in (scenario.frequency_for("current"), scenario.frequency_for("ai"))
        if freq is not None
    ]
    counts["distributions.substreams_per_iter"] = sum(
        1 for q in quantities if not is_degenerate(q)
    ) + len(states)
    counts["risk.expected_events_per_iter"] = sum(frequency_mean(f) for f in states)
    return counts


def dump(recorder: SpanRecorder, path: str, extra: dict) -> None:
    """Write the run's spans and process-level marks as one JSON document."""
    document = {
        "run_id": recorder.run_id,
        "spans": recorder.spans,
        "rss_after_load_kb": recorder.rss_after_load_kb,
        "peak_rss_kb": _maxrss_kb(),
        **extra,
    }
    if recorder.loaded_config is not None:
        document["counts"] = config_counts(recorder.loaded_config)
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
