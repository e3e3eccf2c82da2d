"""Command-line interface: validate, evaluate, simulate, delta, track, plotdata.

Simulation reports are split into a deterministic ``body`` (covered by a
SHA-256 content hash) and an unhashed envelope carrying wall-clock timing
and the worker count, so re-running with the recorded seed and iteration
count reproduces the hashed body byte for byte at any parallelism level.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

from .benefits import benefit_schedule
from .config import (
    SEVERITY_ERROR,
    Diagnostic,
    PortfolioConfig,
    has_errors,
    load_actuals,
    load_config,
)
from .costs import amortize_capex, schedule_csv_rows, tco as costs_tco
from .model import ENGINE_METRICS, Portfolio, SimulationConfig, validate_simulation
from .quantities import sorted_percentile
from .risk import delta_table

if TYPE_CHECKING:  # pragma: no cover
    from .assembly import IterationOutcome
    from .engine import SampleSummary, SimulationResult
    from .valuation import ValuationColumns, ValuationReport


def _lazy(name: str):
    """This package's module ``name``, whose code runs on its first attribute read."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# The sampling side, with numpy: only the commands that draw load it.  Valuation
# loads numpy only where it values arrays; evaluate assembles and values one row
# without it.  Loading assembly here, before numpy, raised simulate's peak RSS
# by about 0.15 MB (allocator layout).
engine = _lazy("engine")
valuation_mod = _lazy("valuation")
assembly = _lazy("assembly")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

REPORT_SCHEMA_VERSION = 1

# Currency-valued fields are rounded to 2 decimals at serialization only.
_CURRENCY_METRICS = {"net_risk_adjusted_benefit", "npv", *ENGINE_METRICS}

# The valuation fields of a --dump-iterations row, after the engine metrics.
_DUMP_VALUATION = ("net_risk_adjusted_benefit", "npv", "roi_ratio", "irr", "payback_years")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.handler in (cmd_validate, cmd_delta, cmd_evaluate):  # they draw nothing
            return args.handler(args)
        import numpy as np

        # Reading an attribute runs a lazy module's code.  numpy, the engine and
        # valuation load before the config is read: loading them after it raised
        # simulate's peak RSS by about 1 MB (allocator layout).
        engine.run_simulation, valuation_mod.evaluate_outcome
        # Valid inputs can still carry a result past the float range: an
        # fsum overflows, inf - inf is nan, and JSON has no inf or nan.
        # That is reported once, below, rather than as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return EXIT_OK
    except (OverflowError, ValueError) as exc:
        print(f"error: a result is outside the float range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: the run does not fit in memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_IO


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airoi",
        description="Risk-adjusted ROI analysis for AI investment portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a portfolio config file")
    p_validate.add_argument("config")
    p_validate.set_defaults(handler=cmd_validate)

    p_evaluate = sub.add_parser("evaluate", help="deterministic mean-based valuation")
    p_evaluate.add_argument("config")
    p_evaluate.add_argument("--out", help="write the JSON report here instead of stdout")
    p_evaluate.add_argument(
        "--costs-csv",
        metavar="PATH",
        help="also write the analytic per-year cost schedule as CSV",
    )
    p_evaluate.set_defaults(handler=cmd_evaluate)

    p_simulate = sub.add_parser("simulate", help="Monte Carlo percentile report")
    p_simulate.add_argument("config")
    _add_simulation_flags(p_simulate)
    p_simulate.add_argument("--out", help="write the JSON report here instead of stdout")
    p_simulate.add_argument(
        "--dump-iterations",
        metavar="PATH",
        help="write one CSV row per iteration for external audit",
    )
    p_simulate.add_argument(
        "--metrics-csv",
        metavar="PATH",
        help="also write the per-metric percentile summary as CSV",
    )
    p_simulate.set_defaults(handler=cmd_simulate)

    p_delta = sub.add_parser("delta", help="per-scenario risk delta table (CSV)")
    p_delta.add_argument("config")
    p_delta.add_argument("--out", help="write the CSV here instead of stdout")
    p_delta.set_defaults(handler=cmd_delta)

    p_track = sub.add_parser("track", help="compare quarterly actuals against projections")
    p_track.add_argument("config")
    p_track.add_argument("actuals")
    p_track.add_argument("--out", help="write the CSV here instead of stdout")
    p_track.set_defaults(handler=cmd_track)

    p_plot = sub.add_parser("plotdata", help="histogram and CDF data for one metric (CSV)")
    p_plot.add_argument("config")
    p_plot.add_argument("--metric", required=True)
    _add_simulation_flags(p_plot)
    p_plot.add_argument("--out", help="write the CSV here instead of stdout")
    p_plot.set_defaults(handler=cmd_plotdata)
    return parser


def _add_simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, help="override the configured iteration count")
    parser.add_argument("--seed", type=int, help="override the configured master seed")
    parser.add_argument("--workers", help="worker processes: a positive integer or 'auto'")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _print_diagnostics(diagnostics: Sequence[Diagnostic]) -> None:
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)


def _load_or_fail(path: str) -> PortfolioConfig | None:
    config, diagnostics = load_config(path)
    _print_diagnostics(diagnostics)
    if config is None or has_errors(diagnostics):
        return None
    return config


def _resolve_simulation(config: PortfolioConfig, args) -> SimulationConfig | None:
    """The configured run settings with the command-line overrides applied."""
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        try:
            overrides["worker_count"] = int(args.workers)
        except ValueError:  # "auto" is read by SimulationConfig, the rest reported as given
            overrides["worker_count"] = args.workers
    sim = replace(config.simulation, **overrides)
    errors = validate_simulation(sim)
    _print_diagnostics([Diagnostic(SEVERITY_ERROR, "simulation", message) for message in errors])
    return None if errors else sim


def _write(out: str | None, emit: Callable[[TextIO], object]) -> int:
    """Run ``emit`` on ``out``, or on stdout when ``out`` is None.

    The one place an output path is opened: a failure to write it is one
    error line and exit 3.
    """
    if out is None:
        emit(sys.stdout)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_text(text: str, out: str | None) -> int:
    return _write(out, lambda handle: handle.write(text))


def _write_csv(rows: Iterable[Sequence], out: str | None) -> int:
    """CSV with LF line ends, as every command writes it."""
    return _write(out, lambda handle: csv.writer(handle, lineterminator="\n").writerows(rows))


def _serialized(name: str, value):
    """The value of metric ``name`` as reports write it: money to 2 decimals."""
    return round(value, 2) if name in _CURRENCY_METRICS else value


def _summary_dict(name: str, summary: SampleSummary) -> dict:
    return {
        key: value if key == "n" else _serialized(name, value)
        for key, value in asdict(summary).items()
    }


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _body_hash(body: dict) -> str:
    return hashlib.sha256(_canonical_json(body).encode("utf-8")).hexdigest()


def _valuations(result: SimulationResult | IterationOutcome, portfolio: Portfolio):
    discount = valuation_mod.DiscountSpec(portfolio.discount_rate)
    return valuation_mod.evaluate_outcome(result, discount)


def _valued_run(portfolio: Portfolio, sim: SimulationConfig) -> ValuationColumns:
    """The run's valuation columns: each block is valued as it arrives, then dropped."""
    return run_simulation(portfolio, sim, reduce=partial(_valuations, portfolio=portfolio))


# The model's entry points under names of this module: the handlers call these,
# so a tracer that wraps them sees every call.
def run_simulation(portfolio: Portfolio, sim: SimulationConfig, reduce=None):
    return engine.run_simulation(portfolio, sim, reduce)


def analytic_evaluate(portfolio: Portfolio) -> IterationOutcome:
    return assembly.analytic_evaluate(portfolio)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    config, diagnostics = load_config(args.config)
    _print_diagnostics(diagnostics)
    if config is None or has_errors(diagnostics):
        return EXIT_VALIDATION
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    print(f"{args.config}: valid ({warnings} warning(s))")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_or_fail(args.config)
    if config is None:
        return EXIT_VALIDATION
    portfolio = config.portfolio
    outcome = analytic_evaluate(portfolio)
    valuation = _valuations(outcome, portfolio)
    if args.costs_csv:
        schedule = costs_tco(
            portfolio.capex, portfolio.opex, portfolio.cost_rules, portfolio.horizon_years
        )
        status = _write_csv(schedule_csv_rows(schedule), args.costs_csv)
        if status != EXIT_OK:
            return status
    values = {name: getattr(outcome, name) for name in ENGINE_METRICS}
    values.update((name, getattr(valuation, name)) for name in valuation_mod.REPORT_METRICS)
    body = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "report_kind": "analytic_evaluation",
        "config": _config_block(config),
        "valuation": {name: _serialized(name, value) for name, value in values.items()},
        "notes": _report_notes(),
    }
    report = {"body": body, "body_sha256": _body_hash(body)}
    return _write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def cmd_simulate(args) -> int:
    config = _load_or_fail(args.config)
    if config is None:
        return EXIT_VALIDATION
    sim = _resolve_simulation(config, args)
    if sim is None:
        return EXIT_VALIDATION
    portfolio = config.portfolio

    started = time.perf_counter()
    if args.dump_iterations:  # the dump writes each row's engine metrics: keep the rows
        result = run_simulation(portfolio, sim)
        valuations = _valuations(result, portfolio)
    else:
        valuations = _valued_run(portfolio, sim)
    report = valuation_mod.build_report(valuations)
    elapsed = time.perf_counter() - started

    # Hashing rejects a value JSON cannot hold, so it runs before any file is written.
    body = _simulation_body(config, sim, report, executed_iterations=len(valuations))
    envelope = {
        "body": body,
        "body_sha256": _body_hash(body),
        "timing": {"elapsed_seconds": elapsed},
        "worker_count": sim.worker_count if sim.worker_count is not None else "auto",
    }
    if args.dump_iterations:
        status = _write_csv(_dump_rows(result, valuations), args.dump_iterations)
        if status != EXIT_OK:
            return status
    if args.metrics_csv:
        status = _write_csv(_metric_csv_rows(report), args.metrics_csv)
        if status != EXIT_OK:
            return status
    return _write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n", args.out)


def _config_block(config: PortfolioConfig) -> dict:
    portfolio = config.portfolio
    return {
        "name": portfolio.name,
        "sha256": config.content_hash,
        "currency": portfolio.currency,
        "horizon_years": portfolio.horizon_years,
        "discount_rate": portfolio.discount_rate,
    }


def _report_notes() -> dict:
    return {
        "roi_ratio_definition": (
            "net_risk_adjusted_benefit / discounted total cost of ownership"
        ),
        "payback_basis": "cash (capex booked in its incurred year)",
    }


def _simulation_body(
    config: PortfolioConfig,
    sim: SimulationConfig,
    report: ValuationReport,
    executed_iterations: int,
) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "report_kind": "simulation",
        "config": _config_block(config),
        "simulation": {
            "master_seed": sim.master_seed,
            "iterations": executed_iterations,
            "requested_iterations": sim.iterations,
        },
        "metrics": {
            name: _summary_dict(name, summary) for name, summary in report.metrics.items()
        },
        "exclusions": report.exclusions,
        "irr_multiple_root_iterations": report.irr_multiple_root_iterations,
        "notes": _report_notes(),
    }


def _metric_csv_rows(report: ValuationReport) -> Iterator[list]:
    yield ["metric", *(field.name for field in fields(engine.SampleSummary)), "excluded"]
    for name in valuation_mod.REPORT_METRICS:
        summary = report.metrics.get(name)
        if summary is not None:
            cells = _summary_dict(name, summary).values()
            yield [name, *cells, report.exclusions.get(name, 0)]


def _dump_rows(result: SimulationResult, valuations: ValuationColumns) -> Iterator[list]:
    """One CSV row per iteration: its engine metrics, then its valuation."""
    yield ["iteration", *ENGINE_METRICS, *_DUMP_VALUATION]
    columns = [getattr(result, name).tolist() for name in ENGINE_METRICS]
    for name in _DUMP_VALUATION:
        cells = getattr(valuations, name).tolist()
        defined = valuations.defined.get(name)
        if defined is not None:
            cells = [cell if ok else "" for cell, ok in zip(cells, defined.tolist())]
        columns.append(cells)
    for index, cells in enumerate(zip(*columns)):
        yield [index, *cells]


def cmd_delta(args) -> int:
    config = _load_or_fail(args.config)
    if config is None:
        return EXIT_VALIDATION
    lines = [["scenario_id", "classification", "ale_current", "ale_ai", "delta"]]
    totals = (0.0, 0.0, 0.0)
    for scenario_id, classification, *values in delta_table(config.portfolio.register):
        totals = tuple(total + value for total, value in zip(totals, values))
        lines.append([scenario_id, classification, *(f"{value:.2f}" for value in values)])
    if not all(map(math.isfinite, totals)):
        raise ValueError(f"scenario ALE totals are not finite: {totals}")
    lines.append(["TOTAL", "", *(f"{total:.2f}" for total in totals)])
    return _write_csv(lines, args.out)


# -- track -------------------------------------------------------------------


def cmd_track(args) -> int:
    import numpy as np

    config = _load_or_fail(args.config)
    if config is None:
        return EXIT_VALIDATION
    records, diagnostics = load_actuals(args.actuals, config)
    _print_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return EXIT_VALIDATION

    portfolio = config.portfolio
    result = run_simulation(portfolio, config.simulation)
    projections = _track_projections(portfolio, result)
    rows = [
        [
            "period",
            "record_type",
            "id",
            "projected",
            "actual",
            "variance",
            "band_low",
            "band_high",
            "flagged",
        ]
    ]
    for record in records:
        period = f"Y{record.year}Q{record.quarter}"
        for record_type, actuals in (
            ("benefit", record.benefits),
            ("cost", record.costs),
            ("loss", record.losses),
        ):
            for item_id, actual in sorted(actuals.items()):
                quarter = projections[record_type][item_id][record.year] / 4.0
                rows.append(
                    _variance_row(
                        period, record_type, item_id, actual, *np.broadcast_to(quarter, 3)
                    )
                )
    return _write_csv(rows, args.out)


def _track_projections(portfolio: Portfolio, result: SimulationResult) -> dict[str, dict]:
    """Per-year [projection, p10, p90] of each benefit, cost and loss by id.

    Each item's analytic mean and the p10 and p90 of its simulated annual
    value go as one column through the model's own rule for that item; a
    year the rule does not charge is the float 0.0.
    """
    import numpy as np

    horizon = portfolio.horizon_years
    analytic = analytic_evaluate(portfolio)

    def spread(means: dict, draws: dict) -> dict[str, np.ndarray]:
        spreads = {}
        for item_id, values in draws.items():
            ordered = engine.sort_column(values)
            band = (sorted_percentile(ordered, 0.10), sorted_percentile(ordered, 0.90))
            spreads[item_id] = np.array([means[item_id], *band])
        return spreads

    benefits = spread(analytic.benefit_values, result.benefit_values)
    costs = spread(analytic.cost_values, result.cost_values)
    losses = spread(  # the post-implementation state
        {item_id: ai for item_id, (_, ai) in analytic.scenario_losses.items()},
        {item_id: ai for item_id, (_, ai) in result.scenario_losses.items()},
    )
    cost_rows = {
        item.id: amortize_capex(item, horizon, amount=costs[item.id], cash_basis=True)
        for item in portfolio.capex
    }
    cost_rows.update(
        (item.id, costs_tco([], [item], portfolio.cost_rules, horizon, amounts=costs).opex)
        for item in portfolio.opex
    )
    return {
        "benefit": {
            item.id: benefit_schedule([item], horizon, benefits) for item in portfolio.benefits
        },
        "cost": cost_rows,
        "loss": {item_id: [column] * horizon for item_id, column in losses.items()},
    }


def _variance_row(
    period: str,
    record_type: str,
    item_id: str,
    actual: float,
    projected: float,
    band_low: float,
    band_high: float,
) -> list:
    flagged = not (band_low <= actual <= band_high)
    return [
        period,
        record_type,
        item_id,
        f"{projected:.2f}",
        f"{actual:.2f}",
        f"{actual - projected:.2f}",
        f"{band_low:.2f}",
        f"{band_high:.2f}",
        "yes" if flagged else "no",
    ]


# -- plotdata ----------------------------------------------------------------

_PLOT_BINS = 50


def cmd_plotdata(args) -> int:
    import numpy as np

    config = _load_or_fail(args.config)
    if config is None:
        return EXIT_VALIDATION
    metric = args.metric
    if metric not in valuation_mod.REPORT_METRICS:
        print(
            f"error: unknown metric {metric!r}; valid metrics: "
            + ", ".join(valuation_mod.REPORT_METRICS),
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    sim = _resolve_simulation(config, args)
    if sim is None:
        return EXIT_VALIDATION
    defined = _valued_run(config.portfolio, sim).values(metric)
    if not defined.size:
        print(f"error: metric {metric!r} is undefined for every iteration", file=sys.stderr)
        return EXIT_VALIDATION
    ordered = engine.sort_column(defined)
    low, high = ordered[[0, -1]].tolist()
    width = (high - low) / _PLOT_BINS
    # The bins need finite values, a finite span and, unless every value is
    # the same, a width that does not round to 0.
    if not (np.isfinite(ordered).all() and np.isfinite(width) and (width > 0 or low == high)):
        raise ValueError(f"metric {metric!r} or its span leaves the float range")

    n = len(ordered)
    rows = [["kind", "x0", "x1", "value"]]
    if low == high:
        rows.append(["bin", f"{low!r}", f"{high!r}", n])
        rows.append(["cdf", f"{high!r}", "", 1.0])
    else:
        edges = [low + i * width for i in range(_PLOT_BINS)] + [high]
        slots = np.minimum(((ordered - low) / width).astype(np.int64), _PLOT_BINS - 1)
        counts = np.bincount(slots, minlength=_PLOT_BINS)
        shares = np.cumsum(counts) / n
        for x0, x1, count in zip(edges, edges[1:], counts.tolist()):
            rows.append(["bin", f"{x0!r}", f"{x1!r}", count])
        for x1, share in zip(edges[1:], shares.tolist()):
            rows.append(["cdf", f"{x1!r}", "", share])
    return _write_csv(rows, args.out)


if __name__ == "__main__":
    sys.exit(main())
