"""Monte Carlo orchestration over a full portfolio model.

Every uncertain input owns a named substream, seeded by its stream key,
and each iteration derives its generators independently, so results are
identical for any worker count and unchanged for existing items when new
ones are added.  Results are held as columns ordered by iteration index.
It owns the block schedule and early stopping; :mod:`airoi.distributions`
draws, and :mod:`airoi.assembly` holds the stream table and the rows.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .assembly import (  # noqa: F401  (their former home: re-exported)
    IterationOutcome, _streams, analytic_evaluate, assemble, benefit_stream_key,
    capex_stream_key, opex_stream_key, risk_stream_key,
)
from .distributions import draw_streams
from .model import (  # noqa: F401  (their former home: re-exported)
    ENGINE_METRICS, MAX_HORIZON_YEARS, MAX_ITERATIONS, Portfolio, SimulationConfig,
    validate_portfolio, validate_simulation,
)
from .quantities import percentile

# The per-iteration arrays of a SimulationResult, in IterationOutcome order:
# the engine metrics, then the per-year rows.
_ROW_FIELDS = ENGINE_METRICS + ("cash_flows", "cash_basis_flows", "tco_per_year")

_EARLY_STOP_BLOCK = 1000
# Iterations per kernel pass, whole early-stop steps: bounds the scratch arrays.
_KERNEL_BLOCK = 4 * _EARLY_STOP_BLOCK


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    standard_error: float
    p10: float
    p50: float
    p90: float
    min: float
    max: float


@dataclass(eq=False)
class SimulationResult:
    """A run's results as struct-of-arrays: row ``r`` of every array is iteration ``r``.

    Per-iteration metrics are 1-D, per-year rows are iterations x horizon,
    and the per-item draws are one 1-D array per item id.  ``outcomes`` is
    built from the arrays on first read and then kept.
    """

    gross_benefits: np.ndarray
    risk_reduction: np.ndarray
    risk_increase: np.ndarray
    tco_total: np.ndarray
    risk_delta: np.ndarray
    cash_flows: np.ndarray
    cash_basis_flows: np.ndarray
    tco_per_year: np.ndarray
    benefit_values: dict[str, np.ndarray]
    cost_values: dict[str, np.ndarray]
    scenario_losses: dict[str, tuple[np.ndarray, np.ndarray]]

    def _arrays(self) -> list[np.ndarray]:
        """Every array, in one order for every block of a run."""
        return [
            *(getattr(self, name) for name in _ROW_FIELDS),
            *self.benefit_values.values(),
            *self.cost_values.values(),
            *(losses for pair in self.scenario_losses.values() for losses in pair),
        ]

    def _map(self, fn) -> "SimulationResult":
        """The result whose every array is ``fn`` of this one's."""
        return SimulationResult(
            **{name: fn(getattr(self, name)) for name in _ROW_FIELDS},
            benefit_values={key: fn(values) for key, values in self.benefit_values.items()},
            cost_values={key: fn(values) for key, values in self.cost_values.items()},
            scenario_losses={
                key: (fn(current), fn(ai)) for key, (current, ai) in self.scenario_losses.items()
            },
        )

    def __len__(self) -> int:
        return self.gross_benefits.shape[0]

    @cached_property
    def outcomes(self) -> list[IterationOutcome]:
        """One :class:`IterationOutcome` per row, in iteration order."""
        columns = [getattr(self, name).tolist() for name in _ROW_FIELDS]
        benefits = {key: values.tolist() for key, values in self.benefit_values.items()}
        costs = {key: values.tolist() for key, values in self.cost_values.items()}
        losses = {
            key: list(zip(current.tolist(), ai.tolist()))
            for key, (current, ai) in self.scenario_losses.items()
        }
        return [
            IterationOutcome(
                i,
                *row[:5],
                *map(tuple, row[5:]),
                benefit_values={key: values[i] for key, values in benefits.items()},
                cost_values={key: values[i] for key, values in costs.items()},
                scenario_losses={key: values[i] for key, values in losses.items()},
            )
            for i, row in enumerate(zip(*columns))
        ]


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


def _matrix(row: Sequence, n: int) -> np.ndarray:
    """Iterations x years array from a row of per-year floats or columns."""
    matrix = np.empty((n, len(row)))
    for year, value in enumerate(row):
        matrix[:, year] = value
    return matrix


def fsum_rows(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row, so a row's total has the one-row bits.

    A row whose partial sums overflow raises ``OverflowError``
    (``intermediate overflow in fsum``), first row first, as on one row.
    """
    return np.fromiter(map(math.fsum, rows.tolist()), dtype=float, count=rows.shape[0])


def _assemble_columns(
    portfolio: Portfolio, n: int, columns: dict[str, np.ndarray]
) -> SimulationResult:
    """Rows of ``n`` iterations from each stream's column, keyed by stream key.

    Every column has length ``n``; this is :func:`airoi.assembly.assemble`
    over columns, whose per-year rows stack into iterations x years arrays
    and whose totals are ``math.fsum`` per row.
    """
    return SimulationResult(
        **assemble(
            portfolio,
            columns,
            zeros=partial(np.zeros, n),
            where=np.where,
            stack=lambda row: _matrix(row, n),
            total=fsum_rows,
        )
    )


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------


def _run_block(portfolio: Portfolio, master_seed: int, start: int, stop: int) -> SimulationResult:
    """Rows ``start`` to ``stop`` of a run, drawn in one kernel pass."""
    columns = draw_streams(master_seed, _streams(portfolio), start, stop)
    return _assemble_columns(portfolio, stop - start, columns)


def run_simulation(portfolio: Portfolio, cfg: SimulationConfig) -> SimulationResult:
    """Run the configured number of iterations.

    Outcome ``i`` depends only on the master seed, the item stream keys,
    and ``i`` itself; worker count changes scheduling, never results, so
    no more workers run than the host has CPUs.  Every run walks one list
    of blocks, serially or on a pool: each is whole 1000-iteration steps
    and at most one kernel pass, and writes its rows into the run's arrays
    as it arrives.  With ``target_relative_se`` set, the run stops after
    the first step whose net-benefit standard error is small enough
    relative to its mean, which keeps early stopping deterministic.
    """
    errors, _ = validate_portfolio(portfolio)
    errors += validate_simulation(cfg)
    if errors:
        raise ValueError("invalid simulation input: " + "; ".join(errors))
    cpus = os.cpu_count() or 1
    workers = min(cfg.worker_count or cpus, cpus)
    steps = -(-cfg.iterations // _EARLY_STOP_BLOCK)
    # Blocks are as long as the fewest passes, a multiple of the worker count, need;
    # only the last is short (3000/4000-row blocks cost 1.3 MB of peak RSS at 3x10^4).
    passes = workers * -(-steps // (workers * (_KERNEL_BLOCK // _EARLY_STOP_BLOCK)))
    bounds = [*range(0, cfg.iterations, -(-steps // passes) * _EARLY_STOP_BLOCK), cfg.iterations]
    run_block = partial(_run_block, portfolio, cfg.master_seed)
    stop_rule = None if cfg.target_relative_se is None else _StopRule(cfg.target_relative_se, steps)
    workers = min(workers, len(bounds) - 1)
    result = None
    held = []  # a pooled run's blocks, until the pool is shut down
    start = 0
    rows = cfg.iterations
    pool = None
    if workers > 1:  # only a pooled run loads the process-pool modules
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        walk = map if pool is None else partial(_bounded_map, pool, workers)
        for block in walk(run_block, bounds, bounds[1:]):
            end = start + len(block)
            if result is None and (end == cfg.iterations or stop_rule is not None):
                result = block  # the whole run, or the first block of an early-stopped one
            else:  # each block writes its rows in place
                if result is None or end > len(result):
                    # A plain run sizes its arrays once.  An early-stopped one doubles
                    # them, so a stop in the first steps of a long run holds about
                    # what it drew, not cfg.iterations rows.
                    size = cfg.iterations
                    if stop_rule is not None:
                        size = min(size, max(2 * len(result), end))
                    result = _grown(block if result is None else result, start, size)
                for whole, part in zip(result._arrays(), block._arrays()):
                    whole[start:end] = part
            if stop_rule is not None and (kept := stop_rule.stop(block)) is not None:
                rows = start + kept
                break
            start = end
            if pool is not None:
                # Freed while the pool's result thread runs, pooled blocks stay in
                # that thread's malloc arena: a two-block run on two workers then
                # peaked at 59.5 instead of 55.6 MB in about half the runs.
                held.append(block)
            del block  # a serial run's block is not held while the next is drawn
    finally:
        if pool is not None:  # blocks queued past a stop or a failure never run
            pool.shutdown(cancel_futures=True)
    # An exact-size copy: a view would keep a stopped run's spare rows alive.
    return result if rows == len(result) else result._map(lambda a: a[:rows].copy())


def _grown(result: SimulationResult, rows: int, size: int) -> SimulationResult:
    """Arrays of ``size`` rows shaped as ``result``'s, holding its first ``rows`` rows."""

    def grow(values: np.ndarray) -> np.ndarray:
        grown = np.empty((size, *values.shape[1:]), values.dtype)
        grown[:rows] = values[:rows]
        return grown

    return result._map(grow)


def _bounded_map(pool, depth: int, fn, *iterables):
    """``pool.map(fn, *iterables)`` with at most ``depth`` calls submitted and not yet read.

    ``pool.map`` submits every call at once, and a shutdown cannot cancel the
    ones already in the workers' call queue.
    """
    futures: deque = deque()
    for args in zip(*iterables):
        futures.append(pool.submit(fn, *args))
        if len(futures) == depth:
            yield futures.popleft().result()
    while futures:
        yield futures.popleft().result()


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53: the bound on k roundings."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def _exact_partials(values: list[float]) -> list[float]:
    """Doubles whose exact sum is that of ``values``, the correctly rounded sum first.

    Each is ``math.fsum`` of the remainder the ones before it leave; a sum
    of doubles is a multiple of 2**-1074, so the remainder reaches 0.
    """
    terms = list(values)
    partials: list[float] = []
    while (partial := math.fsum(terms)) != 0.0:
        partials.append(partial)
        terms.append(-partial)
    return partials


class _StopRule:
    """Early stopping on the net benefit, in time linear in the run length.

    After each 1000-iteration step, :meth:`reached` answers
    ``standard_error(nets) / abs(mean) <= target`` over every net so far,
    where ``mean`` is ``math.fsum(nets) / n``, as that expression would:

    - The sum is kept as exact partials, so the mean has ``fsum``'s bits.
    - The ratio is first bounded from each step's numpy two-pass
      statistics (count, mean, squared deviations, absolute sum).  With
      ``c`` the mean, Q = sum (x - c)^2 splits by step as
      sum_b [M_b + n_b (m_b - c)^2 + 2 (m_b - c) D_b], where
      D_b = sum_b x - n_b m_b.  A sum of k floats in any order errs by at
      most gamma_(k-1) times the sum of magnitudes (Higham 2002, ch. 4),
      so |D_b| <= gamma_(n_b) A_b, M_b and the squares carry gamma_(n_b+2)
      relative, and the sum over steps adds gamma_(steps).
      ``standard_error``'s own roundings (fsum of rounded squares, two
      square roots, three divisions) stay within gamma_8 of sqrt(Q).
    - Only when those bounds straddle the target does the exact
      ``standard_error`` run over every net.

    The bounds hold while every net lies within 2**480, far below
    overflow; a non-finite or larger net sends every later decision to the
    exact expression.
    """

    _LIMIT = 2.0**480

    def __init__(self, target: float, steps: int):
        self.target = target
        self._nets: list[np.ndarray] = []
        self._n = 0
        self._partials: list[float] = []
        # Per step: n_b, m_b, M_b, A_b.
        self._stats = np.empty((steps, 4))
        self._steps = 0
        self._exact_only = False

    def stop(self, block: SimulationResult) -> int | None:
        """Rows of ``block`` up to the first step that meets the target, or None."""
        nets = block.gross_benefits + block.risk_reduction - block.risk_increase - block.tco_total
        for lo in range(0, nets.size, _EARLY_STOP_BLOCK):
            if self.reached(nets[lo : lo + _EARLY_STOP_BLOCK]):
                return min(lo + _EARLY_STOP_BLOCK, nets.size)
        return None

    def reached(self, nets: np.ndarray) -> bool:
        """Whether the nets so far, these appended, meet the target."""
        self._nets.append(nets)
        self._n += nets.size
        if self._exact_only or not (np.abs(nets) <= self._LIMIT).all():
            self._exact_only = True
            every = np.concatenate(self._nets).tolist()
            net_mean = math.fsum(every) / self._n
            return self._n >= 2 and net_mean != 0 and self._exact_ratio(every, net_mean)
        self._partials = _exact_partials(self._partials + nets.tolist())
        step_mean = nets.sum() / nets.size
        deviations = nets - step_mean
        self._stats[self._steps] = (
            nets.size,
            step_mean,
            (deviations * deviations).sum(),
            np.abs(nets).sum(),
        )
        self._steps += 1
        n = self._n
        net_mean = math.fsum(self._partials) / n
        if n < 2 or net_mean == 0:
            return False

        counts, means, squares, magnitudes = self._stats[: self._steps].T
        shift = means - net_mean
        q = float((squares + counts * (shift * shift)).sum())
        widest = int(counts.max())
        cross = float((np.abs(shift) * magnitudes).sum())
        q_error = (
            _gamma(widest + 7 + self._steps) * q
            + 2 * _gamma(widest + 1) * cross
            + n * 2.0**-1070
        )
        scale = math.sqrt(n - 1) * math.sqrt(n) * abs(net_mean)
        slack = _gamma(8) + 2.0**-40  # standard_error's roundings, and this bound's own
        if math.sqrt(q + 2 * q_error) / scale * (1 + slack) <= self.target:
            return True
        if math.sqrt(max(q - 2 * q_error, 0.0)) / scale * (1 - slack) > self.target:
            return False
        return self._exact_ratio(np.concatenate(self._nets).tolist(), net_mean)

    def _exact_ratio(self, every: list[float], net_mean: float) -> bool:
        return standard_error(every) / abs(net_mean) <= self.target


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def standard_error(samples: Sequence[float]) -> float:
    """Sample standard deviation over sqrt(n); needs at least two samples."""
    n = len(samples)
    if n < 2:
        raise ValueError(f"standard error needs n >= 2, got {n}")
    center = math.fsum(samples) / n
    variance = math.fsum((x - center) ** 2 for x in samples) / (n - 1)
    return math.sqrt(variance) / math.sqrt(n)


def summarize(values: np.ndarray | Sequence[float]) -> SampleSummary:
    """Percentile summary of one metric's samples."""
    # A stable sort keeps ties, -0.0 and 0.0 among them, in input order as
    # sorted() does.  Python floats keep standard_error's squares CPython's:
    # numpy's array x ** 2 can differ in the last bit.
    ordered = np.sort(np.asarray(values, dtype=float), kind="stable").tolist()
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot summarize zero samples")
    return SampleSummary(
        n=n,
        mean=math.fsum(ordered) / n,
        standard_error=standard_error(ordered) if n >= 2 else 0.0,
        p10=percentile(ordered, 0.10),
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        min=ordered[0],
        max=ordered[-1],
    )
