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
from functools import cached_property, lru_cache, partial
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
from .quantities import sorted_percentile
from .valuation import risk_adjusted_net

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

    ``_SUM_SLICE`` rows at a time, a TwoSum cascade over the years makes
    each row's exact sum ``total`` + E, E the sum of its error terms e_k.
    A second cascade adds the e_k into ``errors`` with error terms f_k, so
    E = ``errors`` + sum f_k exactly.  ``missed`` adds the |f_k| in order,
    within gamma_years < 1/2 of their sum, so 2 ``missed`` bounds
    |E - ``errors``|, and is 0 where ``errors`` is E.  :func:`_certified`
    keeps each row's result where it must equal ``fsum``'s.  Every other
    row, and every row of a slice of fewer than ``_VECTOR_MIN`` rows, takes
    ``math.fsum``, in row order: one whose partial sums overflow
    raises ``OverflowError`` (``intermediate overflow in fsum``), first row
    first, as on one row.
    """
    totals = np.empty(rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows.shape[0], _SUM_SLICE):
            block = rows[lo : lo + _SUM_SLICE]
            uncertain = np.arange(block.shape[0])
            if block.shape[0] >= _VECTOR_MIN:
                columns = iter(np.ascontiguousarray(block.T))
                total = next(columns, np.zeros(block.shape[0]))
                errors = np.zeros(block.shape[0])
                missed = np.zeros(block.shape[0])
                magnitudes = np.abs(total)
                for column in columns:
                    total, error = _two_sum(total, column)
                    errors, error = _two_sum(errors, error)
                    missed += np.abs(error)
                    magnitudes += np.abs(column)
                sums, certain = _certified(total, errors, 2 * missed, magnitudes)
                totals[lo : lo + block.shape[0]] = sums
                uncertain = np.flatnonzero(~certain)
            rest = block[uncertain].tolist()
            totals[lo + uncertain] = np.fromiter(map(math.fsum, rest), float, len(rest))
    return totals


def _assemble_columns(
    portfolio: Portfolio, n: int, columns: dict[str, np.ndarray]
) -> SimulationResult:
    """Rows of ``n`` iterations from each stream's column, keyed by stream key.

    Every column has length ``n``; this is :func:`airoi.assembly.assemble`
    over columns, whose per-year rows stack into iterations x years arrays
    and whose totals are ``math.fsum`` per row.  An inf or nan that a cost
    reaches by overflow is a value, as on one row: no warning.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def run_simulation(portfolio: Portfolio, cfg: SimulationConfig, reduce=None):
    """Run the configured number of iterations.

    Outcome ``i`` depends only on the master seed, the item stream keys,
    and ``i`` itself; worker count changes scheduling, never results, so
    no more workers run than the CPUs this process may run on.  Every run
    walks one list of blocks, serially or on a pool: each is whole
    1000-iteration steps and at most one kernel pass, and writes its rows
    into the run's arrays as it arrives.  With ``target_relative_se`` set,
    the run stops after the first step whose net-benefit standard error is
    small enough relative to its mean, which keeps early stopping
    deterministic.

    ``reduce``, if given, takes each block's rows (a SimulationResult) in
    this process and in iteration order, after the stop rule has read
    them, and returns what the run keeps in their place: columns with one
    entry per row and ``len``, ``_arrays`` and ``_map`` as a
    SimulationResult has.  The block is then dropped, and the run returns
    those columns for all its rows instead of the rows.
    """
    errors, _ = validate_portfolio(portfolio)
    errors += validate_simulation(cfg)
    if errors:
        raise ValueError("invalid simulation input: " + "; ".join(errors))
    # The CPUs this process may run on: its affinity, where the platform has one.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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
    start = 0
    kept = None
    pool = None
    if workers > 1:  # only a pooled run loads the process-pool modules
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        walk = map if pool is None else partial(_bounded_map, pool, workers)
        for block in walk(run_block, bounds, bounds[1:]):
            if stop_rule is not None and (kept := stop_rule.stop(block)) is not None:
                block = block._map(lambda rows: rows[:kept])
            part = block if reduce is None else reduce(block)
            del block  # a serial run's block is not held while the next is drawn
            end = start + len(part)
            if result is None and (end == cfg.iterations or stop_rule is not None):
                result = part  # the whole run, or the first block of an early-stopped one
            else:  # each block writes its part in place
                if result is None or end > len(result):
                    # A plain run sizes its arrays once.  An early-stopped one doubles
                    # them, so a stop in the first steps of a long run holds about
                    # what it drew, not cfg.iterations rows.
                    size = cfg.iterations
                    if stop_rule is not None:
                        size = min(size, max(2 * len(result), end))
                    result = _grown(part if result is None else result, start, size)
                for whole, rows in zip(result._arrays(), part._arrays()):
                    whole[start:end] = rows
            del part
            start = end
            if kept is not None:
                break
    finally:
        if pool is not None:  # blocks queued past a stop or a failure never run
            pool.shutdown(cancel_futures=True)
    # An exact-size copy: a view would keep a stopped run's spare rows alive.
    return result if kept is None else result._map(lambda a: a[:start].copy())


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
        nets = risk_adjusted_net(
            block.gross_benefits, block.risk_reduction, block.risk_increase, block.tco_total
        )
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
            every = np.concatenate(self._nets)
            net_mean = _fsum(every) / self._n
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
        return self._exact_ratio(np.concatenate(self._nets), net_mean)

    def _exact_ratio(self, every: np.ndarray, net_mean: float) -> bool:
        return standard_error(every) / abs(net_mean) <= self.target


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def standard_error(samples: Sequence[float]) -> float:
    """Sample standard deviation over sqrt(n); needs at least two samples.

    The bits of ``math.fsum(samples) / n`` as the center and of
    ``math.fsum((x - center) ** 2 for x in samples) / (n - 1)`` as the
    variance, over Python floats, from certified sums (:func:`_fsum`) and
    squares (:func:`_squares`).
    """
    values = np.asarray(samples, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError(f"standard error needs n >= 2, got {n}")
    return _standard_error(values, _fsum(values) / n)


def _standard_error(values: np.ndarray, center: float) -> float:
    n = len(values)
    if (
        n >= _VECTOR_MIN
        and -_StopRule._LIMIT <= float(values.min()) - center
        and float(values.max()) - center <= _StopRule._LIMIT
    ):
        squares = np.concatenate(
            [_squares(values[lo : lo + _SUM_SLICE] - center) for lo in range(0, n, _SUM_SLICE)]
        )
        variance = _fsum(squares) / (n - 1)
    else:  # few values, a nan, or a square or fsum may raise OverflowError: in sample order
        variance = math.fsum((x - center) ** 2 for x in values.tolist()) / (n - 1)
    return math.sqrt(variance) / math.sqrt(n)


def sort_column(values: np.ndarray | Sequence[float]) -> np.ndarray:
    """``values`` as floats in ascending order, nan last.

    The sort never reorders values that compare equal: a stable sort keeps
    ties, -0.0 and 0.0 among them, in input order as ``sorted()`` does.
    Without a zero or a nan, no two distinct bit patterns compare equal, so
    any sort gives that order, and numpy's faster default sort runs on a
    column of ``_VECTOR_MIN`` values or more (on an AVX-512 host it
    returned -0.0 where the input held 0.0).
    """
    column = np.asarray(values, dtype=float)
    fast = column.size >= _VECTOR_MIN and (np.abs(column) > 0).all()
    return np.sort(column, kind=None if fast else "stable")


def summarize(values: np.ndarray | Sequence[float]) -> SampleSummary:
    """Percentile summary of one metric's samples, over one sort of them."""
    ordered = sort_column(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot summarize zero samples")
    mean = _fsum(ordered) / n
    return SampleSummary(
        n=n,
        mean=mean,
        standard_error=_standard_error(ordered, mean) if n >= 2 else 0.0,
        p10=sorted_percentile(ordered, 0.10),
        p50=sorted_percentile(ordered, 0.50),
        p90=sorted_percentile(ordered, 0.90),
        min=float(ordered[0]),
        max=float(ordered[-1]),
    )


# ---------------------------------------------------------------------------
# Certified sums and squares
# ---------------------------------------------------------------------------

_U = 2.0**-53  # the unit roundoff
# Rows or values per pass of a certified sum or square: bounds the scratch arrays.
_SUM_SLICE = 1 << 13
# Sums over fewer values, or rows, than this take the scalar rule, and shorter
# columns the stable sort.  By numpy's cost per call the certified paths win
# from about 500 values or 200 rows: summaries of 300 and 1000 values took 122
# and 155 us certified, 57 and 207 us by fsum.  But a process's first
# certified square runs the pow self-check, and its first default sort loads
# numpy's SIMD sort: with them and the row cascade, a 1000-iteration simulate
# peaked 0.48 MB higher, and with the row cascade alone 0.06 MB.
_VECTOR_MIN = 2048
# With the magnitudes of a sum's terms adding up to at most this, no partial
# sum overflows, in fsum or here: each is at most that sum, times 1 + 2**-40.
_SUM_LIMIT = 2.0**1000


def _two_sum(a, b):
    """``(s, e)``: ``s = fl(a + b)`` and ``s + e = a + b`` exactly (Knuth's TwoSum).

    Exact for any finite ``a`` and ``b`` whose sum does not overflow,
    subnormals included (Ogita, Rump & Oishi 2005, Algorithm 3.1).
    """
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _lower_gap(x):
    """``x - pred(x)`` for doubles ``x > 0``: the smaller of their two neighbour gaps.

    The gap toward zero, which is half the other one at a power of two.
    A finite positive double's predecessor is the one whose bits are one
    less; at 0 the result is a nan.
    """
    return x - (np.asarray(x).view(np.int64) - 1).view(np.float64)


def _certified(total, errors, bound, magnitudes):
    """``(r, certain)``: ``fl(total + errors)``, and where it is ``math.fsum``'s bits.

    The caller has summed doubles x_i exactly into ``total`` plus error
    terms, T = total + E, and ``errors`` is E up to at most ``bound``;
    ``magnitudes`` is at least sum |x_i| (1 - 2**-40).  Then:

    - A last TwoSum gives r + d = total + errors exactly, so
      |T - r| <= |d| + bound.
    - With g the smaller of r's neighbour gaps, |T - r| < g / 2 makes r the
      double nearest T, and T no tie, so r is T correctly rounded, which
      is what ``math.fsum`` returns.  The test ``2 (|d| + bound) < g`` is
      strict, and its doubling exact; a rounded sum that falls below
      g / 2 (a double, or g is below any positive bound) came from one
      below it.  With the larger gap, a T just past the midpoint below a
      power of two would pass.
    - With ``bound`` 0, T = total + errors exactly, and r is T correctly
      rounded, ties to even included, whatever d is.
    - ``magnitudes <= _SUM_LIMIT`` keeps every partial sum, ``fsum``'s
      included, finite, so ``fsum`` would not raise either.  A nan or an
      infinity anywhere fails it or the test.  A zero r is left to
      ``fsum``, for the sign of zero.
    """
    r, d = _two_sum(total, errors)
    gap = _lower_gap(np.abs(r))
    return r, ((2 * (np.abs(d) + bound) < gap) | (bound == 0)) & (r != 0) & (
        magnitudes <= _SUM_LIMIT
    )


def _tree(values: np.ndarray) -> tuple[float, float]:
    """``(total, errors)``: a pairwise TwoSum tree over ``values``.

    The values past the largest power of two w <= n are first added to the
    first ones, and then each level adds the first half of what is left to
    the second, so a value lies below at most log2(w) + 1 additions.
    ``total`` plus the n - 1 additions' error terms is the exact sum, and
    ``errors`` is their sum, rounded.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    width = 1 << (n.bit_length() - 1)
    level, errors = values[:width], 0.0
    if n > width:
        level = level.copy()
        level[: n - width], error = _two_sum(values[: n - width], values[width:])
        errors += float(error.sum())
    while width > 1:
        width //= 2
        level, error = _two_sum(level[:width], level[width:])
        errors += float(error.sum())
    return float(level[0]), errors


def _fsum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())``, from certified tree sums.

    Each slice of ``_SUM_SLICE`` values is summed by :func:`_tree`, and
    then their totals are, so the n values become T = total + E, E = sum
    e_k over the additions' error terms, and ``errors`` is that sum,
    rounded.  With X = sum |x_i| and u = 2**-53:

    - A value lies below at most D = bit_length(n) + 2 additions, and
      |e_k| <= u |a + b|, where |a + b| is at most the magnitudes below
      that addition times 1 + gamma_n.  So sum |e_k| <= u D X (1 + gamma_n).
    - A sum of k doubles in any order errs by at most gamma_(k-1) times the
      sum of their magnitudes (Higham 2002, ch. 4), so
      |errors - E| <= gamma_n u D X (1 + gamma_n), and the computed
      ``magnitudes`` is at least X (1 - gamma_n).
    - The bound doubles that product, which covers both factors and its
      own roundings while n u < 1/8; ``n * 2**-1070`` covers a product
      that underflows, as in ``_StopRule``'s ``q_error``.

    Where :func:`_certified` cannot vouch for the result, or there are
    fewer than ``_VECTOR_MIN`` values, ``math.fsum`` runs.
    """
    n = len(values)
    if n >= _VECTOR_MIN:
        with np.errstate(over="ignore", invalid="ignore"):
            slices = [values[lo : lo + _SUM_SLICE] for lo in range(0, n, _SUM_SLICE)]
            parts = [_tree(part) for part in slices]
            if len(parts) > 1:  # then the slices' totals, as one more tree
                parts.append(_tree(np.array([total for total, _ in parts])))
            total, errors = parts[-1][0], sum(error for _, error in parts)
            magnitudes = sum(float(np.abs(part).sum()) for part in slices)
            bound = 2 * _gamma(n) * _U * (n.bit_length() + 2) * magnitudes + n * 2.0**-1070
            result, certain = _certified(total, errors, bound, magnitudes)
        if certain:
            return float(result)
    return math.fsum(values.tolist())


# Dekker's splitting constant 2**27 + 1: x = hi + lo, each of at most 26 bits.
_SPLIT = 134217729.0
_FRACTION = (1 << 52) - 1  # the fraction bits of a double
# x * x is kept where the exact square lies within this many gaps of it:
# more than 0.05 gap from a midpoint, beyond libm pow's error bound.
_SQUARE_MARGIN = 0.45


def _squares(deviations: np.ndarray) -> np.ndarray:
    """``x ** 2`` of each deviation, as CPython's float power gives it.

    CPython's ``x ** 2`` is libm ``pow(x, 2.0)``, which is not always
    correctly rounded; numpy's ``x * x`` is.  The product is kept where
    :func:`_square_is_pow` shows ``pow`` must return it.  The rest, about
    one in ten, take ``x ** 2``; all of them do if the self-check
    :func:`_pow_agrees` fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = deviations * deviations
        if _pow_agrees():
            redo = np.flatnonzero(~_square_is_pow(deviations, squares, _SQUARE_MARGIN))
        else:
            redo = np.arange(len(squares))
    if len(redo):
        squares[redo] = [x**2 for x in deviations[redo].tolist()]
    return squares


def _square_is_pow(x: np.ndarray, squares: np.ndarray, margin: float) -> np.ndarray:
    """Where ``squares = fl(x * x)`` is libm's ``pow(x, 2.0)``, for ``margin`` <= 0.45.

    Let t = x^2 exactly and p = fl(x * x).  Veltkamp's split x = hi + lo,
    26 bits each, gives t - p exactly as ((hi hi - p) + 2 hi lo) + lo lo
    (Dekker 1971) while no product overflows or underflows: for p in
    [2**-960, 2**960].  Where p is not a power of two, its two neighbour
    gaps are one gap g, and t lies in p's binade, whose ulp is g.  If
    |t - p| <= margin g, every other double lies at least 0.55 g from t, so
    a ``pow`` within 0.54 ulp returns p: glibc's ``e_pow.c`` states a
    relative error below 0.52 ULP and about 0.54 ULP worst case, the
    figure relied on here.  A power of two p is left out, because its lower
    gap is half its upper one; so are zeros, nans and p out of range.
    """
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    errors = ((hi * hi - squares) + 2 * hi * lo) + lo * lo
    bits = squares.view(np.int64)
    return (
        (np.abs(errors) <= margin * _lower_gap(squares))
        & (bits & _FRACTION != 0)
        & (squares >= 2.0**-960)
        & (squares <= 2.0**960)
    )


@lru_cache(maxsize=1)
def _pow_agrees() -> bool:
    """True if libm ``pow`` gives the squares :func:`_square_is_pow` keeps near its margin.

    The sample is 5,000 values, a Weyl sequence over [1, 2) spread over
    binades 2**-30 to 2**30.  Of the squares kept, those whose exact square
    lies more than ``_SQUARE_MARGIN - 0.1`` gaps from the product, about a
    thousand, must equal ``x ** 2``.  It runs once per process, on the
    first certified square.
    """
    k = np.arange(5_000)
    x = np.ldexp(1.0 + k * 0.6180339887498949 % 1.0, k % 61 - 30)
    squares = x * x
    kept = _square_is_pow(x, squares, _SQUARE_MARGIN)
    near = kept & ~_square_is_pow(x, squares, _SQUARE_MARGIN - 0.1)
    return squares[near].tolist() == [value**2 for value in x[near].tolist()]
