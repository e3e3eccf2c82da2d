"""Certified sums and squares against the oracle's Python floats, bit for bit.

``engine.fsum_rows``, ``summarize`` and ``standard_error`` sum with numpy
and keep a result only where a certificate shows it is ``math.fsum``'s;
the squared deviations keep numpy's product only where it must be
CPython's ``x ** 2``.  Each case compares bit patterns, so -0.0 and 0.0,
and the payloads of nans, differ.
"""

import math
import struct

import numpy as np
import pytest

import oracle
from airoi import engine
from airoi.engine import SampleSummary, fsum_rows, standard_error, summarize
from airoi.quantities import percentile

INF, NAN = math.inf, math.nan
TIE = 2.0**-53  # half the gap above 1.0
BELOW = 2.0**-54  # half the gap below 1.0, a power of two
SUBNORMAL = 5e-324
TINY = 2.2250738585072014e-308  # the smallest normal double

# Values whose sums cancel, tie, round to and across powers of two, or stay subnormal.
HARD = [
    1.0, -1.0, 3.0, 0.1, 1 / 3, 0.0, -0.0, TIE, -TIE, BELOW, -BELOW, 2.0**-110, -(2.0**-110),
    2.0**-107, 1e16, -1e16, 1e300, -1e300, SUBNORMAL, -SUBNORMAL, TINY, -TINY,
    math.nextafter(1.0, 0.0), math.nextafter(2.0, 0.0), 2.0, 4.0, 0.5,
]  # fmt: skip

# Rows with one certified answer each: fsum rounds ties to even, and to the
# double below a power of two once the exact sum passes the lower midpoint.
ROWS = [
    ([1e16, 1.0, -1e16], 1.0),
    ([1.0, 1e100, 1.0, -1e100], 2.0),
    ([1.0, TIE], 1.0),
    ([1.0 + 2 * TIE, TIE], 1.0 + 4 * TIE),
    ([1.0, TIE, 2.0**-110], 1.0 + 2 * TIE),
    ([1.0, TIE, -(2.0**-110)], 1.0),
    ([1.0, -BELOW], 1.0),
    ([1.0, -BELOW, -(2.0**-110)], math.nextafter(1.0, 0.0)),
    ([1.0, -BELOW, 2.0**-110], 1.0),
    ([1.0, -BELOW, -(2.0**-111), -(2.0**-111)], math.nextafter(1.0, 0.0)),
    ([SUBNORMAL, SUBNORMAL], 2 * SUBNORMAL),
    ([TINY, -SUBNORMAL], math.nextafter(TINY, 0.0)),
]


@pytest.fixture(autouse=True)
def certified_at_every_size(monkeypatch):
    """Columns and row blocks of every length take the certified path."""
    monkeypatch.setattr(engine, "_VECTOR_MIN", 1)


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in np.asarray(values, dtype=float).ravel().tolist()]


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


def _same(got, want) -> bool:
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, SampleSummary):
        return isinstance(got, SampleSummary) and all(
            _bits(getattr(got, field)) == _bits(getattr(want, field))
            for field in SampleSummary.__dataclass_fields__
        )
    return not isinstance(got, tuple) and _bits(got) == _bits(want)


def _oracle_summary(values) -> SampleSummary:
    """The summary over ``sorted(values)``, nans last as numpy sorts them, with the
    oracle's sums and squares."""
    ordered = sorted(values, key=lambda x: (math.isnan(x), x))
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


def summary_cases() -> list[list[float]]:
    """The columns ``summarize`` is checked on, here and at reduced CPU dispatch."""
    rng = np.random.default_rng(27)
    cases = [list(row) for row, _ in ROWS]
    cases += [[0.0], [-0.0], [5.0, 5.0, 5.0], [0.0, 2.0], [-0.0, 0.0, -0.0], [SUBNORMAL] * 3]
    cases += [[1.0, INF], [-INF, INF, 1.0], [NAN, 1.0, 2.0], [1e200, -1e200], [1e308, 1e308]]
    for size in (2, 3, 17, 999, 5_000, 9_001):
        for scale in (1e-300, 1e-8, 1.0, 1e6, 1e150):
            cases.append((rng.normal(3.0, 1.0, size) * scale).tolist())
    for size in (2, 3, 40, 2_000):
        cases.append(rng.choice(HARD, size).tolist())
    cases.append(rng.choice([-0.0, 0.0, 1.0, INF], 300).tolist())
    cases.append(rng.choice([-INF, -1.0, -0.0, 0.0], 300).tolist())
    return cases


def _hard_rows(rng, rows: int, years: int) -> np.ndarray:
    hard = rng.choice(HARD, (rows, years))
    normal = rng.normal(0.0, 1.0, (rows, years)) * 10.0 ** rng.integers(-20, 20, (rows, years))
    return np.where(rng.random((rows, years)) < 0.5, hard, normal)


def test_row_sums_match_fsum_bit_for_bit():
    for row, want in ROWS:
        assert _bits(fsum_rows(np.array([row]))) == _bits([want]), row
        assert _bits([math.fsum(row)]) == _bits([want]), row
    rng = np.random.default_rng(5)
    for years in (0, 1, 2, 3, 5, 8, 40):
        rows = _hard_rows(rng, 5_000, years)
        assert _bits(fsum_rows(rows)) == _bits(oracle.row_sums(rows.tolist())), years
    # Long rows of one cancelling sum each, and a block past one slice.
    rows = rng.normal(0.0, 1.0, (3, 10_000))
    rows[:, -1] = -rows[:, :-1].sum(axis=1)
    assert _bits(fsum_rows(rows)) == _bits(oracle.row_sums(rows.tolist()))
    rows = _hard_rows(rng, 3 * engine._SUM_SLICE + 7, 5)
    assert _bits(fsum_rows(rows)) == _bits(oracle.row_sums(rows.tolist()))


def test_row_sums_of_zeros_and_non_finite_values_match_fsum():
    rows = [
        [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0, -1.0], [1.0, -1.0], [INF, 1.0],
        [-INF, -1e308, -1e308], [1.0, NAN], [NAN, INF], [1e308, -1e308, 1e308], [-1e308, 1e308, 5.0],
    ]  # fmt: skip
    for row in rows:
        for years in (row, row + [0.0], [-0.0] + row):
            got = _outcome(lambda years: float(fsum_rows(np.array([years]))[0]), years)
            assert _same(got, _outcome(math.fsum, years)), years
    assert _bits(fsum_rows(np.empty((3, 0)))) == _bits([0.0] * 3)
    assert _bits(fsum_rows(np.empty((0, 4)))) == []


def test_row_sum_errors_are_fsums_first_failing_row_first():
    fine = [1.0, 2.0, 3.0]
    overflow = [1e308, 1e308, -1e308]  # intermediate overflow in fsum
    opposed = [INF, -INF, 1.0]  # -inf + inf in fsum
    for rows in ([fine, overflow, opposed], [fine, opposed, overflow], [overflow, fine]):
        want = next(_outcome(math.fsum, row) for row in rows if row is not fine)
        assert _outcome(fsum_rows, np.array(rows)) == want
    # The failing row lies past the first slice, after rows that are certified.
    rows = np.ones((engine._SUM_SLICE + 10, 3))
    rows[engine._SUM_SLICE + 3] = overflow
    rows[engine._SUM_SLICE + 5] = opposed
    assert _outcome(fsum_rows, rows) == (OverflowError, "intermediate overflow in fsum")


def test_summarize_matches_the_oracle_bit_for_bit():
    for values in summary_cases():
        want = _outcome(_oracle_summary, values)
        assert _same(_outcome(summarize, np.array(values)), want), values[:8]
        assert _same(_outcome(summarize, values), want), values[:8]
        if len(values) >= 2:
            want = _outcome(oracle.standard_error, values)
            assert _same(_outcome(standard_error, values), want), values[:8]


def test_squares_are_cpythons_bit_for_bit():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, 200_000) * 10.0 ** rng.integers(-150, 150, 200_000)
    # Squares next to a rounding midpoint, where libm pow and x * x disagree.
    near = engine._square_is_pow(x, x * x, 0.5) & ~engine._square_is_pow(x, x * x, 0.49)
    assert near.sum() > 1_000
    edges = [2.0**k for k in range(-500, 500, 7)]
    edges += [math.nextafter(math.sqrt(2.0) * 2.0**k, d) for k in range(-40, 40) for d in (0, 9)]
    edges += [0.0, -0.0, SUBNORMAL, TINY, 1e-200, 2.0**-480, 2.0**480, 1e150, -1e150, NAN, INF]
    for values in (x, x[near], np.array(edges)):
        assert _bits(engine._squares(values.copy())) == _bits([v**2 for v in values.tolist()])
    assert _outcome(engine._squares, np.array([1.0, 1e200])) == _outcome(lambda v: v**2, 1e200)


def test_pow_self_check_passes_and_sees_a_margin_past_pows_error(monkeypatch):
    # The squares keep x * x within 0.45 gap of the exact square; libm pow
    # departs from x * x only within about 0.0065 gap of a midpoint.
    assert engine._pow_agrees()
    monkeypatch.setattr(engine, "_SQUARE_MARGIN", 0.5)
    assert not engine._pow_agrees.__wrapped__()


def test_squares_take_pow_everywhere_when_the_self_check_fails(monkeypatch):
    monkeypatch.setattr(engine, "_pow_agrees", lambda: False)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1e3, 5_000)
    assert _bits(engine._squares(x.copy())) == _bits([v**2 for v in x.tolist()])
    assert _bits([standard_error(x)]) == _bits([oracle.standard_error(x.tolist())])


def test_certified_paths_take_few_fallbacks(monkeypatch):
    # A certificate that never held would give the same bits at fsum's cost.
    fallbacks = []
    original = math.fsum
    monkeypatch.setattr(engine.math, "fsum", lambda values: fallbacks.append(1) or original(values))
    rng = np.random.default_rng(1)
    fsum_rows(rng.normal(1e5, 1e5, (10_000, 5)))
    summarize(rng.normal(1e5, 1e5, 30_000))
    assert len(fallbacks) < 10
