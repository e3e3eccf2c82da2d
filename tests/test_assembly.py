"""The one assembly, over floats and over columns, compared bit for bit.

``assembly.assemble`` builds an outcome's rows from its stream values: the
engine passes drawn columns and ``analytic_evaluate`` passes floats.  Each
float is compared by its IEEE bytes, so -0.0 against 0.0 and nan count.
"""

import dataclasses
import hashlib
import importlib.util
import math
import struct

import numpy as np

from airoi import assembly, engine
from airoi.config import load_config
from airoi.distributions import RngStream, draw_streams
from airoi.engine import _assemble_columns, _streams
from airoi.quantities import frequency_mean, mean
from airoi.valuation import DiscountSpec, evaluate_outcome
from conftest import REPO_ROOT
from test_engine import _random_portfolio

ROWS = 32

# sha256 of _bits over the reference and the random portfolios, each its
# analytic outcome and that outcome's one-row valuation, as the engine's
# 1-element columns gave them before the float assembly.  It changes when
# _random_portfolio does.
ANALYTIC_DIGEST = "4edd281b7bb0b4183d503fa9d2b42fbf654176a8eba088f1be186fa71dee6d8a"


def _bits(value) -> bytes:
    """Every float of ``value``, in field and key order, as its IEEE bytes."""
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, int):
        return struct.pack("<q", value)
    if value is None:
        return b"N"
    if isinstance(value, dict):
        return b"".join(key.encode() + _bits(item) for key, item in value.items())
    if isinstance(value, tuple):
        return b"(" + b"".join(map(_bits, value)) + b")"
    assert dataclasses.is_dataclass(value), type(value)
    return b"".join(
        field.name.encode() + _bits(getattr(value, field.name))
        for field in dataclasses.fields(value)
    )


def _fields(outcome) -> dict[str, bytes]:
    fields = dataclasses.fields(outcome)
    return {field.name: _bits(getattr(outcome, field.name)) for field in fields}


def _wide_portfolio(tmp_path):
    spec = importlib.util.spec_from_file_location("widegen", REPO_ROOT / "perfbench" / "widegen.py")
    widegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widegen)
    path = tmp_path / "wide.json"
    path.write_bytes(widegen.render(42))
    config, diagnostics = load_config(path)
    assert config is not None, [str(d) for d in diagnostics]
    return config.portfolio


def _random_portfolios() -> list:
    gen = RngStream(20_261_020, "assembly", 0).generator
    return [_random_portfolio(gen) for _ in range(44)]


def _portfolios(reference_config, tmp_path) -> list:
    return [reference_config.portfolio, _wide_portfolio(tmp_path), *_random_portfolios()]


def assert_floats_match_columns(portfolio, columns: dict[str, np.ndarray]) -> None:
    """Each row assembled from floats has the bits of the same row of the columns."""
    n = len(next(iter(columns.values()), ()))
    expected = _assemble_columns(portfolio, n, columns).outcomes
    rows = {key: column.tolist() for key, column in columns.items()}
    for i in range(n):
        got = assembly.IterationOutcome(
            i, **assembly.assemble(portfolio, {key: rows[key][i] for key in rows})
        )
        assert _fields(got) == _fields(expected[i]), (portfolio.name, i)


def test_float_rows_match_drawn_columns(reference_config, tmp_path):
    for seed, portfolio in enumerate(_portfolios(reference_config, tmp_path)):
        columns = draw_streams(seed, _streams(portfolio), 0, ROWS)
        if columns:
            assert_floats_match_columns(portfolio, columns)


def test_float_rows_match_columns_of_signed_zeros_and_nan():
    # Equal losses make a zero delta; -0.0 and nan pass the split's pick as
    # values, never through arithmetic.
    specials = [0.0, -0.0, math.nan, 5e-324, -5e-324, 1.0]
    for portfolio in _random_portfolios():
        columns = draw_streams(3, _streams(portfolio), 0, len(specials) ** 2)
        for number, key in enumerate(columns):
            if number % 2:
                columns[key] = np.repeat(specials, len(specials))
            else:
                columns[key] = np.tile(specials, len(specials))
        if columns:
            assert_floats_match_columns(portfolio, columns)


def test_analytic_outcome_matches_one_element_columns(reference_config, tmp_path):
    assert engine.analytic_evaluate is assembly.analytic_evaluate
    for portfolio in _portfolios(reference_config, tmp_path):
        columns = {
            key: np.full(1, mean(quantity) * frequency_mean(freq))
            for key, (freq, quantity) in _streams(portfolio).items()
        }
        expected = _assemble_columns(portfolio, 1, columns).outcomes[0]
        assert _fields(assembly.analytic_evaluate(portfolio)) == _fields(expected)


def test_analytic_valuation_keeps_its_bits(reference_config):
    digest = hashlib.sha256()
    for portfolio in [reference_config.portfolio, *_random_portfolios()]:
        outcome = assembly.analytic_evaluate(portfolio)
        digest.update(_bits(outcome))
        digest.update(_bits(evaluate_outcome(outcome, DiscountSpec(portfolio.discount_rate))))
    assert digest.hexdigest() == ANALYTIC_DIGEST


def test_the_split_counts_an_unchanged_loss_as_a_reduction(reference_config):
    # A zero delta lands on the reduction side.  Its bits are the same on
    # either side, so the rule is read from the condition the pick sees.
    portfolio = reference_config.portfolio
    values = {key: 0.0 for key in _streams(portfolio)}
    seen = []

    def where(condition, if_true, if_false):
        seen.append(condition)
        return assembly._pick(condition, if_true, if_false)

    assembly.assemble(portfolio, values, where=where)
    assert seen and all(seen)
