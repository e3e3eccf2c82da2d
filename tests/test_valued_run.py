"""A run that values each block as it arrives against valuing its rows at once.

``run_simulation(..., reduce=...)`` keeps only what ``reduce`` makes of
each block, in the parent process, and drops the block.  The valuation
columns it returns must equal, byte for byte, ``evaluate_outcome`` over
the rows the same run keeps, in one call, whatever the blocks are.
"""

import json
import math
import multiprocessing
import os
import tracemalloc

import pytest

import oracle
from airoi import cli, engine
from airoi.engine import SimulationConfig, run_simulation
from airoi.valuation import DiscountSpec, evaluate_outcome
from conftest import minimal_config, write_config
from test_cli import run_cli
from test_engine import small_portfolio
from test_valuation_block import _column_bytes


def _valued(portfolio, cfg):
    """The run's valuation columns, block by block, and the blocks' lengths and processes."""
    discount = DiscountSpec(portfolio.discount_rate)
    blocks = []

    def value(block):
        blocks.append((len(block), os.getpid()))
        return evaluate_outcome(block, discount)

    return run_simulation(portfolio, cfg, reduce=value), blocks


def _assert_valued_as_rows(portfolio, cfg) -> list:
    reduced, blocks = _valued(portfolio, cfg)
    rows = run_simulation(portfolio, cfg)
    whole = evaluate_outcome(rows, DiscountSpec(portfolio.discount_rate))
    assert len(reduced) == len(rows)
    assert _column_bytes(reduced) == _column_bytes(whole)
    assert all(array.base is None for array in reduced._arrays())
    assert {pid for _, pid in blocks} == {os.getpid()}
    return [length for length, _ in blocks]


def _stopping_ratio(portfolio, seed: int, iterations: int, step: int) -> float:
    """A target first met after ``step`` 1000-iteration steps."""
    full = run_simulation(portfolio, SimulationConfig(iterations, seed))
    nets = full.gross_benefits + full.risk_reduction - full.risk_increase - full.tco_total
    nets = nets.tolist()
    ratios = [
        oracle.standard_error(nets[:n]) / abs(math.fsum(nets[:n]) / n)
        for n in range(1_000, iterations + 1, 1_000)
    ]
    assert min(ratios[: step - 1]) > ratios[step - 1]
    return ratios[step - 1]


def test_serial_blocks_are_valued_as_the_rows(monkeypatch):
    portfolio = small_portfolio()
    cfg = SimulationConfig(10_500, 3, worker_count=1)
    assert _assert_valued_as_rows(portfolio, cfg) == [4_000, 4_000, 2_500]
    monkeypatch.setattr(engine, "_KERNEL_BLOCK", engine._EARLY_STOP_BLOCK)
    assert _assert_valued_as_rows(portfolio, cfg) == [1_000] * 10 + [500]


@pytest.mark.parametrize("kernel_block", [None, 1_000])
def test_early_stopped_blocks_are_valued_as_the_kept_rows(monkeypatch, kernel_block):
    # A stop at the first step values only its 1000 rows; a stop at step 6
    # does so within the second 4000-row block (the sixth 1000-row block).
    if kernel_block is not None:
        monkeypatch.setattr(engine, "_KERNEL_BLOCK", kernel_block)
    portfolio = small_portfolio()
    first = _assert_valued_as_rows(portfolio, SimulationConfig(12_000, 3, target_relative_se=1e9))
    assert first == [1_000]
    target = _stopping_ratio(portfolio, 3, 12_000, 6)
    cfg = SimulationConfig(12_000, 3, target_relative_se=target)
    later = _assert_valued_as_rows(portfolio, cfg)
    assert later == ([4_000, 2_000] if kernel_block is None else [1_000] * 6)


def test_pooled_blocks_are_valued_in_the_parent(monkeypatch):
    # Two worker processes draw; the parent values each block as it arrives,
    # plainly and stopping partway through the second 3000-row block.  The
    # process is taken to run on two CPUs, so the pool starts on any host.
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    portfolio = small_portfolio()
    target = _stopping_ratio(portfolio, 3, 12_000, 5)
    for rule, blocks in ((None, [3_000] * 4), (target, [3_000, 2_000])):
        cfg = SimulationConfig(12_000, 3, worker_count=2, target_relative_se=rule)
        assert _assert_valued_as_rows(portfolio, cfg) == blocks
        assert multiprocessing.active_children() == []


def test_a_valued_run_holds_its_columns_not_its_rows(monkeypatch):
    # Eight 1000-row blocks: the run holds the valuation columns and one
    # block with its valuation scratch at a time.  32 KB cover the
    # interpreter's own objects.
    monkeypatch.setattr(engine, "_KERNEL_BLOCK", engine._EARLY_STOP_BLOCK)
    portfolio = small_portfolio()
    discount = DiscountSpec(portfolio.discount_rate)
    run_simulation(portfolio, SimulationConfig(1_000, 9))  # fills the samplers' caches
    tracemalloc.start()
    try:
        block_peak = 0
        for start in range(0, 8_000, 1_000):
            tracemalloc.reset_peak()
            evaluate_outcome(engine._run_block(portfolio, 9, start, start + 1_000), discount)
            block_peak = max(block_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        columns, _ = _valued(portfolio, SimulationConfig(8_000, 9, worker_count=1))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns_bytes = sum(array.nbytes for array in columns._arrays())
    rows = engine._run_block(portfolio, 9, 0, 8_000)
    rows_bytes = sum(array.nbytes for array in rows._arrays())
    assert columns_bytes < rows_bytes / 2
    assert run_peak < columns_bytes + block_peak + 2**15


def test_simulate_reports_the_same_body_with_and_without_the_dump(tmp_path, capsys):
    # Three blocks: without --dump-iterations the run keeps only the
    # valuation columns, with it the rows; both give one body.
    path = str(write_config(tmp_path, minimal_config()))
    bodies = []
    for extra in ((), ("--dump-iterations", str(tmp_path / "dump.csv"))):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "simulate", path, "--iterations", "9000", "--out", str(out), *extra
        )
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        bodies.append((report["body"], report["body_sha256"]))
    assert bodies[0] == bodies[1]
