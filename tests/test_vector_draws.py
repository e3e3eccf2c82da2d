"""The vector draws read from Philox outputs against numpy's own generator.

Every vector draw must equal, bit for bit, what the positioned scalar path
(``SubstreamSampler.at`` with ``make_batch_sampler``) returns for the same
(stream, iteration).  A value is a stream of one event a year, so its
vector draw is a sum of one draw, checked against ``sample``; a batch of
one has the bits of numpy's single draw, written out in this file, so
the positioned path draws every row, one event or many, as one batch.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airoi import _ziggurat, distributions
from airoi.distributions import (
    MAX_EVENT_RATE,
    Lognormal,
    Pert,
    Point,
    PointRate,
    PoissonRate,
    StreamUniforms,
    SubstreamSampler,
    Triangular,
    Uniform,
    fill_streams,
    make_batch_sampler,
    philox_block,
    sample,
    stream_words,
    vector_sampler,
)
from airoi.engine import SimulationConfig, run_simulation
from airoi.risk import RiskRegister, RiskScenario

SRC = Path(__file__).resolve().parent.parent / "src"


def _bits(values) -> np.ndarray:
    """Bit patterns, so -0.0 and 0.0 differ and equal nans compare equal."""
    return np.asarray(values, dtype=float).view(np.uint64)


def test_philox_block_matches_numpy_philox():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        words = tuple(int(w) for w in rng.integers(0, 2**64, size=2, dtype=np.uint64))
        iterations = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        iterations[:3] = (0, 2**32, 2**64 - 1)
        blocks = rng.integers(0, 40, size=8)
        blocks[0] = 0
        got = philox_block(words, iterations, blocks)
        for row, (iteration, block) in enumerate(zip(iterations.tolist(), blocks.tolist())):
            reference = np.random.Philox(
                counter=np.array([0, 0, iteration, 0], dtype=np.uint64),
                key=np.array(words, dtype=np.uint64),
            ).random_raw(4 * block + 4)[-4:]
            assert got[row].tolist() == reference.tolist()
        # A scalar block is the same block for every row.
        assert (philox_block(words, iterations, 3) == philox_block(words, iterations, np.full(8, 3))).all()


def test_philox_block_takes_a_key_per_row():
    # Keys near 2**64 - 1 wrap on the key bump of every round.
    rng = np.random.default_rng(2025)
    rows = 64
    keys = rng.integers(0, 2**64, size=(2, rows), dtype=np.uint64)
    keys[:, :8] = np.uint64(2**64 - 1) - rng.integers(0, 2**10, size=(2, 8), dtype=np.uint64)
    keys[0, 8:12] = 2**64 - 1
    iterations = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    iterations[:3] = (0, 2**32, 2**64 - 1)
    blocks = rng.integers(0, 41, size=rows)
    blocks[:2] = (0, 40)
    got = philox_block(keys, iterations, blocks)
    for row in range(rows):
        reference = np.random.Philox(
            counter=np.array([0, 0, iterations[row], 0], dtype=np.uint64), key=keys[:, row]
        ).random_raw(4 * int(blocks[row]) + 4)[-4:]
        assert got[row].tolist() == reference.tolist()
        # One stream is the one-key case.
        one = philox_block(tuple(keys[:, row].tolist()), iterations[row : row + 1], blocks[row])
        assert one[0].tolist() == reference.tolist()


def test_stream_outputs_fill_every_missing_block():
    words = stream_words(5, "fill")
    uniforms = StreamUniforms(words, 2**40, 2**40 + 30)
    rows = np.array([1, 4, 9, 29])
    first = np.array([0, 3, 13, 6])
    fill_streams([(uniforms, np.array([4, 9]), np.array([3, 3]))])
    fill_streams([(uniforms, rows, first + 9)])  # block 0 of two rows is already there
    doubles = uniforms._column(2, np.array([4, 9]))
    outputs = uniforms._outputs(rows, first, 9)
    sampler = SubstreamSampler()
    for k, row in enumerate(rows.tolist()):
        raw = sampler.at(words, 2**40 + row).bit_generator.random_raw(first[k] + 9)
        assert outputs[k].tolist() == raw[first[k] :].tolist()
    for k, row in enumerate((4, 9)):
        gen = sampler.at(words, 2**40 + row)
        assert gen.random(3)[2] == doubles[k]


def test_one_fill_over_many_streams_gives_each_stream_its_own_words(monkeypatch):
    # Requests that overlap, repeat a stream or a row, and are empty, over
    # streams with keys near 2**64 - 1 and iterations near 2**64; one fill
    # with a small chunk against each stream filling alone, and against the
    # positioned generator.
    monkeypatch.setattr(distributions, "_PHILOX_CHUNK", 7)
    rng = np.random.default_rng(31)
    spans = [(0, 40), (2**64 - 40, 2**64), (2**32 - 5, 2**32 + 20)]
    keys = [stream_words(3, "a"), (2**64 - 1, 2**64 - 2), (2**64 - 3, 12)]
    shared = [StreamUniforms(words, *span) for words, span in zip(keys, spans)]
    alone = [StreamUniforms(words, *span) for words, span in zip(keys, spans)]
    sampler = SubstreamSampler()
    for _ in range(4):
        requests = []
        for uniforms in shared:
            for _ in range(int(rng.integers(0, 3))):
                rows = rng.integers(0, uniforms.rows, size=int(rng.integers(0, 12)))
                ends = rng.integers(0, 30, size=rows.size)
                requests.append((uniforms, rows, ends))
            requests.append((uniforms, np.arange(0), np.arange(0)))
        distributions.fill_streams(requests)
        for uniforms, rows, ends in requests:
            twin = alone[shared.index(uniforms)]
            for row, end in zip(rows.tolist(), ends.tolist()):
                if end:
                    first = np.zeros(1, dtype=np.int64)
                    fill_streams([(twin, np.array([row]), np.array([end]))])
                    own = twin._outputs(np.array([row]), first, end)[0].tolist()
                    assert uniforms._outputs(np.array([row]), first, end)[0].tolist() == own
                    gen = sampler.at(twin.words, spans[shared.index(uniforms)][0] + row)
                    assert gen.bit_generator.random_raw(end).tolist() == own


def test_vector_normals_match_numpy_over_a_million_draws():
    # 80,000 positioned generators draw 16 normals each; the vector normals
    # from their 16 outputs must match up to the first one that is not exact.
    rows, blocks = 80_000, 4
    words = stream_words(11, "normals")
    outputs = philox_block(
        words, np.repeat(np.arange(rows, dtype=np.uint64), blocks), np.tile(np.arange(blocks), rows)
    ).reshape(rows, 4 * blocks)
    z, exact = distributions._standard_normals(outputs, distributions._normal_tables())
    sampler = SubstreamSampler()
    reference = np.array([sampler.at(words, i).standard_normal(4 * blocks) for i in range(rows)])
    checked = np.logical_and.accumulate(exact, axis=1)
    assert checked.sum() >= 10**6
    assert (_bits(z[checked]) == _bits(reference[checked])).all()
    # Every layer but 1 (whose ki is 0: it always takes the wedge) draws from one output.
    layers = (outputs[checked] & np.uint64(0xFF)).astype(int)
    assert set(layers.tolist()) == set(range(256)) - {1}
    assert exact.mean() > 0.98


def _quantities(rng):
    """Lognormal and PERT quantities with random parameters, extremes included."""
    quantities = [Lognormal(1e306, 1.5), Pert(-1e308, 0.0, 1e307), Pert(1.0, 1.0 + 2**-40, 9.0)]
    for _ in range(3):
        quantities.append(Lognormal(float(rng.uniform(1.0, 1e6)), float(rng.uniform(0.01, 3.0))))
        quantities.append(Pert(*sorted(rng.uniform(-1e5, 1e6, size=3).tolist())))
    return quantities


def _single_draw(q):
    """One value of ``q`` by numpy's scalar calls: the reference for a batch of one."""
    if isinstance(q, Point):
        return lambda gen: q.value
    if isinstance(q, Lognormal):
        if q.sigma == 0:
            return lambda gen: q.median
        return lambda gen: q.median * math.exp(q.sigma * float(gen.standard_normal()))
    if q.hi == q.lo:
        return lambda gen: q.lo
    if isinstance(q, Uniform):
        return lambda gen: float(gen.uniform(q.lo, q.hi))
    if isinstance(q, Triangular):
        return lambda gen: float(gen.triangular(q.lo, q.mode, q.hi))
    width = q.hi - q.lo
    a = 1.0 + 4.0 * (q.mode - q.lo) / width
    b = 1.0 + 4.0 * (q.hi - q.mode) / width
    return lambda gen: q.lo + width * float(gen.beta(a, b))


def test_a_batch_of_one_is_a_single_draw():
    # Every family, degenerate members and PERT shapes of 1 included, after
    # 0-5 earlier draws: a batch of one has the bits of numpy's single draw
    # and leaves the generator where the single draw leaves it.
    rng = np.random.default_rng(9)
    quantities = _quantities(rng) + [
        Point(3.5),
        Point(-0.0),
        Uniform(2.0, 2.0),
        Triangular(-1.0, -1.0, -1.0),
        Pert(4.0, 4.0, 4.0),
        Lognormal(5.0, 0.0),
        Uniform(-0.0, 1.0),
        Triangular(0.0, 0.0, 1.0),
        Triangular(0.0, 1.0, 1.0),
        Pert(0.0, 0.0, 1.0),
        Pert(0.0, 1.0, 1.0),
    ]
    for _ in range(4):
        quantities.append(Uniform(*sorted(rng.uniform(-1e6, 1e6, size=2).tolist())))
        quantities.append(Triangular(*sorted(rng.uniform(-1e6, 1e6, size=3).tolist())))
    quantities += [
        Uniform(-5e307, 5e307),
        Uniform(0.0, 1e-300),
        Triangular(-1e307, 0.0, 1e307),
        Lognormal(1e-300, 0.5),
        Pert(-1.0, 0.0, 0.0),
    ]
    sampler = SubstreamSampler()

    def drawn(words, skips, sampled):
        """Per iteration: the draw after ``skips[i]`` doubles, and the next two outputs."""
        values, positions = [], []
        for i, skip in enumerate(skips):
            gen = sampler.at(words, i)
            gen.random(skip)
            values.append(sampled(gen))
            positions.append(gen.bit_generator.random_raw(2).tolist())
        return _bits(values), positions

    for quantity in quantities:
        batch = make_batch_sampler(quantity)
        words = stream_words(int(rng.integers(2**63)), "one")
        skips = rng.integers(0, 6, size=3000).tolist()
        single_bits, single_positions = drawn(words, skips, _single_draw(quantity))
        batch_bits, batch_positions = drawn(words, skips, lambda gen: batch(gen, 1))
        assert (batch_bits == single_bits).all(), quantity
        assert batch_positions == single_positions, quantity


def test_lognormal_and_pert_values_match_the_positioned_path():
    rng = np.random.default_rng(7)
    sampler = SubstreamSampler()
    rows = 3000
    for quantity in _quantities(rng):
        vector = vector_sampler(quantity)
        words = stream_words(int(rng.integers(2**63)), "values")
        start = int(rng.integers(0, 2**40))
        uniforms = StreamUniforms(words, start, start + rows)
        every = np.arange(rows)
        fill_streams([(uniforms, every, np.full(rows, vector.width))])
        outputs = uniforms._outputs(every, np.zeros(rows, dtype=np.int64), vector.width)
        draws, exact = vector.draws(outputs[:, None, :])
        values, exact = vector.total(draws), exact[:, 0]
        reference = [sample(quantity, sampler.at(words, start + i)) for i in range(rows)]
        assert (_bits(values[exact]) == _bits(reference)[exact]).all()
        # The log test keeps most PERT draws whose squeeze fails on the vector
        # path; a shape that overflows to inf leaves it only the squeeze.
        assert exact.mean() > (0.97 if isinstance(quantity, Lognormal) else 0.85)


def test_lognormal_and_pert_batches_match_the_positioned_path():
    # sum_draws over batches of every length from 1 to max_events (64 for
    # lognormal, whose sums above 8 take numpy's exp and pairwise sum)
    # starting after a random number of count draws, as a severity batch
    # starts after its event count.
    rng = np.random.default_rng(8)
    sampler = SubstreamSampler()
    rows = 600
    for quantity in _quantities(rng):
        vector = vector_sampler(quantity)
        batch = make_batch_sampler(quantity)
        words = stream_words(int(rng.integers(2**63)), "batches")
        uniforms = StreamUniforms(words, 0, rows)
        for n in range(1, vector.max_events + 1):
            first = rng.integers(0, 6, size=rows)
            sums, misses = distributions._draw_rounds(
                [distributions.sum_draws(vector, uniforms, np.full(rows, n), first)]
            )[0]
            exact = np.ones(rows, dtype=bool)
            exact[misses] = False
            reference = []
            for i in range(rows):
                gen = sampler.at(words, i)
                gen.random(int(first[i]))
                reference.append(batch(gen, n))
            assert (_bits(sums[exact]) == _bits(reference)[exact]).all(), (quantity, n)
            assert exact.any(), (quantity, n)


@pytest.mark.parametrize(
    "lam", [10.0, float(np.nextafter(10.0, np.inf)), 17.7, 100.0, 1e3, 1e4, MAX_EVENT_RATE]
)
def test_ptrs_counts_match_numpy(lam):
    # numpy's PTRS sampler, positioned, against the vector counts and the
    # outputs each count read, so severities start where numpy's do.
    rows = 3000
    words = stream_words(int(lam * 1000) % 2**63, "ptrs")
    uniforms = StreamUniforms(words, 2**33, 2**33 + rows)
    counts, consumed = distributions._draw_rounds(
        [distributions.count_draws(PoissonRate(lam), uniforms)]
    )[0]
    sampler = SubstreamSampler()
    for i in range(rows):
        gen = sampler.at(words, 2**33 + i)
        assert gen.poisson(lam) == counts[i]
        assert distributions._consumed(gen) == consumed[i]
    assert consumed.max() > 2  # some rows took a second try


def test_loggam_is_log_gamma():
    # numpy's Stirling series agrees with math.lgamma to a few ulp, so a
    # wrong coefficient shows here even where it changes no sampled count.
    for x in [float(n) for n in range(1, 3000)] + [1.5, 6.5, 7.5, 123.25, MAX_EVENT_RATE + 1]:
        assert distributions._loggam(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def _first_draw_kinds(words, rows, quantity):
    """How numpy draws the first normal, or the first gamma of a PERT, of each iteration.

    Classified from the positioned generator and the stream's outputs:
    ``one output``, ``tail`` (layer 0), ``layer 1``, ``wedge accept`` and
    ``wedge reject`` for the normal; for a PERT, ``squeeze`` or ``log test``
    when its first try accepts from two outputs and the whole beta reads
    four, ``log reject`` and ``V <= 0`` otherwise.
    """
    sampler = SubstreamSampler()
    kinds = {}
    for i in range(rows):
        gen = sampler.at(words, i)
        first = int(gen.bit_generator.random_raw(3)[0])
        gen = sampler.at(words, i)
        x = gen.standard_normal()
        used = distributions._consumed(gen)
        layer = first & 0xFF
        if used > 1:
            kind = "tail" if layer == 0 else "layer 1" if layer == 1 else (
                "wedge accept" if used == 2 else "wedge reject"
            )
        elif isinstance(quantity, Pert):
            width = quantity.hi - quantity.lo
            alpha = 1.0 + 4.0 * (quantity.mode - quantity.lo) / width
            b = alpha - 1.0 / 3.0
            v = 1.0 + x / math.sqrt(9 * b)
            u = gen.random()
            beta = sampler.at(words, i)
            beta.beta(alpha, 1.0 + 4.0 * (quantity.hi - quantity.mode) / width)
            if v <= 0.0:
                kind = "V <= 0"
            elif u < 1.0 - 0.0331 * (x * x) * (x * x):
                kind = "squeeze"
            elif math.log(u) < 0.5 * x * x + b * (1.0 - v**3 + math.log(v**3)):
                kind = "log test"
            else:
                kind = "log reject"
            if kind in ("squeeze", "log test") and distributions._consumed(beta) != 4:
                kind = "second gamma"
        else:
            kind = "one output"
        kinds.setdefault(kind, []).append(i)
    return kinds


@pytest.mark.parametrize(
    "quantity, rows, positioned, vector",
    [
        # The tail is the rarest: 6 of these 30,000 normals.
        (
            Lognormal(100.0, 0.8),
            30_000,
            ("tail", "layer 1", "wedge accept", "wedge reject"),
            ("one output",),
        ),
        # alpha = 1.05, so that V = 1 + c x falls to 0 within the sample.
        (
            Pert(0.0, 0.0125, 1.0),
            5_000,
            ("layer 1", "wedge accept", "log reject", "V <= 0"),
            ("squeeze", "log test"),
        ),
    ],
)
def test_draws_that_need_a_second_try_take_the_positioned_path(quantity, rows, positioned, vector):
    # A value whose draw needs a second try of numpy's ziggurat or gamma
    # sampler is drawn by the positioned generator, with its bits; one that
    # numpy accepts from its first outputs (for a PERT, by the squeeze or by
    # the log test) is drawn as a vector.
    words = stream_words(17, "second tries")
    kinds = _first_draw_kinds(words, rows, quantity)
    at = SubstreamSampler.at
    drawn_at = set()

    class Recording(SubstreamSampler):
        def at(self, words, iteration_index):
            drawn_at.add(iteration_index)
            return at(self, words, iteration_index)

    column = distributions._draw_rounds(
        [distributions._draw_stream(words, PointRate(1.0), quantity, Recording(), 0, rows)]
    )[0]
    sampler = SubstreamSampler()
    for kind in positioned + vector:
        picked = kinds[kind][:20]
        assert picked, kind
        reference = [sample(quantity, sampler.at(words, i)) for i in picked]
        assert (_bits(column[picked]) == _bits(reference)).all(), kind
        assert set(picked) <= drawn_at if kind in positioned else not set(picked) & drawn_at, kind


def _counted_run(monkeypatch, portfolio, iterations):
    """Positioned draws of a one-worker run of ``portfolio``, self-checks excluded."""
    assert distributions._normal_tables() is not None
    assert distributions._ptrs_passes_self_check()
    calls = 0
    at = SubstreamSampler.at

    def counted(self, words, iteration_index):
        nonlocal calls
        calls += 1
        return at(self, words, iteration_index)

    monkeypatch.setattr(SubstreamSampler, "at", counted)
    cfg = SimulationConfig(iterations=iterations, master_seed=42, worker_count=1)
    run_simulation(portfolio, cfg)
    return calls


def test_reference_run_keeps_its_positioned_draw_budget(monkeypatch, reference_config):
    # Values and most severities draw as vectors.  A value path that fell
    # back to positioned draws would raise the count; the self-checks' own
    # positioned draws are made before counting starts.
    assert 0 < _counted_run(monkeypatch, reference_config.portfolio, 10_000) <= 2_147


def test_high_rate_run_keeps_its_positioned_draw_budget(monkeypatch, reference_config):
    # Poisson rates of 10 to 18 draw their counts with the vector PTRS, and
    # their batches of 9 to 40 lognormal, uniform and triangular events as
    # vectors.  Positioned: PERT batches over 8 events, and draws that need
    # a second try.
    scenarios = tuple(
        RiskScenario(
            f"high-{k}", sle, "both",
            frequency_current=PoissonRate(10.0 + 2 * k), frequency_ai=PoissonRate(17.9 - k),
        )
        for k, sle in enumerate(
            (
                Lognormal(20_000.0, 0.9),
                Uniform(1_000.0, 9_000.0),
                Triangular(500.0, 2_000.0, 8_000.0),
                Pert(1_000.0, 3_000.0, 12_000.0),
            )
        )
    )
    portfolio = dataclasses.replace(reference_config.portfolio, register=RiskRegister(scenarios))
    assert 0 < _counted_run(monkeypatch, portfolio, 2_000) <= 4_869


def test_vector_paths_cover_the_families_numpy_draws_without_a_second_try():
    assert vector_sampler(Uniform(0.0, 1.0)).width == 1
    assert vector_sampler(Triangular(0.0, 0.5, 1.0)).max_events == 64
    assert vector_sampler(Lognormal(1.0, 0.5)).max_events == 64
    assert vector_sampler(Pert(0.0, 0.5, 1.0)).width == 4
    assert vector_sampler(Pert(0.0, 0.5, 1.0)).max_events == 8
    # A mode at an end makes a shape of 1, which numpy draws as an exponential.
    assert vector_sampler(Pert(0.0, 0.0, 1.0)) is None
    assert vector_sampler(Pert(0.0, 1.0, 1.0)) is None


def test_self_check_sample_reaches_every_layer():
    rows, blocks = distributions._CHECK_ROWS, distributions._CHECK_BLOCKS
    outputs = philox_block(
        distributions._CHECK_WORDS,
        np.repeat(np.arange(rows, dtype=np.uint64), blocks),
        np.tile(np.arange(blocks), rows),
    ).reshape(rows, 4 * blocks)
    _, exact = distributions._standard_normals(outputs, distributions._normal_tables())
    checked = np.logical_and.accumulate(exact, axis=1)
    assert set((outputs[checked] & np.uint64(0xFF)).astype(int).tolist()) == set(range(256)) - {1}


@pytest.fixture
def fresh_tables():
    """Reload the ziggurat table before and after the test."""
    distributions._normal_tables.cache_clear()
    yield
    distributions._normal_tables.cache_clear()


@pytest.mark.parametrize("layer", [2, 128, 255])
def test_corrupted_table_turns_the_vector_path_off(
    monkeypatch, fresh_tables, reference_config, layer
):
    portfolio = reference_config.portfolio
    cfg = SimulationConfig(iterations=1500, master_seed=42)
    expected = run_simulation(portfolio, cfg).outcomes
    assert distributions._normal_tables() is not None
    distributions._normal_tables.cache_clear()
    wi = list(_ziggurat.WI)
    wi[layer] = float(np.nextafter(wi[layer], 1.0))  # one ulp off
    monkeypatch.setattr(_ziggurat, "WI", tuple(wi))
    assert distributions._normal_tables() is None
    assert vector_sampler(Lognormal(1.0, 0.5)) is None
    assert vector_sampler(Pert(0.0, 0.5, 1.0)) is None
    assert vector_sampler(Uniform(0.0, 1.0)) is not None
    assert run_simulation(portfolio, cfg).outcomes == expected


@pytest.fixture
def fresh_checks():
    """Run both self-checks again before and after the test."""
    distributions._normal_tables.cache_clear()
    distributions._ptrs_passes_self_check.cache_clear()
    yield
    distributions._normal_tables.cache_clear()
    distributions._ptrs_passes_self_check.cache_clear()


@pytest.mark.parametrize("corrupted", ["KI", "PTRS"])
def test_corrupted_ki_or_ptrs_constant_turns_only_its_path_off(
    monkeypatch, fresh_checks, reference_config, corrupted
):
    # ki marks which normals come from one output; a PTRS constant shapes
    # every high-rate count.  Either one wrong turns its own path off, and
    # only it: the run keeps the bits of the vector paths.
    scenarios = reference_config.portfolio.register.scenarios + (
        RiskScenario("ln", Lognormal(5_000.0, 0.7), "both",
                     frequency_current=PoissonRate(12.0), frequency_ai=PoissonRate(3.0)),
        RiskScenario("pert", Pert(100.0, 400.0, 900.0), "current_only",
                     frequency_current=PoissonRate(11.0)),
    )
    portfolio = dataclasses.replace(reference_config.portfolio, register=RiskRegister(scenarios))
    cfg = SimulationConfig(iterations=1500, master_seed=42)
    expected = run_simulation(portfolio, cfg).outcomes
    distributions._normal_tables.cache_clear()
    distributions._ptrs_passes_self_check.cache_clear()
    if corrupted == "KI":
        # Every wedge draw read as if it came from one output.
        monkeypatch.setattr(_ziggurat, "KI", (2**52,) * 256)
    else:
        ptrs = dict(distributions._PTRS)
        ptrs["K"] = 0.45  # numpy adds 0.43 before taking the floor
        monkeypatch.setattr(distributions, "_PTRS", ptrs)
    assert (distributions._normal_tables() is None) == (corrupted == "KI")
    assert distributions._ptrs_passes_self_check() == (corrupted == "KI")
    assert run_simulation(portfolio, cfg).outcomes == expected


def test_ptrs_self_check_waits_for_a_high_rate(fresh_checks, reference_config):
    # The reference portfolio has no Poisson rate of 10 or more, so its runs
    # never pay for the PTRS self-check.
    run_simulation(reference_config.portfolio, SimulationConfig(iterations=500, master_seed=3))
    assert distributions._ptrs_passes_self_check.cache_info().currsize == 0


def test_commands_that_draw_nothing_never_load_the_table(reference_config_path):
    # A fresh interpreter, so no earlier test has loaded the table.
    code = (
        "import contextlib, io, sys\n"
        "from airoi import cli\n"
        "for command in ('validate', 'evaluate', 'delta'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert cli.main([command, {str(reference_config_path)!r}]) == 0\n"
        "print('airoi._ziggurat' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
