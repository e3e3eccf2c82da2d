"""Sampling: deterministic substreams and the draws from uncertain quantities.

Sampling is driven by counter-based substreams so that the value drawn for
a given (master seed, stream key, iteration) triple is identical on every
platform and under any degree of parallelism.  This module owns every
draw, behind one entry for a run, :func:`draw_streams`; which streams a
portfolio has, and what their columns become, is :mod:`airoi.engine`'s.
The quantities, their rules and moments live in :mod:`airoi.quantities`,
which needs no numpy; they are importable from here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .quantities import (  # noqa: F401  (their former home: re-exported)
    _MASK64, MAX_EVENT_RATE, SEED_LIMIT, FrequencyModel, Lognormal, Pert, Point, PointRate,
    PoissonRate, Triangular, UncertainQuantity, Uniform, degenerate_value, frequency_mean,
    is_degenerate, mean, percentile, scaled, stream_words, support, validate, validate_frequency,
)

# Longest severity batch drawn as a vector (see the stream kernel's policy).
_MAX_EVENTS = 64
_MAX_PERT_EVENTS = 8


# ---------------------------------------------------------------------------
# Deterministic substreams
# ---------------------------------------------------------------------------


class RngStream:
    """Deterministic random substream for one (seed, key, iteration) triple.

    Two independently constructed streams with equal triples yield
    bit-identical draw sequences.  Instances hold their own generator and
    must not be shared across threads; derive a fresh stream instead.
    """

    __slots__ = ("master_seed", "stream_key", "iteration_index", "_generator")

    def __init__(self, master_seed: int, stream_key: str, iteration_index: int = 0):
        self.master_seed = master_seed
        self.stream_key = stream_key
        self.iteration_index = iteration_index
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            words = stream_words(self.master_seed, self.stream_key)
            self._generator = SubstreamSampler().at(words, self.iteration_index)
        return self._generator

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"stream_key={self.stream_key!r}, iteration_index={self.iteration_index})"
        )


class SubstreamSampler:
    """One generator, positioned at any (stream, iteration) pair.

    Iteration ``i`` is the counter ``(0, 0, i mod 2^64, i >> 64)`` under the
    stream's key words.  A loop reuses one instance, without a bit-generator
    allocation per pair; an :class:`RngStream` positions its own.  Not
    thread-safe: each worker owns one instance.
    """

    def __init__(self) -> None:
        self._counter = np.zeros(4, dtype=np.uint64)
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bit_generator)

    def at(self, words: tuple[int, int], iteration_index: int) -> np.random.Generator:
        """Position the shared generator at a (stream, iteration) pair."""
        self._counter[2] = iteration_index & _MASK64
        self._counter[3] = (iteration_index >> 64) & _MASK64
        self._key[0] = words[0]
        self._key[1] = words[1]
        self._bit_generator.state = self._state
        return self.generator


def _resolve_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    return rng


# ---------------------------------------------------------------------------
# Stream-major draws: one stream over a block of iterations at once
# ---------------------------------------------------------------------------

# Philox4x64-10 constants (Salmon et al., SC'11), as numpy's Philox uses them.
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_KEY_BUMPS = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_PHILOX_HALVES = tuple(
    (np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(m)) for m in _PHILOX_MULTIPLIERS
)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# numpy's next_double: the top 53 bits of a 64-bit output times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
# (stream, iteration, block) triples per philox_block call of a fill: bounds
# its ten working arrays (320 KB at this length), whatever a round asks for.
_PHILOX_CHUNK = 4096


def _mulhilo(
    halves: tuple[np.uint64, np.uint64, np.uint64],
    x: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    temps: tuple[np.ndarray, np.ndarray],
) -> None:
    """Write the high and low 64-bit words of ``multiplier * x``, from 32-bit halves.

    ``halves`` is (low half, high half, whole) of the multiplier.  Each
    step writes into ``high``, ``low`` or ``temps``, which have the shape
    of ``x`` and alias neither it nor each other.  No partial sum
    overflows: (2**32 - 1)**2 + 2 (2**32 - 1) < 2**64 (Warren, *Hacker's
    Delight*, 2nd ed., 2012, section 8-2).
    """
    m_lo, m_hi, m = halves
    x_lo, mid = temps
    np.bitwise_and(x, _LOW32, x_lo)
    np.right_shift(x, _SHIFT32, high)  # x_hi
    np.multiply(x_lo, m_lo, mid)
    np.right_shift(mid, _SHIFT32, mid)
    np.multiply(high, m_lo, low)
    np.add(mid, low, mid)  # mid = x_hi m_lo + (x_lo m_lo >> 32)
    np.multiply(x_lo, m_hi, x_lo)
    np.bitwise_and(mid, _LOW32, low)
    np.add(x_lo, low, x_lo)  # x_lo = x_lo m_hi + (mid & LOW32)
    np.multiply(high, m_hi, high)
    np.right_shift(mid, _SHIFT32, mid)
    np.add(high, mid, high)
    np.right_shift(x_lo, _SHIFT32, x_lo)
    np.add(high, x_lo, high)  # x_hi m_hi + (mid >> 32) + (x_lo >> 32)
    np.multiply(x, m, low)


def philox_block(keys, iterations: np.ndarray, block: int | np.ndarray) -> np.ndarray:
    """Output block ``block`` of the Philox4x64-10 stream of each iteration.

    Row ``r`` holds the four 64-bit words that the stream keyed by
    ``keys`` emits, for iteration ``iterations[r]``, as its draws
    ``4 * b`` to ``4 * b + 3``, where ``b`` is ``block`` or, for an array,
    ``block[r]``; bit for bit as ``np.random.Philox`` emits them.  ``keys``
    is one stream's two key words, or two arrays holding row ``r``'s key
    words at ``r``.  The generator bumps its counter before each block, so
    block ``b`` encrypts counter ``(b + 1, 0, i, 0)``.  Iteration indices
    must lie below 2**64.
    """
    shape = iterations.shape
    c0 = np.empty(shape, dtype=np.uint64)
    c0[...] = np.asarray(block).astype(np.uint64) + np.uint64(1)
    c1 = np.zeros(shape, dtype=np.uint64)
    c2 = iterations.astype(np.uint64)
    c3 = np.zeros(shape, dtype=np.uint64)
    hi0, lo0, hi1, lo1 = (np.empty(shape, dtype=np.uint64) for _ in range(4))
    temps = (np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64))
    # An array, so the bumps wrap modulo 2**64 without numpy's scalar overflow warning.
    key = np.asarray(keys, dtype=np.uint64).reshape(2, -1)
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            key = key + _PHILOX_KEY_BUMPS
        _mulhilo(_PHILOX_HALVES[0], c0, hi0, lo0, temps)
        _mulhilo(_PHILOX_HALVES[1], c2, hi1, lo1, temps)
        np.bitwise_xor(hi1, c1, hi1)
        np.bitwise_xor(hi1, key[0], hi1)
        np.bitwise_xor(hi0, c3, hi0)
        np.bitwise_xor(hi0, key[1], hi0)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the
        # old counter words become the next round's output buffers.
        c0, c1, c2, c3, hi1, lo1, hi0, lo0 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    return np.stack((c0, c1, c2, c3), axis=1)


def _doubles(raw: np.ndarray) -> np.ndarray:
    """The ``random()`` double that numpy reads from each 64-bit output."""
    return (raw >> _SHIFT11) * _DOUBLE_UNIT


_NONE = np.empty(0, dtype=np.int64)  # no (row, block) pairs


class StreamUniforms:
    """The 64-bit outputs of one stream over a block of iterations.

    Row ``r`` stands for iteration ``start + r``; its position ``j`` is the
    ``j``-th 64-bit output of ``RngStream(seed, key, start + r).generator``'s
    bit generator.  Position ``j`` sits in Philox block ``j // 4``.  Blocks
    are generated on demand, and only for the rows that read them: by
    :func:`fill_streams`, after which ``_outputs`` gives the outputs
    themselves, and ``_column`` the double that the ``j``-th ``random()``
    call returns.
    """

    def __init__(self, words: tuple[int, int], start: int, stop: int):
        self.words = words
        self.rows = stop - start
        self._iterations = np.arange(start, stop, dtype=np.uint64)
        self._raw = np.empty((self.rows, 0), dtype=np.uint64)
        self._blocks = np.zeros(self.rows, dtype=np.int64)  # blocks filled per row

    def _missing(self, rows: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (row, block) pairs that positions ``0 .. ends[k] - 1`` of ``rows[k]`` lack.

        Makes room for them, and counts them as filled: the caller writes them.
        """
        if rows.size == 0:
            return _NONE, _NONE
        needed = (ends + 3) // 4
        top = int(needed.max())
        if 4 * top > self._raw.shape[1]:
            grown = np.empty((self.rows, 4 * top), dtype=np.uint64)
            grown[:, : self._raw.shape[1]] = self._raw
            self._raw = grown
        have = self._blocks[rows]
        missing = np.maximum(needed - have, 0)
        if not missing.any():
            return _NONE, _NONE
        self._blocks[rows] = np.maximum(have, needed)
        pick = np.repeat(rows, missing)
        blocks = np.repeat(have - np.cumsum(missing) + missing, missing) + np.arange(pick.size)
        return pick, blocks

    def _column(self, position: int, rows: np.ndarray) -> np.ndarray:
        return _doubles(self._raw[rows, position])

    def _outputs(self, rows: np.ndarray, first: np.ndarray, length: int) -> np.ndarray:
        return self._raw[rows[:, None], first[:, None] + np.arange(length)]


def fill_streams(requests) -> None:
    """Make positions ``0 .. ends[k] - 1`` of ``rows[k]`` available, for every request.

    ``requests`` holds ``(uniforms, rows, ends)`` triples, any number per
    stream.  Every (stream, iteration, block) that one of them lacks is
    encrypted in one Philox pass over all the streams, with a key per
    element, in chunks of ``_PHILOX_CHUNK``.
    """
    wanted = []
    for uniforms, rows, ends in requests:
        pick, blocks = uniforms._missing(rows, ends)
        if pick.size:
            wanted.append((uniforms, pick, blocks))
    if not wanted:
        return
    sizes = [pick.size for _, pick, _ in wanted]
    keys = np.repeat(np.array([u.words for u, _, _ in wanted], dtype=np.uint64).T, sizes, axis=1)
    iterations = np.concatenate([u._iterations[pick] for u, pick, _ in wanted])
    blocks = np.concatenate([blocks for _, _, blocks in wanted])
    words = np.empty((iterations.size, 4), dtype=np.uint64)
    for lo in range(0, iterations.size, _PHILOX_CHUNK):
        hi = lo + _PHILOX_CHUNK
        words[lo:hi] = philox_block(keys[:, lo:hi], iterations[lo:hi], blocks[lo:hi])
    lo = 0
    for (uniforms, pick, blocks), size in zip(wanted, sizes):
        uniforms._raw.reshape(uniforms.rows, -1, 4)[pick, blocks] = words[lo : lo + size]
        lo += size


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def make_batch_sampler(q: UncertainQuantity):
    """Compile ``q`` into a closure summing ``n`` draws in one vector call.

    Consumes the bit stream exactly as ``n`` single numpy draws would
    (numpy vector draws advance the stream identically); the sum itself
    is accumulated in vector order.
    """
    if is_degenerate(q):
        value = degenerate_value(q)
        return lambda gen, n: value * n
    if isinstance(q, Uniform):
        lo, hi = q.lo, q.hi
        return lambda gen, n: float(gen.uniform(lo, hi, size=n).sum())
    if isinstance(q, Triangular):
        lo, mode, hi = q.lo, q.mode, q.hi
        return lambda gen, n: float(gen.triangular(lo, mode, hi, size=n).sum())
    if isinstance(q, Pert):
        lo, width = q.lo, q.hi - q.lo
        alpha = 1.0 + 4.0 * (q.mode - q.lo) / width
        beta = 1.0 + 4.0 * (q.hi - q.mode) / width
        return lambda gen, n: lo * n + width * float(gen.beta(alpha, beta, size=n).sum())
    if isinstance(q, Lognormal):
        median, sigma = q.median, q.sigma

        def draw_lognormal_sum(gen, n: int) -> float:
            # Array exp only pays off for larger batches; either branch
            # consumes the stream identically.
            z = gen.standard_normal(size=n)
            if n <= 8:
                total = 0.0
                for value in z.tolist():
                    total += math.exp(sigma * value)
                return median * total
            return median * float(np.exp(sigma * z).sum())

        return draw_lognormal_sum
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


# ---------------------------------------------------------------------------
# Vector draws from 64-bit outputs
# ---------------------------------------------------------------------------

_LAYER = np.uint64(0xFF)
_SIGN = np.uint64(0x100)
_SHIFT9 = np.uint64(9)
_MAGNITUDE = np.uint64((1 << 52) - 1)
# The self-checks' fixed sample: the first 64 outputs of iterations 0-127 of one stream.
_CHECK_WORDS = (0x452821E638D01377, 0xBE5466CF34E90C6C)
_CHECK_ROWS = 128
_CHECK_BLOCKS = 16
_CHECK_SHAPES = (1.7, 4.3)
# Their batches of 1 to 24 events, summed by sum_draws (PERT's above 8 are misses).
_CHECK_QUANTITIES = (Lognormal(1.0, 1.0), Pert(0.0, 0.175, 1.0))


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn``, a :mod:`math` function, of each value.

    The ``math`` functions are the C library's, as numpy's C samplers call
    them; numpy's own ufuncs can differ from them in the last bit.
    """
    flat = values.ravel().tolist()
    return np.fromiter(map(fn, flat), float, len(flat)).reshape(values.shape)


def _log(values: np.ndarray) -> np.ndarray:
    """The C library's log of each value in [0, inf]: -inf at 0, where ``math.log`` raises."""
    zero = values == 0.0
    if not zero.any():
        return _libm(math.log, values)
    logs = _libm(math.log, np.where(zero, 1.0, values))
    logs[zero] = -math.inf
    return logs


@dataclass(frozen=True, eq=False)  # hashed by identity: a key of _vector_sampler's cache
class _Ziggurat:
    """numpy's ziggurat tables as arrays (see ``_ziggurat``)."""

    wi: np.ndarray
    ki: np.ndarray


def _standard_normals(outputs: np.ndarray, tables: _Ziggurat) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal from each 64-bit output, and where that is all it reads.

    ``Generator.standard_normal`` is a 256-layer ziggurat (Marsaglia &
    Tsang 2000, JSS 5(8)) that returns ``±rabs * wi[layer]`` from one
    output when ``rabs < ki[layer]``, and otherwise takes a second try
    that reads more.
    """
    layer = (outputs & _LAYER).astype(np.intp)
    rabs = ((outputs >> _SHIFT9) & _MAGNITUDE).astype(np.int64)
    z = rabs * tables.wi[layer]
    np.negative(z, out=z, where=(outputs & _SIGN) != 0)
    return z, rabs < tables.ki[layer]


def _standard_gammas(
    shape: float, normal: np.ndarray, uniform: np.ndarray, tables: _Ziggurat
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's gamma for ``shape > 1`` from one normal and one uniform output each.

    Marsaglia & Tsang 2000 (ACM TOMS 26(3)) with numpy's arithmetic.
    Exact where that is all the draw reads: the normal takes one output,
    ``V > 0``, and the first try accepts, by the squeeze or by the log
    test, which reads no further output.
    """
    b = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9 * b)
    x, exact = _standard_normals(normal, tables)
    u = _doubles(uniform)
    v = 1.0 + c * x
    exact &= v > 0.0
    v = v * v * v
    xx = x * x
    accepted = u < 1.0 - 0.0331 * xx * xx  # the squeeze
    test = exact & ~accepted
    if test.any():
        xt, vt = x[test], v[test]
        # An infinite shape makes b * 0 a nan, which fails the test, as in numpy.
        with np.errstate(invalid="ignore"):
            accepted[test] = _log(u[test]) < 0.5 * xt * xt + b * (1.0 - vt + _log(vt))
    return b * v, exact & accepted


def _betas(
    shapes: tuple[float, float], outputs: np.ndarray, tables: _Ziggurat
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``beta(a, b)`` (both shapes above 1) from outputs ``[..., 0:4]``: Ga / (Ga + Gb)."""
    ga, exact_a = _standard_gammas(shapes[0], outputs[..., 0], outputs[..., 1], tables)
    gb, exact_b = _standard_gammas(shapes[1], outputs[..., 2], outputs[..., 3], tables)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where not exact
        return ga / (ga + gb), exact_a & exact_b


def _passes_self_check(tables: _Ziggurat) -> bool:
    """True if the vector normals, betas and batch sums equal numpy's on a fixed sample.

    Each row of the sample is one positioned generator.  The normals and
    betas drawn from its outputs must match up to the first that is not
    exact, and :func:`sum_draws` of lognormal and PERT batches of 1 to 24
    events, two of each, must match :func:`make_batch_sampler` wherever it
    draws them.
    """
    rows, blocks = _CHECK_ROWS, _CHECK_BLOCKS
    outputs = philox_block(
        _CHECK_WORDS,
        np.repeat(np.arange(rows, dtype=np.uint64), blocks),
        np.tile(np.arange(blocks), rows),
    ).reshape(rows, 4 * blocks)
    sampler = SubstreamSampler()
    normals = [sampler.at(_CHECK_WORDS, i).standard_normal(4 * blocks) for i in range(rows)]
    betas = [sampler.at(_CHECK_WORDS, i).beta(*_CHECK_SHAPES, size=blocks) for i in range(rows)]

    def agrees(drawn, exact, reference) -> bool:
        prefix = np.logical_and.accumulate(exact, axis=1)
        return np.array_equal(drawn[prefix], np.array(reference)[prefix])

    if not (
        agrees(*_standard_normals(outputs, tables), normals)
        and agrees(*_betas(_CHECK_SHAPES, outputs.reshape(rows, blocks, 4), tables), betas)
    ):
        return False
    counts = np.arange(48) % 24 + 1
    for q in _CHECK_QUANTITIES:
        uniforms = StreamUniforms(_CHECK_WORDS, 0, counts.size)
        consumed = np.zeros_like(counts)
        vector = _vector_sampler(q, tables)
        sums, misses = _draw_rounds([sum_draws(vector, uniforms, counts, consumed)])[0]
        batch = make_batch_sampler(q)
        reference = [batch(sampler.at(_CHECK_WORDS, i), n) for i, n in enumerate(counts.tolist())]
        drawn = np.ones(counts.size, dtype=bool)
        drawn[misses] = False
        if not np.array_equal(sums[drawn], np.array(reference)[drawn]):
            return False
    return True


@lru_cache(maxsize=1)
def _normal_tables() -> _Ziggurat | None:
    """The ziggurat tables, or None if they fail the self-check.

    Loaded on the first lognormal or PERT draw.  A table that disagrees
    with the installed numpy turns the vector path off.
    """
    from . import _ziggurat

    tables = _Ziggurat(np.array(_ziggurat.WI, dtype=float), np.array(_ziggurat.KI, dtype=np.int64))
    return tables if _passes_self_check(tables) else None


class VectorSampler(NamedTuple):
    """Exact vector draws of one quantity from 64-bit outputs.

    A draw that takes no second try reads ``width`` outputs:
    ``draws(outputs)`` maps an array (rows, n, width) of them to
    ``(draws, exact)``, where ``exact`` marks the draws that need no
    more.  ``total(draws)`` maps an array (rows, n) of exact draws to
    each row's batch sum, with the bits of :func:`make_batch_sampler`; a
    value, one event a year, is a sum of one draw.  It draws batches of up
    to ``max_events``.
    """

    width: int
    max_events: int
    draws: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    total: Callable[[np.ndarray], np.ndarray]


def vector_sampler(q: UncertainQuantity) -> VectorSampler | None:
    """The vector path of a non-degenerate ``q``, or None if it has none.

    Uniform and triangular draws are numpy's transforms of one ``random()``
    double; lognormal draws use one normal, and PERT draws one beta, from
    numpy's rejection samplers.  None for PERT with a shape of exactly 1
    (mode at an end), which numpy draws as an exponential, and for
    lognormal and PERT when the ziggurat table fails its self-check.
    """
    if not isinstance(q, (Lognormal, Pert)):
        return _vector_sampler(q, None)
    tables = _normal_tables()
    return None if tables is None else _vector_sampler(q, tables)


@lru_cache(maxsize=None)
def _vector_sampler(q: UncertainQuantity, tables: _Ziggurat | None) -> VectorSampler | None:
    if isinstance(q, Uniform):
        lo, width = q.lo, q.hi - q.lo
        return _from_doubles(lambda u: lo + width * u)
    if isinstance(q, Triangular):
        # numpy's random_triangular, both branches.
        lo, mode, hi = q.lo, q.mode, q.hi
        base = hi - lo
        left = mode - lo
        ratio = left / base
        left_product = left * base
        right_product = (hi - mode) * base
        return _from_doubles(
            lambda u: np.where(
                u <= ratio,
                lo + np.sqrt(u * left_product),
                hi - np.sqrt((1.0 - u) * right_product),
            )
        )
    if isinstance(q, Lognormal):
        median, sigma = q.median, q.sigma

        def total(z):
            with np.errstate(over="ignore"):
                if z.shape[1] > 8:
                    # The reference's form for n > 8: numpy's exp and pairwise sum.
                    return median * np.exp(sigma * z).sum(axis=1)
                # For n <= 8: math.exp, as the scalar path (numpy's exp can
                # differ in the last bit), and sequential adds from 0.0.
                e = _libm(math.exp, sigma * z)
                total = e[:, 0].copy()
                for j in range(1, e.shape[1]):
                    total += e[:, j]
                return median * total

        return VectorSampler(
            1, _MAX_EVENTS, lambda outputs: _standard_normals(outputs[..., 0], tables), total
        )
    if isinstance(q, Pert):
        lo, width = q.lo, q.hi - q.lo
        shapes = (1.0 + 4.0 * (q.mode - q.lo) / width, 1.0 + 4.0 * (q.hi - q.mode) / width)
        if 1.0 in shapes:
            return None

        def total(betas):
            with np.errstate(over="ignore", invalid="ignore"):
                # numpy's per-row sum, as the batch's 1-D sum.
                return lo * betas.shape[1] + width * betas.sum(axis=1)

        return VectorSampler(
            4, _MAX_PERT_EVENTS, lambda outputs: _betas(shapes, outputs, tables), total
        )
    return None


def _from_doubles(transform) -> VectorSampler:
    """The sampler of a family numpy draws from one ``random()`` double: always exact."""

    def draws(outputs):
        values = transform(_doubles(outputs[..., 0]))
        return values, np.ones(values.shape, dtype=bool)

    # numpy's per-row sum, as batch draws sum.
    return VectorSampler(1, _MAX_EVENTS, draws, lambda values: values.sum(axis=1))


def sum_draws(
    vector: VectorSampler, uniforms: StreamUniforms, counts: np.ndarray, consumed: np.ndarray
):
    """Per row, the sum of ``counts[r]`` draws from position ``consumed[r]`` on.

    A generator, as :func:`count_draws`: it yields one request for the
    draws of every row, and returns ``(sums, misses)``.  The rows in
    ``misses`` (a draw that is not exact, or a batch longer than
    ``vector.max_events``) hold filler and must be drawn on the
    positioned path.
    """
    sums = np.zeros(uniforms.rows)
    misses = [np.flatnonzero(counts > vector.max_events)]
    batched = np.flatnonzero((counts > 0) & (counts <= vector.max_events))
    yield uniforms, batched, consumed[batched] + counts[batched] * vector.width
    for count in np.flatnonzero(np.bincount(counts[batched])).tolist():
        rows = np.flatnonzero(counts == count)
        outputs = uniforms._outputs(rows, consumed[rows], count * vector.width)
        draws, exact = vector.draws(outputs.reshape(rows.size, count, vector.width))
        exact = exact.all(axis=1)
        if not exact.all():
            misses.append(rows[~exact])
            rows, draws = rows[exact], draws[exact]
        sums[rows] = vector.total(draws)
    return sums, np.concatenate(misses)


def sample(q: UncertainQuantity, rng: "RngStream | np.random.Generator") -> float:
    """Draw one value from ``q``; a Point returns its value without a draw."""
    return make_batch_sampler(q)(_resolve_generator(rng), 1)


# ---------------------------------------------------------------------------
# Frequency models
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def make_count_sampler(freq: FrequencyModel):
    """Compile a frequency model into an events-per-year draw closure.

    PointRate uses expected-value Bernoulli thinning for the fractional
    part, so the mean event count equals the rate exactly.
    """
    if isinstance(freq, PointRate):
        rate = freq.events_per_year
        base = int(rate)
        frac = rate - base
        if frac == 0:
            return lambda gen: base
        return lambda gen: base + (1 if gen.random() < frac else 0)
    if isinstance(freq, PoissonRate):
        lam = freq.mean_events_per_year
        if lam == 0:
            return lambda gen: 0
        return lambda gen: int(gen.poisson(lam))
    raise TypeError(f"unsupported frequency type {type(freq).__name__}")


def sample_event_count(
    freq: FrequencyModel, rng: "RngStream | np.random.Generator"
) -> int:
    """Draw the number of events in one year."""
    return make_count_sampler(freq)(_resolve_generator(rng))


def positioned_total(count_draw, batch, gen: np.random.Generator) -> float:
    """A year's total: its event count by ``count_draw``, then that many draws by ``batch``.

    A year without events totals 0.0, whatever ``batch`` of zero draws gives.
    """
    count = count_draw(gen)
    return batch(gen, count) if count else 0.0


def count_draws(freq: FrequencyModel, uniforms: StreamUniforms):
    """Event counts for every row of ``uniforms``, as :func:`make_count_sampler` draws them.

    A generator: it yields each request ``(uniforms, rows, ends)`` for the
    positions it reads next (see :func:`fill_streams`), and returns
    ``(counts, consumed)``: per row, the count and how many ``random()``
    values its draw used, so later draws of the same stream start at
    position ``consumed``.  Poisson rates below 10 use numpy's
    multiplication method, four positions (one Philox block) per round;
    rates of 10 or more its PTRS rejection sampler, two tries per round
    (:func:`_poisson_ptrs`).  Returns None, for the positioned path, where
    PTRS fails its self-check.
    """
    rows = uniforms.rows
    if isinstance(freq, PointRate):
        base = int(freq.events_per_year)
        frac = freq.events_per_year - base
        if frac == 0:
            return np.full(rows, base, dtype=np.int64), np.zeros(rows, dtype=np.int64)
        every = np.arange(rows)
        yield uniforms, every, np.ones(rows, dtype=np.int64)
        return base + (uniforms._column(0, every) < frac), np.ones(rows, dtype=np.int64)
    if isinstance(freq, PoissonRate):
        lam = freq.mean_events_per_year
        counts = np.zeros(rows, dtype=np.int64)
        if lam == 0:
            return counts, counts.copy()
        if lam >= 10:
            if not _ptrs_passes_self_check():
                return None
            return (yield from _poisson_ptrs(lam, uniforms))
        threshold = math.exp(-lam)
        product = np.ones(rows)
        active = np.arange(rows)
        position = 0
        while active.size:
            if position % 4 == 0:  # the Philox block holding the next four positions
                yield uniforms, active, np.full(active.size, position + 4)
            running = product[active] * uniforms._column(position, active)
            product[active] = running
            active = active[running > threshold]
            counts[active] += 1
            position += 1
        return counts, counts + 1
    raise TypeError(f"unsupported frequency type {type(freq).__name__}")


# numpy's random_poisson_ptrs (Hörmann 1993, Insurance: Mathematics and
# Economics 12(1)), in its source's terms: b = B0 + B1 sqrt(lam),
# a = A0 + A1 b, 1/alpha = I0 + I1 / (b - I2), v_r = V0 - V1 / (b - V2),
# k = floor((2a / us + b) U + lam + K), and the bounds on us.
_PTRS = {
    "B0": 0.931, "B1": 2.53, "A0": -0.059, "A1": 0.02483, "I0": 1.1239, "I1": 1.1328,
    "I2": 3.4, "V0": 0.9277, "V1": 3.6224, "V2": 2.0, "K": 0.43, "US": 0.07, "US_TAIL": 0.013,
}
# numpy's random_loggam: its Stirling series coefficients a[0..9], and log(2 pi).
_LOGGAM = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)
_LOG_2PI = 1.8378770664093453
_PTRS_CHECK_RATES = (10.0, 17.7, 1234.5, MAX_EVENT_RATE)


@lru_cache(maxsize=1 << 16)
def _loggam(x: float) -> float:
    """numpy's random_loggam: log Gamma(x) for x > 0, with its operations."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM[k]
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        x0 -= 1.0
        gl -= math.log(x0)
    return gl


def _loggams_after(k: np.ndarray) -> np.ndarray:
    """``_loggam(k + 1)`` of each whole number ``k >= 0``, computed once per distinct value."""
    distinct = np.sort(k)
    distinct = distinct[np.diff(distinct, prepend=-1.0) != 0.0]
    table = np.array([_loggam(x + 1.0) for x in distinct.tolist()])
    return table[np.searchsorted(distinct, k)]


def _poisson_ptrs(lam: float, uniforms: StreamUniforms):
    """numpy's Poisson counts at ``lam >= 10``, as :func:`count_draws` returns them.

    Each try reads two ``random()`` values, U and V; its quick accept and
    its log test are numpy's, with the C library's ``log``.  Each round
    fills the Philox block holding the next two tries of every row still
    drawing.
    """
    p = _PTRS
    b = p["B0"] + p["B1"] * math.sqrt(lam)
    a = p["A0"] + p["A1"] * b
    log_invalpha = math.log(p["I0"] + p["I1"] / (b - p["I2"]))
    vr = p["V0"] - p["V1"] / (b - p["V2"])
    loglam = math.log(lam)
    counts = np.zeros(uniforms.rows, dtype=np.int64)
    consumed = np.zeros(uniforms.rows, dtype=np.int64)
    live = np.arange(uniforms.rows)
    position = 0
    while live.size:
        if position % 4 == 0:
            yield uniforms, live, np.full(live.size, position + 4)
        u = uniforms._column(position, live) - 0.5
        v = uniforms._column(position + 1, live)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((2 * a / us + b) * u + lam + p["K"])
        accept = (us >= p["US"]) & (v <= vr)
        # numpy casts k to a 64-bit integer: -inf, nan and k >= 2**63 turn negative.
        test = ~accept & (k >= 0) & (k < 2.0**63) & ((us >= p["US_TAIL"]) | (v <= us))
        if test.any():
            ut, kt = us[test], k[test]
            lhs = _log(v[test]) + log_invalpha - _libm(math.log, a / (ut * ut) + b)
            accept[test] = lhs <= kt * loglam - lam - _loggams_after(kt)
        done = live[accept]
        counts[done] = k[accept]
        consumed[done] = position + 2
        live = live[~accept]
        position += 2
    return counts, consumed


def _consumed(generator: np.random.Generator) -> int:
    """Outputs a positioned generator has read: four per counter bump, less those still buffered."""
    state = generator.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


@lru_cache(maxsize=1)
def _ptrs_passes_self_check() -> bool:
    """True if vector PTRS counts, and the outputs they read, equal numpy's on a fixed sample.

    Run on the first draw of a Poisson rate of 10 or more: at rates from
    10 to ``MAX_EVENT_RATE``, each over the positioned generators of
    ``_CHECK_ROWS`` iterations of one stream.
    """
    sampler = SubstreamSampler()
    for lam in _PTRS_CHECK_RATES:
        uniforms = StreamUniforms(_CHECK_WORDS, 0, _CHECK_ROWS)
        counts, consumed = _draw_rounds([_poisson_ptrs(lam, uniforms)])[0]
        for i, (count, used) in enumerate(zip(counts.tolist(), consumed.tolist())):
            generator = sampler.at(_CHECK_WORDS, i)
            if generator.poisson(lam) != count or _consumed(generator) != used:
                return False
    return True


# ---------------------------------------------------------------------------
# Stream kernel
#
# Each (stream, iteration) pair owns its own Philox counter block, so a
# stream is drawn for every iteration of a block at once, and every input,
# a value being one event a year, takes one draw path.  Its draws are:
#
# - Vector, from the Philox words with numpy's own arithmetic: point-rate
#   thinning, Poisson counts at every rate (count_draws), and uniform,
#   triangular, lognormal and PERT batches whose every draw numpy accepts
#   at the first try (vector_sampler, sum_draws).
# - Positioned, one generator per (stream, iteration): a batch with a draw
#   that needs a second try of the ziggurat or gamma sampler, a PERT with a
#   shape of 1, every draw of a sampler that failed its self-check, and a
#   batch of more than _MAX_EVENTS events, or _MAX_PERT_EVENTS for PERT:
#   its batches read four outputs a draw, and above 8 events they were
#   slower as vectors than positioned on wide portfolios.
# ---------------------------------------------------------------------------

# Streams drawn in one round: bounds the outputs that live streams hold to
# 4 * (stop - start) stream-rows.  Fewer take more Philox passes.  Against
# four, sixteen raised the peak RSS of a 1000-iteration reference run by
# 0.5 MB, and one raised a 3x10^4 run's by 0.6 MB (allocator layout).
_ROUND_STREAMS = 4


def draw_streams(master_seed: int, streams: dict, start: int, stop: int) -> dict[str, np.ndarray]:
    """Each stream's annual totals for iterations ``start`` to ``stop``, by stream key.

    ``streams`` maps each key that seeds a stream's Philox words to its
    (frequency, quantity).  Row ``r`` has the bits of the positioned
    generator at iteration ``start + r``, however a run splits into calls.
    """
    sampler = SubstreamSampler()
    draws = [
        _draw_stream(stream_words(master_seed, key), freq, quantity, sampler, start, stop)
        for key, (freq, quantity) in streams.items()
    ]
    return dict(zip(streams, _draw_rounds(draws)))


def _draw_stream(words, freq, quantity, sampler: SubstreamSampler, start: int, stop: int):
    """One stream's annual total per iteration: a value's draw or a risk state's loss.

    Consumes the stream as ``sample`` and ``ale_simulate`` do.  A generator,
    as :func:`count_draws`: it yields a request for the positions it reads
    next, and returns the column.
    """
    uniforms = StreamUniforms(words, start, stop)
    drawn = yield from count_draws(freq, uniforms)
    totals = np.zeros(stop - start)
    if drawn is None:
        scalar_rows = range(stop - start)
    else:
        counts, consumed = drawn
        if is_degenerate(quantity):
            return np.where(counts > 0, degenerate_value(quantity) * counts, 0.0)
        vector = vector_sampler(quantity)
        if vector is None:
            scalar_rows = np.flatnonzero(counts).tolist()
        else:
            totals, misses = yield from sum_draws(vector, uniforms, counts, consumed)
            scalar_rows = misses.tolist()
    count_draw = make_count_sampler(freq)
    batch = make_batch_sampler(quantity)
    at = sampler.at
    for row in scalar_rows:
        totals[row] = positioned_total(count_draw, batch, at(words, start + row))
    return totals


def _draw_rounds(draws: list) -> list[np.ndarray]:
    """The columns of ``draws``, stream generators over one block's rows, in order.

    Streams are drawn in lockstep rounds.  Each round fills the positions
    that every live stream asked for in one :func:`fill_streams` pass, then
    lets each read them and ask again.  A stream joins while fewer than
    ``_ROUND_STREAMS`` are live, and leaves when it returns its column.
    """
    columns: list = [None] * len(draws)
    waiting = deque(enumerate(draws))
    live: dict[int, tuple] = {}

    def advance(index: int, draw) -> None:
        try:
            live[index] = (draw, next(draw))
        except StopIteration as done:
            live.pop(index, None)
            columns[index] = done.value

    while waiting or live:
        while waiting and len(live) < _ROUND_STREAMS:
            advance(*waiting.popleft())
        fill_streams([request for _, request in live.values()])
        for index, (draw, _) in list(live.items()):
            advance(index, draw)
    return columns
