"""Sampling: deterministic substreams and the draws from uncertain quantities.

Sampling is driven by counter-based substreams so that the value drawn for
a given (master seed, stream key, iteration) triple is identical on every
platform and under any degree of parallelism.  The quantities themselves,
their rules and moments live in :mod:`airoi.quantities`, which needs no
numpy; they are importable from here too.
"""

from __future__ import annotations

import ctypes
import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .quantities import (  # noqa: F401  (their former home: re-exported)
    _MASK64, MAX_EVENT_RATE, SEED_LIMIT, FrequencyModel, Lognormal, Pert, Point, PointRate,
    PoissonRate, Triangular, UncertainQuantity, Uniform, degenerate_value, frequency_mean,
    is_degenerate, mean, percentile, scaled, stream_words, support, validate, validate_frequency,
)

# Longest severity batch drawn as a vector: one-double families, and the
# rejection-sampled ones (lognormal, PERT), for which a longer cap was slower
# on wide portfolios.  Longer batches take the positioned scalar path.
_MAX_UNIFORM_EVENTS = 64
_MAX_WORD_EVENTS = 8


# ---------------------------------------------------------------------------
# Deterministic substreams
# ---------------------------------------------------------------------------


def _philox_for(words: tuple[int, int], iteration_index: int) -> np.random.Philox:
    # Iteration occupies counter word 2, leaving 2^128 draws per iteration.
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = iteration_index & _MASK64
    counter[3] = (iteration_index >> 64) & _MASK64
    key = np.array(words, dtype=np.uint64)
    return np.random.Philox(counter=counter, key=key)


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
            self._generator = np.random.Generator(
                _philox_for(words, self.iteration_index)
            )
        return self._generator

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"stream_key={self.stream_key!r}, iteration_index={self.iteration_index})"
        )


def _philox_state_views(bit_generator: np.random.Philox):
    """Writable views of a Philox's C state, or None if its layout is not the known one.

    numpy's ``philox_state`` struct starts ``{uint64 *ctr; uint64 *key; int
    buffer_pos; uint64 buffer[4]; int has_uint32; ...}``, and ``ctr`` and
    ``key`` point into the Philox object itself.  Writing these fields
    repositions the generator about three times faster than the ``state``
    setter.  The layout is private to numpy, so the views are returned only
    if every address lies inside the object and every field read through
    them matches a state set through the public setter.
    """
    start = id(bit_generator)
    end = start + bit_generator.__sizeof__()
    address = bit_generator.ctypes.state_address

    def inside(pointer: int, size: int) -> bool:
        return start <= pointer and pointer + size <= end

    if not inside(address, 64):
        return None
    pointers = (ctypes.c_uint64 * 2).from_address(address)
    if not (inside(pointers[0], 32) and inside(pointers[1], 16)):
        return None
    counter = (ctypes.c_uint64 * 4).from_address(pointers[0])
    key = (ctypes.c_uint64 * 2).from_address(pointers[1])
    buffer_pos = ctypes.c_int.from_address(address + 16)
    buffer = (ctypes.c_uint64 * 4).from_address(address + 24)
    has_uint32 = ctypes.c_int.from_address(address + 56)
    probe = [0x243F6A8885A308D3 + 7919 * i for i in range(10)]
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(probe[0:4], dtype=np.uint64),
            "key": np.array(probe[4:6], dtype=np.uint64),
        },
        "buffer": np.array(probe[6:10], dtype=np.uint64),
        "buffer_pos": 3,
        "has_uint32": 1,
        "uinteger": 5,
    }
    read = list(counter) + list(key) + list(buffer)
    if read != probe or buffer_pos.value != 3 or has_uint32.value != 1:
        return None
    return counter, key, buffer_pos, has_uint32


class SubstreamSampler:
    """Reusable generator for tight per-iteration loops.

    Produces draw sequences bit-identical to :class:`RngStream` while
    avoiding a bit-generator allocation per (stream, iteration) pair.  Not
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
        self._views = _philox_state_views(self._bit_generator)

    def at(self, words: tuple[int, int], iteration_index: int) -> np.random.Generator:
        """Position the shared generator at a (stream, iteration) pair."""
        if self._views is None:
            self._counter[2] = iteration_index & _MASK64
            self._counter[3] = (iteration_index >> 64) & _MASK64
            self._key[0] = words[0]
            self._key[1] = words[1]
            self._bit_generator.state = self._state
        else:
            counter, key, buffer_pos, has_uint32 = self._views
            counter[0] = 0
            counter[1] = 0
            counter[2] = iteration_index & _MASK64
            counter[3] = (iteration_index >> 64) & _MASK64
            key[0] = words[0]
            key[1] = words[1]
            buffer_pos.value = 4  # buffer spent: the next draw encrypts a fresh block
            has_uint32.value = 0
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
def make_sampler(q: UncertainQuantity):
    """Compile ``q`` into a single-draw closure over a generator.

    The closure consumes the generator's stream exactly as repeated
    :func:`sample` calls would; hot loops use it to skip per-call dispatch.
    """
    if is_degenerate(q):
        value = degenerate_value(q)
        return lambda gen: value
    if isinstance(q, Uniform):
        lo, hi = q.lo, q.hi
        return lambda gen: float(gen.uniform(lo, hi))
    if isinstance(q, Triangular):
        lo, mode, hi = q.lo, q.mode, q.hi
        return lambda gen: float(gen.triangular(lo, mode, hi))
    if isinstance(q, Pert):
        lo, width = q.lo, q.hi - q.lo
        alpha = 1.0 + 4.0 * (q.mode - q.lo) / width
        beta = 1.0 + 4.0 * (q.hi - q.mode) / width
        return lambda gen: lo + width * float(gen.beta(alpha, beta))
    if isinstance(q, Lognormal):
        median, sigma = q.median, q.sigma
        return lambda gen: median * math.exp(sigma * float(gen.standard_normal()))
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


@lru_cache(maxsize=None)
def make_batch_sampler(q: UncertainQuantity):
    """Compile ``q`` into a closure summing ``n`` draws in one vector call.

    Consumes the bit stream exactly as ``n`` sequential :func:`sample`
    calls would (numpy vector draws advance the stream identically); the
    sum itself is accumulated in vector order.
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
# The self-check's fixed sample: the first 64 outputs of iterations 0-127 of one stream.
_CHECK_WORDS = (0x452821E638D01377, 0xBE5466CF34E90C6C)
_CHECK_ROWS = 128
_CHECK_BLOCKS = 16
_CHECK_SHAPES = (1.7, 4.3)


def _standard_normals(outputs: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal from each 64-bit output, and where it is exact.

    ``Generator.standard_normal`` is a 256-layer ziggurat (Marsaglia &
    Tsang 2000, JSS 5(8)) that returns ``±rabs * wi[layer]`` from one
    output when ``rabs`` lies below the layer's threshold; ``tables``
    hold ``wi`` and the largest such ``rabs`` seen (see ``_ziggurat``).
    """
    wi, thr = tables
    layer = (outputs & _LAYER).astype(np.intp)
    rabs = ((outputs >> _SHIFT9) & _MAGNITUDE).astype(np.int64)
    z = rabs * wi[layer]
    np.negative(z, out=z, where=(outputs & _SIGN) != 0)
    return z, rabs <= thr[layer]


def _standard_gammas(
    shape: float, normal: np.ndarray, uniform: np.ndarray, tables
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's gamma for ``shape > 1`` from one normal and one uniform output each.

    Marsaglia & Tsang 2000 (ACM TOMS 26(3)) with numpy's arithmetic.  Exact
    where the normal is, ``V > 0`` and the squeeze test accepts: the draws
    that take one pass and no logarithm.
    """
    b = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9 * b)
    x, exact = _standard_normals(normal, tables)
    v = 1.0 + c * x
    xx = x * x
    exact &= (v > 0.0) & (_doubles(uniform) < 1.0 - 0.0331 * xx * xx)
    return b * (v * v * v), exact


def _betas(
    shapes: tuple[float, float], outputs: np.ndarray, tables
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``beta(a, b)`` (both shapes above 1) from outputs ``[..., 0:4]``: Ga / (Ga + Gb)."""
    ga, exact_a = _standard_gammas(shapes[0], outputs[..., 0], outputs[..., 1], tables)
    gb, exact_b = _standard_gammas(shapes[1], outputs[..., 2], outputs[..., 3], tables)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where not exact
        return ga / (ga + gb), exact_a & exact_b


def _passes_self_check(tables) -> bool:
    """True if the vector normals and betas equal numpy's on a fixed sample.

    Each row of the sample is one positioned generator.  The normals it
    draws from its outputs must match up to the first that is not exact,
    and so must the betas it draws from them, four outputs each.
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

    return agrees(*_standard_normals(outputs, tables), normals) and agrees(
        *_betas(_CHECK_SHAPES, outputs.reshape(rows, blocks, 4), tables), betas
    )


@lru_cache(maxsize=1)
def _normal_tables():
    """The ziggurat tables as (wi, thr) arrays, or None if they fail the self-check.

    Loaded on the first lognormal or PERT draw.  A table that disagrees
    with the installed numpy turns the vector path off, as
    :func:`_philox_state_views` turns off its shortcut.
    """
    from . import _ziggurat

    tables = (np.array(_ziggurat.WI, dtype=float), np.array(_ziggurat.THR, dtype=np.int64))
    return tables if _passes_self_check(tables) else None


class VectorSampler(NamedTuple):
    """Exact vector draws of one quantity from 64-bit outputs.

    ``sums(outputs)`` maps an array (rows, n, width) of consecutive outputs
    to ``(sums of n draws, exact)``; a value, one event a year, is a sum of
    one draw.  Where ``exact`` holds, a sum equals what
    :func:`make_batch_sampler` returns from a generator whose next outputs
    these are.  The other rows hold filler and must be drawn on the
    positioned path, as must batches of more than ``max_events`` draws.
    """

    width: int
    max_events: int
    sums: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def vector_sampler(q: UncertainQuantity) -> VectorSampler | None:
    """The vector path of a non-degenerate ``q``, or None if it has none.

    Uniform and triangular draws are numpy's transforms of one
    ``random()`` double.  Lognormal draws use one normal, PERT draws one
    beta, drawn with numpy's rejection samplers on the draws that need no
    second try.  None for PERT with a shape of exactly 1 (mode at an end),
    which numpy draws as an exponential, and for lognormal and PERT when
    the ziggurat table fails its self-check.
    """
    if isinstance(q, (Lognormal, Pert)) and _normal_tables() is None:
        return None
    return _vector_sampler(q)


@lru_cache(maxsize=None)
def _vector_sampler(q: UncertainQuantity) -> VectorSampler | None:
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

        def sums(outputs):
            # math.exp, as the scalar path: numpy's exp can differ in the last
            # bit.  Rows that are not exact take exp(0), so raise no OverflowError.
            z, exact = _standard_normals(outputs.reshape(outputs.shape[0], -1), _normal_tables())
            exact = exact.all(axis=1)
            flat = np.where(exact[:, None], sigma * z, 0.0).ravel().tolist()
            e = np.fromiter(map(math.exp, flat), float, len(flat)).reshape(z.shape)
            # The reference's form for n <= 8: sequential adds from 0.0.
            total = e[:, 0].copy()
            with np.errstate(over="ignore"):
                for j in range(1, e.shape[1]):
                    total += e[:, j]
                return median * total, exact

        return VectorSampler(1, _MAX_WORD_EVENTS, sums)
    if isinstance(q, Pert):
        lo, width = q.lo, q.hi - q.lo
        shapes = (1.0 + 4.0 * (q.mode - q.lo) / width, 1.0 + 4.0 * (q.hi - q.mode) / width)
        if 1.0 in shapes:
            return None

        def sums(outputs):
            # Four outputs per beta.
            beta, exact = _betas(shapes, outputs.reshape(outputs.shape[0], -1, 4), _normal_tables())
            with np.errstate(over="ignore", invalid="ignore"):
                # numpy's per-row sum, as the batch's 1-D sum.
                return lo * beta.shape[1] + width * beta.sum(axis=1), exact.all(axis=1)

        return VectorSampler(4, _MAX_WORD_EVENTS, sums)
    return None


def _from_doubles(transform) -> VectorSampler:
    """The sampler of a family numpy draws from one ``random()`` double: always exact."""

    def sums(outputs):
        # numpy's per-row sum, as batch draws sum.
        draws = transform(_doubles(outputs[..., 0]))
        return draws.sum(axis=1), np.ones(outputs.shape[0], dtype=bool)

    return VectorSampler(1, _MAX_UNIFORM_EVENTS, sums)


def sum_draws(
    vector: VectorSampler, uniforms: StreamUniforms, counts: np.ndarray, consumed: np.ndarray
):
    """Per row, the sum of ``counts[r]`` draws from position ``consumed[r]`` on.

    A generator, as :func:`count_draws`: it yields one request for the
    draws of every row, and returns ``(sums, misses)``.  The rows in
    ``misses`` (not exact, or a batch longer than ``vector.max_events``)
    hold filler and must be drawn on the positioned path.
    """
    sums = np.zeros(uniforms.rows)
    misses = [np.flatnonzero(counts > vector.max_events)]
    batched = np.flatnonzero((counts > 0) & (counts <= vector.max_events))
    yield uniforms, batched, consumed[batched] + counts[batched] * vector.width
    for count in np.unique(counts[batched]).tolist():
        rows = np.flatnonzero(counts == count)
        outputs = uniforms._outputs(rows, consumed[rows], count * vector.width)
        sums[rows], exact = vector.sums(outputs.reshape(rows.size, count, vector.width))
        misses.append(rows[~exact])
    return sums, np.concatenate(misses)


def sample(q: UncertainQuantity, rng: "RngStream | np.random.Generator") -> float:
    """Draw one value from ``q``; a Point returns its value without a draw."""
    return make_sampler(q)(_resolve_generator(rng))


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


def count_draws(freq: FrequencyModel, uniforms: StreamUniforms):
    """Event counts for every row of ``uniforms``, as :func:`make_count_sampler` draws them.

    A generator: it yields each request ``(uniforms, rows, ends)`` for the
    positions it reads next (see :func:`fill_streams`), and returns
    ``(counts, consumed)``: per row, the count and how many ``random()``
    values its draw used, so later draws of the same stream start at
    position ``consumed``.  Poisson rates below 10 use numpy's
    multiplication method, one position per round.  Returns None where
    numpy draws by rejection (Poisson rates of 10 or more).
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
            return None
        threshold = math.exp(-lam)
        product = np.ones(rows)
        active = np.arange(rows)
        position = 0
        while active.size:
            yield uniforms, active, np.full(active.size, position + 1)
            running = product[active] * uniforms._column(position, active)
            product[active] = running
            active = active[running > threshold]
            counts[active] += 1
            position += 1
        return counts, counts + 1
    raise TypeError(f"unsupported frequency type {type(freq).__name__}")
