"""Uncertain quantities: the distribution families, their rules and moments.

Every stochastic input to the model (loss severities, occurrence rates,
benefit magnitudes, cost amounts) is expressed as one of five distribution
families.  This module holds what reading, checking and valuing a model at
its means needs, without numpy; :mod:`airoi.distributions` draws from them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

_MASK64 = (1 << 64) - 1
# Master seeds lie in [0, SEED_LIMIT): stream keys use the seed's 64 bits.
SEED_LIMIT = 1 << 64
# Highest event rate accepted, in events per year: one iteration's severity
# batch then holds at most 10^6 floats (8 MB).
MAX_EVENT_RATE = 1e6


@dataclass(frozen=True)
class Point:
    """Degenerate distribution: always returns ``value``."""

    value: float


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float


@dataclass(frozen=True)
class Triangular:
    lo: float
    mode: float
    hi: float


@dataclass(frozen=True)
class Pert:
    """Beta-PERT with the standard shape weight of 4 on the mode."""

    lo: float
    mode: float
    hi: float


@dataclass(frozen=True)
class Lognormal:
    """Parameterized by the median and the log-space standard deviation."""

    median: float
    sigma: float


UncertainQuantity = Union[Point, Uniform, Triangular, Pert, Lognormal]


@dataclass(frozen=True)
class PointRate:
    """Fixed annual event rate; fractional parts realized by Bernoulli thinning."""

    events_per_year: float


@dataclass(frozen=True)
class PoissonRate:
    mean_events_per_year: float


FrequencyModel = Union[PointRate, PoissonRate]


def _parameters(q: UncertainQuantity) -> tuple[float, ...]:
    if isinstance(q, Point):
        return (q.value,)
    if isinstance(q, Uniform):
        return (q.lo, q.hi)
    if isinstance(q, (Triangular, Pert)):
        return (q.lo, q.mode, q.hi)
    if isinstance(q, Lognormal):
        return (q.median, q.sigma)
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


def validate(
    q: UncertainQuantity, *, nonnegative: bool = False, label: str = "quantity"
) -> list[str]:
    """Check distribution invariants; returns one message per violation."""
    problems: list[str] = []
    try:
        params = _parameters(q)
    except TypeError:
        return [f"{label}: unsupported quantity type {type(q).__name__}"]
    if not all(math.isfinite(p) for p in params):
        return [f"{label}: all distribution parameters must be finite, got {params}"]
    if isinstance(q, (Uniform, Triangular, Pert)) and not math.isfinite(q.hi - q.lo):
        return [f"{label}: the width hi - lo must be finite, got ({q.lo}, {q.hi})"]
    if isinstance(q, Uniform):
        if not (q.lo <= q.hi):
            problems.append(f"{label}: uniform requires lo <= hi, got ({q.lo}, {q.hi})")
    elif isinstance(q, (Triangular, Pert)):
        family = "triangular" if isinstance(q, Triangular) else "pert"
        if not (q.lo <= q.mode <= q.hi):
            problems.append(
                f"{label}: {family} requires lo <= mode <= hi, "
                f"got ({q.lo}, {q.mode}, {q.hi})"
            )
        elif family == "pert" and math.isinf(4.0 * max(q.mode - q.lo, q.hi - q.mode)):
            # The beta shapes are 1 + 4 (mode - lo) / (hi - lo) and its mirror.
            problems.append(f"{label}: pert shape overflows, got ({q.lo}, {q.mode}, {q.hi})")
    elif isinstance(q, Lognormal):
        if not (q.median > 0):
            problems.append(f"{label}: lognormal requires median > 0, got {q.median}")
        if q.sigma < 0:
            problems.append(f"{label}: lognormal requires sigma >= 0, got {q.sigma}")
    if nonnegative and not problems:
        lo, _ = support(q)
        if lo < 0:
            problems.append(f"{label}: must be nonnegative, support starts at {lo}")
    return problems


def mean(q: UncertainQuantity) -> float:
    """Closed-form mean of the distribution."""
    if isinstance(q, Point):
        return q.value
    if isinstance(q, Uniform):
        return (q.lo + q.hi) / 2.0
    if isinstance(q, Triangular):
        return (q.lo + q.mode + q.hi) / 3.0
    if isinstance(q, Pert):
        return (q.lo + 4.0 * q.mode + q.hi) / 6.0
    if isinstance(q, Lognormal):
        return q.median * math.exp(q.sigma * q.sigma / 2.0)
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


def support(q: UncertainQuantity) -> tuple[float, float]:
    """Closed support bounds (upper bound may be infinite)."""
    if isinstance(q, Point):
        return q.value, q.value
    if isinstance(q, (Uniform, Triangular, Pert)):
        return q.lo, q.hi
    if isinstance(q, Lognormal):
        return 0.0, math.inf
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


def is_degenerate(q: UncertainQuantity) -> bool:
    """True when sampling ``q`` never consumes randomness (constant value)."""
    if isinstance(q, Point):
        return True
    if isinstance(q, (Uniform, Triangular, Pert)):
        return q.hi == q.lo
    if isinstance(q, Lognormal):
        return q.sigma == 0
    return False


def scaled(q: UncertainQuantity, factor: float) -> UncertainQuantity:
    """Distribution of ``factor * X`` for a nonnegative scale factor."""
    if factor < 0:
        raise ValueError(f"scale factor must be nonnegative, got {factor}")
    if factor == 0:
        return Point(0.0)
    if isinstance(q, Point):
        return Point(q.value * factor)
    if isinstance(q, Uniform):
        return Uniform(q.lo * factor, q.hi * factor)
    if isinstance(q, Triangular):
        return Triangular(q.lo * factor, q.mode * factor, q.hi * factor)
    if isinstance(q, Pert):
        return Pert(q.lo * factor, q.mode * factor, q.hi * factor)
    if isinstance(q, Lognormal):
        return Lognormal(q.median * factor, q.sigma)
    raise TypeError(f"unsupported quantity type {type(q).__name__}")


def degenerate_value(q: UncertainQuantity) -> float:
    """The constant a degenerate quantity always takes (see :func:`is_degenerate`)."""
    if isinstance(q, Point):
        return q.value
    if isinstance(q, Lognormal):
        return q.median
    return q.lo


def frequency_mean(freq: FrequencyModel) -> float:
    if isinstance(freq, PointRate):
        return freq.events_per_year
    if isinstance(freq, PoissonRate):
        return freq.mean_events_per_year
    raise TypeError(f"unsupported frequency type {type(freq).__name__}")


def validate_frequency(freq: FrequencyModel, *, label: str = "frequency") -> list[str]:
    rate = frequency_mean(freq)
    if not 0 <= rate <= MAX_EVENT_RATE:
        return [f"{label}: rate must lie in [0, {MAX_EVENT_RATE:g}] events per year, got {rate}"]
    return []


def stream_words(master_seed: int, stream_key: str) -> tuple[int, int]:
    """Derive the 128-bit Philox key for a named stream.

    Uses a keyed BLAKE2b digest of the stream key so that distinct keys give
    statistically independent streams and the mapping is stable across
    platforms and Python processes.
    """
    seed_bytes = (master_seed & _MASK64).to_bytes(8, "little")
    digest = hashlib.blake2b(
        stream_key.encode("utf-8"), digest_size=16, key=seed_bytes
    ).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def percentile(samples, p: float) -> float:
    """Linear-interpolation percentile at rank ``p * (n - 1)``.

    ``p=0`` returns the minimum, ``p=1`` the maximum.  Input need not be
    pre-sorted.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile fraction must lie in [0, 1], got {p}")
    data = sorted(samples)
    n = len(data)
    if n == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    rank = p * (n - 1)
    lower = int(math.floor(rank))
    frac = rank - lower
    if frac == 0.0 or lower + 1 >= n:
        return float(data[lower])
    return float(data[lower] + frac * (data[lower + 1] - data[lower]))
