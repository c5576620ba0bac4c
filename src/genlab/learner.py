"""Two-stage sampling and empirical risk minimization over sampled domains.

Training data is n i.i.d. domain draws from a meta-distribution, each carrying
m labeled points. The min-max learner picks the hypothesis whose worst error
across the sampled domains is smallest; the pooled baseline minimizes a
weighted average instead.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, islice
from operator import mul
from typing import Sequence

from .core import (
    ErrorMatrix,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    MetaDistribution,
    SpaceMismatchError,
    argmin_max,
    exact_values,
    popcount_column,
    unit_weights,
)
from .seeding import derive_seeds, streams


@dataclass(frozen=True)
class TrainingSet:
    """Sampled domain indices (order preserved) with one sample per draw."""

    domain_indices: tuple[int, ...]
    samples: tuple[LabeledSample, ...]
    master_seed: int
    draw_seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.domain_indices) != len(self.samples):
            raise ValueError("one sample per sampled domain required")
        if len(self.draw_seeds) != len(self.domain_indices):
            raise ValueError("one draw seed per sampled domain required")
        if any(i < 0 for i in self.domain_indices):
            raise ValueError(f"domain indices must be non-negative, got {self.domain_indices}")
        sizes = {len(s) for s in self.samples}
        if len(sizes) > 1:
            raise ValueError("all samples must have the same number of points")

    def __len__(self) -> int:
        return len(self.domain_indices)


@dataclass(frozen=True)
class ErrorTable:
    """Rows = hypotheses, columns = sampled domains; entries exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("empirical", "exact"):
            raise ValueError(f"table mode must be 'empirical' or 'exact', got {self.mode!r}")
        entries = tuple(tuple(map(Fraction, exact_values(r, "error values"))) for r in self.entries)
        if not entries or not entries[0]:
            raise ValueError("error table must have at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("error table rows must have equal length")
        for row in entries:
            for v in row:
                if not (0 <= v <= 1):
                    raise ValueError(f"error value {v} outside [0, 1]")
        object.__setattr__(self, "entries", entries)

    @property
    def columns(self) -> int:
        return len(self.entries[0])


def inverse_cdf(weights: Sequence[Fraction]) -> partial[int]:
    """Inverse-CDF sampler over masses that are non-negative and sum to 1:
    `numerator_cdf` over their integer numerators and denominator."""
    return numerator_cdf(*unit_weights(weights, "sampler weights"))


def numerator_cdf(nums: Sequence[int], den: int) -> partial[int]:
    """Inverse-CDF sampler over the masses nums[k] / den, given as
    non-negative int numerators that sum to the int den (not checked here).

    The returned function maps a uniform variate u in [0, 1) to the first
    index k whose cumulative mass C_k/L strictly exceeds u, so zero-mass
    buckets are never picked. It is `partial(bisect_right, thresholds)` over
    float thresholds, t_k the smallest double >= C_k/L: the int true division
    C_k/L rounds to a nearest double, which steps up to the next double when
    it lies below C_k/L. For every double u, u < C_k/L iff u < t_k. If
    u < C_k/L, then u < C_k/L <= t_k. If u < t_k, then u < C_k/L, since
    otherwise u would be a double >= C_k/L smaller than t_k. The last
    threshold is 1.0 exactly, so every u in [0, 1) falls in a bucket.
    """
    thresholds = []
    for c in accumulate(nums):
        t = c / den
        p, q = t.as_integer_ratio()
        if p * den < c * q:  # t < c/den
            t = math.nextafter(t, math.inf)
        thresholds.append(t)
    return partial(bisect_right, tuple(thresholds))


# `_SHARED` marks a uniform whose top byte (or top two bytes) a threshold
# shares, so that the byte cannot place it; one byte names every bucket of a
# sampler with fewer buckets. `_WHOLE` marks every second byte.
_SHARED = 255
_WHOLE = bytes([_SHARED]) * 256


def _lows(prefixes: list[int], start: int) -> list[int | None]:
    """For the 256 prefixes from `start` on: the bucket of every uniform with
    that prefix when no threshold has it (the number of sorted threshold
    prefixes below it), or None when one does."""
    have = set(prefixes)
    return [None if v in have else bisect_left(prefixes, v) for v in range(start, start + 256)]


def _table(lows: list[int | None]) -> bytes:
    return bytes(_SHARED if low is None else low for low in lows)


@lru_cache(maxsize=64)
def _cells(thresholds: tuple[float, ...]
           ) -> tuple[tuple[int, ...], list[int | None], bytes, dict[int, bytes]]:
    """(Ts, lows, table, seconds) for a sampler's thresholds. Ts holds T =
    ceil(t * 2**53) for each threshold t, exact for a double t <= 1. lows[b]
    places the uniforms whose top byte is b (`_lows` of the top bytes T >>
    45), and `table` is lows as a `bytes.translate` table. seconds[c], for
    each shared top byte c, places a uniform of that byte by its second byte:
    `_lows` of the top two bytes T >> 37. With `_SHARED` buckets or more the
    table only marks the shared bytes and every second byte is `_SHARED`."""
    Ts = tuple([math.ceil(math.ldexp(t, 53)) for t in thresholds])
    tops = [T >> 45 for T in Ts]
    lows = _lows(tops, 0)
    if len(Ts) >= _SHARED:
        marks = _table([None if low is None else 0 for low in lows])
        return Ts, lows, marks, dict.fromkeys(tops, _WHOLE)
    heads = [T >> 37 for T in Ts]
    return Ts, lows, _table(lows), {c: _table(_lows(heads, c << 8)) for c in tops if c < 256}


def bucket_counts(pick: partial[int], block: bytes) -> list[int]:
    """How many of the uniforms of a `seeding.blocks` block the `inverse_cdf`
    sampler `pick` sends to each bucket. Uniform u = k / 2**53 goes to bucket
    #{t : u >= t} = #{T : k >= T}, with T = ceil(t * 2**53), and k's top two
    bytes are `block[8i + 3]` and `block[8i + 2]`. A uniform whose top byte
    no threshold shares has its bucket fixed by that byte, so one `translate`
    of the top bytes through `_cells`' table and one `bytes.count` per bucket
    count them all. A uniform that shares a threshold's top byte, about one in
    256 per distinct such byte, is placed by its second byte, and decoded
    whole and placed by `bisect_right` only when it shares that too. With
    `_SHARED` buckets or more, the unshared uniforms are counted per top byte
    instead, and the shared ones are all decoded."""
    Ts, lows, table, seconds = _cells(pick.args[0])
    tops = block[3::8]
    cells = tops.translate(table)
    if len(Ts) < _SHARED:
        counts = list(map(cells.count, range(len(Ts))))
    else:
        counts = [0] * len(Ts)
        for b, n in Counter(tops).items():
            if lows[b] is not None:
                counts[lows[b]] += n
    i = cells.find(_SHARED)
    while i >= 0:
        bucket = seconds[tops[i]][block[8 * i + 2]]
        if bucket == _SHARED:
            w = int.from_bytes(block[8 * i:8 * i + 8], "little")
            bucket = bisect_right(Ts, (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38)
        counts[bucket] += 1
        i = cells.find(_SHARED, i + 1)
    return counts


_domain_sampler = lru_cache(maxsize=64)(inverse_cdf)


def draw_domain_indices(
    weights: Sequence[Fraction], n: int, master_seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """n i.i.d. domain indices by inverse CDF over a meta's weights, with the
    per-draw seeds used.

    Draw i is the first `random()` of `random.Random(derive_seed(master_seed,
    "domain", i))`, taken from `streams`. The sampler is memoized by weights.
    """
    if n < 1:
        raise ValueError("need at least one domain draw")
    pick = _domain_sampler(tuple(weights))
    seeds = derive_seeds(master_seed, "domain", count=n)
    return tuple(map(pick, map(next, streams(seeds)))), tuple(seeds)


def sample_training_set(p: MetaDistribution, n: int, m: int, seed: int) -> TrainingSet:
    """Draw n domains from p, then m labeled points from each drawn domain.

    Fully determined by (p, n, m, seed); per-draw seeds are derived by stable
    hashing so parallel replay cannot reorder randomness.
    """
    if m < 1:
        raise ValueError("need at least one point per sampled domain")
    indices, seeds = draw_domain_indices(p.weights, n, seed)
    domains = p.family.domains
    picks = {j: numerator_cdf([w for _, _, w in domains[j].weighted], domains[j].denominator)
             for j in set(indices)}
    # sample i takes its m points from the stream of derive_seed(seed, "points", i)
    samples = tuple(
        LabeledSample(tuple(domains[j].weighted[k][:2] for k in map(picks[j], islice(u, m))))
        for j, u in zip(indices, streams(derive_seeds(seed, "points", count=n)))
    )
    return TrainingSet(indices, samples, seed, seeds)


def estimate_errors(hc: HypothesisClass, t: TrainingSet) -> ErrorTable:
    """Empirical error of every hypothesis on every sample of the training set;
    each distinct point of a sample is scored once, weighted by its count."""
    columns = []
    for s in t.samples:
        if len(s) == 0:
            raise ValueError("empirical error over an empty sample is undefined")
        counts = Counter(s.points)
        if max(x for x, _ in counts) >= hc.space:
            raise SpaceMismatchError(f"sample point outside the class's space of size {hc.space}")
        wrong = popcount_column(hc.masks, ((x, y, c) for (x, y), c in counts.items()))
        columns.append([Fraction(w, len(s)) for w in wrong])
    return ErrorTable(tuple(zip(*columns)), "empirical")


def exact_error_table(
    hc: HypothesisClass, domains: Sequence[LabeledDistribution]
) -> ErrorTable:
    """True error of every hypothesis on each listed domain (mode 'exact')."""
    m = ErrorMatrix(hc, domains)
    cols = range(len(m.columns))
    rows = tuple(tuple(m.error(i, j) for j in cols) for i in range(m.rows))
    return ErrorTable(rows, "exact")


def minmax_erm(table: ErrorTable) -> int:
    """Index minimizing the worst column error; ties break to the lowest index."""
    return argmin_max(zip(*table.entries))[0]


def pooled_erm(table: ErrorTable, weights: Sequence[Fraction]) -> int:
    """Index minimizing the weighted average column error; lowest index on ties.
    Each row's dot product with the weights' integer numerators is its average
    times their common denominator, so it has the same minimizers."""
    if len(weights) != table.columns:
        raise ValueError(f"{len(weights)} weights for {table.columns} columns")
    nums, _ = unit_weights(weights, "column weights")
    totals = [sum(map(mul, nums, row)) for row in table.entries]
    return totals.index(min(totals))


def uniform_weights(n: int) -> tuple[Fraction, ...]:
    if n < 1:
        raise ValueError("need at least one column")
    return tuple(Fraction(1, n) for _ in range(n))


def sample_size_for(epsilon: Fraction, delta: Fraction, n: int, class_size: int) -> int:
    """Per-domain sample size making every table entry epsilon-accurate with
    probability at least 1-delta (Hoeffding plus a union bound over all
    class_size * n table entries). epsilon and delta are ints or Fractions."""
    epsilon, delta = map(Fraction, exact_values((epsilon, delta), "epsilon and delta"))
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if n < 1 or class_size < 1:
        raise ValueError("need at least one domain and one hypothesis")
    bound = math.log(2.0 * class_size * n / float(delta))
    return math.ceil(bound / (2.0 * float(epsilon) ** 2))
