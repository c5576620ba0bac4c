"""Stable seed derivation and the seeded uniform streams and word blocks.

Per-draw seeds are sha256 digests of the master seed plus a path of string/int
parts, so results never depend on draw order or worker scheduling. A seed's
draws are read either as the floats of `random()` (`streams`) or as the raw
Mersenne Twister words those floats are made from (`blocks`). This is the
only genlab module that touches `random`.
"""
from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator

DEFAULT_SEED = 1729


def _master(master: int) -> str:
    """The master seed as text, refused unless it is exactly an `int`: `int()`
    would read 2.5 as 2, True as 1 and "12" as 12."""
    if type(master) is not int:
        raise ValueError(f"master seed must be an int, got {master!r}")
    return str(master)


def derive_seed(master: int, *parts: object) -> int:
    text = ":".join([_master(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(master: int, *parts: object, count: int) -> list[int]:
    """derive_seed(master, *parts, i) for i in range(count). The text the seeds
    share, up to the colon before the index, is hashed once; each seed hashes
    only its index, on a copy of that state."""
    prefix = ":".join([_master(master), *(str(p) for p in parts), ""])
    state = hashlib.sha256(prefix.encode("ascii"))
    seeds = []
    for i in range(count):
        h = state.copy()
        h.update(b"%d" % i)
        seeds.append(int.from_bytes(h.digest()[:8], "big"))
    return seeds


def rng_for(master: int, *parts: object) -> random.Random:
    return random.Random(derive_seed(master, *parts))


def streams(seeds: Iterable[int]) -> Iterator[Iterator[float]]:
    """For each seed, the uniforms that successive `random.Random(seed).random()`
    calls return. One generator is reseeded per seed at C level, where
    `random.Random.seed` sends an int, so a stream is valid only until the
    next one is taken: use each up before moving on."""
    rng = random.Random()
    reseed, uniform = super(random.Random, rng).seed, rng.random
    for seed in seeds:
        reseed(seed)
        yield iter(uniform, None)  # random() never returns None


def blocks(seeds: Iterable[int], m: int) -> Iterator[bytes]:
    """For each seed, the 2m generator words that m successive
    `random.Random(seed).random()` calls read, as 8m little-endian bytes.
    `getrandbits` fills its result from the least significant 32-bit word up,
    in generation order, so uniform i is made from the words a, b at bytes
    8i..8i+3 and 8i+4..8i+7: it is k / 2**53 with k = (a >> 5) << 26 | b >> 6,
    and byte 8i + 3, the top byte of a, is k >> 45. One generator is reseeded
    per seed, as in `streams`."""
    rng = random.Random()
    reseed, bits = super(random.Random, rng).seed, rng.getrandbits
    for seed in seeds:
        reseed(seed)
        yield bits(64 * m).to_bytes(8 * m, "little")
