"""Stable seed derivation and the seeded uniform streams.

Per-draw seeds are sha256 digests of the master seed plus a path of string/int
parts, so results never depend on draw order or worker scheduling. This is
the only genlab module that touches `random`.
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
