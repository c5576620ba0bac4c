"""Stable seed derivation.

Per-draw seeds are sha256 digests of the master seed plus a path of string/int
parts, so results never depend on draw order or worker scheduling.
"""
from __future__ import annotations

import hashlib
import random

DEFAULT_SEED = 1729


def derive_seed(master: int, *parts: object) -> int:
    text = ":".join([str(int(master)), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(master: int, *parts: object, count: int) -> list[int]:
    """derive_seed(master, *parts, i) for i in range(count). The text the seeds
    share, up to the colon before the index, is hashed once; each seed hashes
    only its index, on a copy of that state."""
    prefix = ":".join([str(int(master)), *(str(p) for p in parts), ""])
    state = hashlib.sha256(prefix.encode("ascii"))
    seeds = []
    for i in range(count):
        h = state.copy()
        h.update(b"%d" % i)
        seeds.append(int.from_bytes(h.digest()[:8], "big"))
    return seeds


def rng_for(master: int, *parts: object) -> random.Random:
    return random.Random(derive_seed(master, *parts))
