"""The seeded uniform streams and word blocks against fresh `random.Random`
generators, and `seeding` as the one genlab module that touches `random`."""
import random
import re
from itertools import cycle, islice
from pathlib import Path

import genlab
from genlab.seeding import blocks, streams

SEEDS = [random.Random(11).getrandbits(64) for _ in range(50)] + [0, 2**64 - 1]


def test_streams_match_fresh_generators():
    # taking 0, 1 or 7 values from a stream must leave the next stream intact
    takes = list(islice(cycle((0, 1, 7)), len(SEEDS)))
    drawn = [list(islice(u, k)) for u, k in zip(streams(SEEDS), takes)]
    expected = []
    for seed, k in zip(SEEDS, takes):
        rng = random.Random(seed)
        expected.append([rng.random() for _ in range(k)])
    assert drawn == expected


def test_blocks_hold_the_words_of_the_uniforms():
    # uniform i is k / 2**53, k = (a >> 5) << 26 | b >> 6, over the little-endian
    # words a, b at bytes 8i..8i+3 and 8i+4..8i+7
    for m in (1, 7, 460):
        decoded = []
        for block in blocks(SEEDS, m):
            assert len(block) == 8 * m
            words = [int.from_bytes(block[j:j + 4], "little") for j in range(0, 8 * m, 4)]
            pairs = zip(words[::2], words[1::2])
            decoded.append([((a >> 5) << 26 | b >> 6) / 2**53 for a, b in pairs])
        expected = []
        for seed in SEEDS:
            rng = random.Random(seed)
            expected.append([rng.random() for _ in range(m)])
        assert decoded == expected


def test_only_seeding_touches_random():
    pattern = re.compile(r"^\s*(import random\b|from random import)|super\(random\.Random", re.M)
    src = Path(genlab.__file__).parent
    touching = sorted(p.name for p in src.glob("*.py") if pattern.search(p.read_text()))
    assert touching == ["seeding.py"]
