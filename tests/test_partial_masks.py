"""The (zero, one) bit masks a `PartialConceptClass` builds while it validates.

Seeded random classes (`random_pcc` from the search tests) check the masks
against the value tuples, and `restriction_count` against `tuple_traces`, a
frozen copy of the tuple-trace count it replaced. The accepted values, the
refusals and the class's equality and repr are pinned.
"""
import random

import pytest

from genlab import PartialConceptClass, restriction_count

from test_search import random_pcc

SEED = 40417


def tuple_traces(pcc, points):
    """Number of distinct restrictions, as the value tuples on `points`."""
    pts = tuple(points)
    if not pts:
        raise ValueError("restriction needs at least one point")
    for p in pts:
        if not (0 <= p < pcc.universe_size):
            raise ValueError(f"point {p} outside universe of size {pcc.universe_size}")
    traces = set()
    for i, c in enumerate(pcc.concepts):
        values = tuple(c[p] for p in pts)
        if any(v is None for v in values):
            raise ValueError(f"concept {i} is undefined on a restriction point")
        traces.add(values)
    return len(traces)


def outcome(count, pcc, points):
    try:
        return count(pcc, points)
    except ValueError as exc:
        return str(exc)


def random_classes(rng, count):
    """Pairs of a random partial class and a total class filled in from it."""
    for _ in range(count):
        pcc = random_pcc(rng)
        total = tuple(
            tuple(rng.randint(0, 1) if v is None else v for v in c) for c in pcc.concepts
        )
        yield pcc, PartialConceptClass(pcc.universe_size, total)


def test_masks_agree_with_concepts():
    rng = random.Random(SEED)
    for pcc, total in random_classes(rng, 200):
        for cls in (pcc, total):
            assert len(cls.masks) == len(cls.concepts)
            for (zero, one), c in zip(cls.masks, cls.concepts):
                assert [zero >> p & 1 for p in range(len(c))] == [int(v == 0) for v in c]
                assert [one >> p & 1 for p in range(len(c))] == [int(v == 1) for v in c]


def test_restriction_count_matches_tuple_traces():
    rng = random.Random(SEED + 1)
    counted = refused = 0
    for pcc, total in random_classes(rng, 200):
        n = pcc.universe_size
        for cls in (pcc, total):
            for _ in range(5):
                # duplicates, out-of-range points and the empty list included
                points = rng.choices(range(-1, n + 1), k=rng.randint(0, 5))
                want = outcome(tuple_traces, cls, points)
                assert outcome(restriction_count, cls, points) == want, (cls, points)
                if isinstance(want, int):
                    counted += 1
                elif "undefined" in want:
                    refused += 1
    assert counted > 100 and refused > 100


def test_accepted_and_refused_values():
    pcc = PartialConceptClass(3, ((True, 0, None), (None, 1, False)))
    assert pcc.masks == ((0b010, 0b001), (0b100, 0b010))
    assert pcc.concepts == ((1, 0, None), (None, 1, 0))
    assert {type(v) for c in pcc.concepts for v in c} == {int, type(None)}
    for bad in (2, "x", 0.5, 0.0, 1.0, -0.0):
        with pytest.raises(ValueError, match=r"^concept 1 takes values outside \{0, 1, None\}$"):
            PartialConceptClass(2, ((0, 1), (None, bad)))


def test_masks_leave_equality_and_repr_unchanged():
    pcc = PartialConceptClass(2, [[0, None], (1, 1)])
    same = PartialConceptClass(2, ((0, None), (1, 1)))
    assert pcc == same and hash(pcc) == hash(same)
    assert pcc != PartialConceptClass(2, ((0, None), (1, 0)))
    assert repr(pcc) == "PartialConceptClass(universe_size=2, concepts=((0, None), (1, 1)))"
