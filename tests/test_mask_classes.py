"""Mask-first hypothesis and partial concept classes, checked against frozen
copies of the tuple code they replaced.

`HypothesisClass` and `PartialConceptClass` hold int masks and make their
`members` / `concepts` on first read. Covered here, on seeded instances: the
class-object reader against a frozen copy of its row-by-row code (large
classes, every mutant kind in the first, middle and last row), `induce_partial_class` and
`from_hypothesis_class` against the tuple versions (None cells, twin points,
all-undefined concepts and an empty family included), the constructions'
mask builders, the class-file writer against `json.dump`, the flipped
mixtures of `lower_bound_family` and the counted point sampler of the
empirical learner. Equality and hashing read the masks and columns alone, so
they leave `members` and `concepts` unmade.
"""
import copy
import io
import itertools
import json
import math
import pickle
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab import (
    Atom,
    DimensionQuery,
    DomainFamily,
    GenlabError,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    PartialConceptClass,
    ThresholdSlice,
    flip_labels,
    hypothesis_class_from_dict,
    hypothesis_class_to_dict,
    induce_partial_class,
    large_k_family,
    large_k_lower_bound,
    load_hypothesis_class,
    mix,
    partial_vc_dim,
    product_family,
    unanimous_point_mass,
    write_hypothesis_class,
    write_json_atomic,
)
from genlab.cli import main
from genlab.core import ConstructionError, ErrorMatrix
from genlab.learner import bucket_counts, inverse_cdf
from genlab.seeding import blocks, derive_seeds, streams

from _builders import random_class, random_domain
from test_restriction_memo import TestClassLoading, frozen_class_from_dict

F = Fraction


# Frozen copies of the replaced tuple code.

def frozen_induce(hc, g, q):
    m = ErrorMatrix(hc, g.domains)
    hi = math.floor(q.tau * m.denominator)
    lo = math.ceil((q.tau - q.alpha) * m.denominator)
    concepts = [
        tuple(1 if col[i] > hi else 0 if col[i] < lo else None for col in m.columns)
        for i in range(m.rows)
    ]
    return PartialConceptClass(len(g), tuple(concepts))


def frozen_total(hc):
    return PartialConceptClass(hc.space, tuple(h.labels for h in hc.members))


def frozen_slice(cutoff):
    space = cutoff + 2
    members = tuple(Hypothesis((0,) * i + (1,) * (space - i)) for i in range(1, cutoff + 1))
    return HypothesisClass(space, members)


def frozen_product(base_class, d):
    members = []
    for combo in itertools.product(base_class.members, repeat=d):
        members.append(Hypothesis(tuple(v for h in combo for v in h.labels)))
    return HypothesisClass(d * base_class.space, tuple(members))


def frozen_unanimous(hc):
    for x in range(hc.space):
        values = {h.labels[x] for h in hc.members}
        if len(values) == 1:
            return LabeledDistribution(hc.space, (Atom(x, values.pop(), F(1)),))
    raise ConstructionError("no instance is labeled unanimously by the class")


def same_twins(pcc):
    """Whether the class's per-point codes group its points as the columns
    of its value tuples do."""
    keys, columns = pcc._columns, list(zip(*pcc.concepts))
    n = pcc.universe_size
    assert len(keys) == n
    return all((keys[p] == keys[q]) == (columns[p] == columns[q])
               for p in range(n) for q in range(n))


def assert_twin_classes(fast, slow):
    """Equal classes, equal in every view, one built from masks and one from tuples."""
    assert fast == slow and slow == fast and hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    assert fast.masks == slow.masks and fast.concepts == slow.concepts
    assert len(fast) == len(slow)
    assert same_twins(fast) and same_twins(slow)


# The class-file loader.

BAD_LABELS = [2, -1, 256, None, [0], [], "0", "1", 1.0, 0.5, True, False, {"a": 1}]
BAD_ROWS = ["0101", {"0": 1}, [], 7, None]


def mutate(rng, obj, kind, row):
    rows = obj["hypotheses"]
    space = obj["space"]
    if kind == "label":
        rows[row][rng.randrange(space)] = rng.choice(BAD_LABELS)
    elif kind == "row":
        rows[row] = rng.choice(BAD_ROWS)
    elif kind == "short":
        rows[row].pop()
    elif kind == "long":
        rows[row].append(rng.randint(0, 1))
    elif kind == "tuple":
        rows[row] = tuple(rows[row])
    elif kind == "duplicate":
        rows[row] = list(rows[(row + 1) % len(rows)])
    elif kind == "space":
        obj["space"] = rng.choice([space + 1, 0, -1, "3", True, 3.0, None])


KINDS = ["label", "row", "short", "long", "tuple", "duplicate", "space"]


def class_rows(rng, space, count):
    codes = set()
    while len(codes) < min(count, 2**space):
        codes.add(rng.getrandbits(space))
    return [[c >> x & 1 for x in range(space)] for c in codes]


def test_bulk_loader_matches_row_reader_on_large_classes():
    rng = random.Random(23011)
    outcome = TestClassLoading.outcome
    accepted = refused = 0
    for space, count in [(1, 2), (2, 4), (8, 256), (30, 512), (64, 512), (64, 3), (17, 1)]:
        obj = {"space": space, "hypotheses": class_rows(rng, space, count)}
        got = outcome(hypothesis_class_from_dict, obj)
        assert got == outcome(frozen_class_from_dict, obj)
        assert hypothesis_class_from_dict(obj) == frozen_class_from_dict(obj)
        accepted += 1
        rows = len(obj["hypotheses"])
        for kind in KINDS:
            for row in {0, rows // 2, rows - 1}:
                mutant = json.loads(json.dumps(obj))
                mutate(rng, mutant, kind, row)
                want = outcome(frozen_class_from_dict, mutant)
                if kind == "space":  # the live reader names the field; the frozen one does not
                    want = outcome(hypothesis_class_from_dict, mutant)
                    assert isinstance(want[0], type), mutant["space"]
                else:
                    assert outcome(hypothesis_class_from_dict, mutant) == want
                refused += isinstance(want[0], type)
    assert accepted == 7 and refused > 80


def test_bulk_loader_refusals_name_the_fault():
    obj = {"space": 3, "hypotheses": [[0, 1, 0], [1, 1, 0], [0, 0, 1]]}
    cases = [
        (lambda o: o["hypotheses"][2].__setitem__(1, 2), "hypothesis labels must be 0 or 1"),
        (lambda o: o["hypotheses"][2].__setitem__(1, True),
         "hypothesis label must be a JSON integer, got True"),
        (lambda o: o["hypotheses"][1].append(0), "member 1 labels 4 instances, class space is 3"),
        (lambda o: o["hypotheses"].__setitem__(2, [0, 1, 0]),
         "hypothesis class members must be pairwise distinct labelings"),
        (lambda o: o.__setitem__("hypotheses", []), "hypothesis class must be non-empty"),
        (lambda o: o.__setitem__("space", "3"), "class space must be a JSON integer, got '3'"),
        (lambda o: o.pop("space"), "malformed hypothesis class object: 'space'"),
        (lambda o: o["hypotheses"].__setitem__(0, 7),
         "malformed hypothesis class object: 'int' object is not iterable"),
    ]
    for edit, message in cases:
        mutant = json.loads(json.dumps(obj))
        edit(mutant)
        with pytest.raises((GenlabError, ValueError)) as exc:
            hypothesis_class_from_dict(mutant)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="^malformed hypothesis class object"):
        hypothesis_class_from_dict([obj])


def test_loaded_class_makes_members_on_demand():
    obj = {"space": 3, "hypotheses": [[0, 1, 0], [1, 1, 0]]}
    hc = hypothesis_class_from_dict(obj)
    assert hc.masks == (0x000100, 0x000101)
    assert hc.member(1) == Hypothesis((1, 1, 0))
    assert hc.members == (Hypothesis((0, 1, 0)), Hypothesis((1, 1, 0)))
    assert hc.members is hc.members
    assert repr(hc) == repr(frozen_class_from_dict(obj))


# HypothesisClass built from masks.

def test_from_masks_matches_tuple_built_classes():
    rng = random.Random(23017)
    for _ in range(100):
        space = rng.randint(1, 12)
        tuple_built = random_class(rng, space, rng.randint(1, 20))
        built = HypothesisClass.from_masks(space, tuple_built.masks)
        assert built == tuple_built and tuple_built == built
        assert hash(built) == hash(tuple_built) and repr(built) == repr(tuple_built)
        assert built.masks == tuple_built.masks and len(built) == len(tuple_built)
        assert [built.member(i) for i in range(len(built))] == list(tuple_built.members)
    assert HypothesisClass.from_masks(1, [1]) != HypothesisClass.from_masks(1, [0])
    assert HypothesisClass.from_masks(1, [1]) != HypothesisClass.from_masks(2, [1])
    assert HypothesisClass.from_masks(1, [1]) != "class"


def test_bool_members_are_kept():
    hc = HypothesisClass(2, (Hypothesis((True, 0)), Hypothesis((0, True))))
    same = HypothesisClass.from_masks(2, (0x0001, 0x0100))
    assert hc == same and hash(hc) == hash(same)
    assert hc.member(0).labels == (True, 0)
    assert repr(same) == ("HypothesisClass(space=2, members=(Hypothesis(labels=(1, 0)), "
                          "Hypothesis(labels=(0, 1))))")


@pytest.mark.parametrize("space, masks, message", [
    (2, [], "must be non-empty"),
    (0, [1], "instance space size must be a positive integer"),
    (2, [True], r"masks must be ints in \[0, 256\*\*2\)"),
    (2, [1.0], r"masks must be ints in \[0, 256\*\*2\)"),
    (2, [-1], r"masks must be ints in \[0, 256\*\*2\)"),
    (2, [1 << 16], r"masks must be ints in \[0, 256\*\*2\)"),
    (2, [0x0102], "labels must be 0 or 1"),
    (2, [0x0100, 0x0100], "pairwise distinct"),
])
def test_from_masks_refusals(space, masks, message):
    with pytest.raises(ValueError, match=message):
        HypothesisClass.from_masks(space, masks)


def test_classes_are_immutable_and_copy():
    hc = HypothesisClass.from_masks(2, [1, 0x0100])
    pcc = PartialConceptClass.from_hypothesis_class(hc)
    for obj, name in ((hc, "space"), (hc, "masks"), (pcc, "masks"), (pcc, "concepts")):
        with pytest.raises(FrozenInstanceError, match="cannot assign"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match="cannot delete"):
            delattr(obj, name)
    for obj in (hc, pcc):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and twin.masks == obj.masks and repr(twin) == repr(obj)
    assert pcc != "class" and pcc != PartialConceptClass(2, ((1, 0), (0, 0)))


# Constructions.

def test_constructions_match_tuple_builds():
    for cutoff in (1, 2, 7, 64):
        assert ThresholdSlice.build(cutoff).hypothesis_class == frozen_slice(cutoff)
    for alpha, d in ((F(1, 20), 1), (F(1, 20), 3), (F(1, 50), 2), (F(1, 50), 3)):
        base = large_k_family(alpha)
        hc, _ = product_family(base, d)
        assert hc == frozen_product(base.slice.hypothesis_class, d)
        assert hc.masks == frozen_product(base.slice.hypothesis_class, d).masks


def test_unanimous_point_mass_matches_member_scan():
    rng = random.Random(23021)
    found = refused = 0
    for _ in range(300):
        space = rng.randint(1, 6)
        hc = random_class(rng, space, rng.randint(1, 6))
        try:
            want = frozen_unanimous(hc)
        except ConstructionError:
            with pytest.raises(ConstructionError, match="no instance is labeled unanimously"):
                unanimous_point_mass(hc)
            refused += 1
            continue
        assert unanimous_point_mass(hc) == want
        found += 1
    assert found > 50 and refused > 50


# Induced partial classes.

def random_query(rng):
    tau = F(rng.randint(1, 20), 20)
    return DimensionQuery(tau, tau * F(rng.randint(0, 19), 20))


def test_induce_matches_tuple_version():
    rng = random.Random(23027)
    seen = Counter()
    for _ in range(300):
        space = rng.randint(1, 6)
        hc = random_class(rng, space, rng.randint(1, 24))
        domains = [random_domain(rng, space) for _ in range(rng.randint(0, 7))]
        domains += rng.choices(domains, k=rng.randint(0, 3)) if domains else []
        rng.shuffle(domains)
        g = DomainFamily(space, tuple(domains))
        q = random_query(rng)
        fast, slow = induce_partial_class(hc, g, q), frozen_induce(hc, g, q)
        assert_twin_classes(fast, slow)
        for cap in (None, 1, 2):
            assert partial_vc_dim(fast, cap) == partial_vc_dim(slow, cap)
        concepts = slow.concepts
        seen["none"] += any(None in c for c in concepts)
        seen["all-undefined"] += any(c and set(c) == {None} for c in concepts)
        seen["twins"] += len(set(zip(*concepts))) < len(g)
        seen["empty"] += len(g) == 0
    assert min(seen.values()) >= 10, seen


def test_induce_on_the_shattered_families():
    lkf = large_k_family(F(1, 50))
    for hc, g in ((lkf.slice.hypothesis_class, lkf.family), product_family(lkf, 2)):
        q = lkf.query()
        assert_twin_classes(induce_partial_class(hc, g, q), frozen_induce(hc, g, q))
    lbf = large_k_lower_bound(F(1, 50), F(3, 10))
    q = DimensionQuery(lbf.tau, lbf.alpha)
    fast = induce_partial_class(lbf.hypothesis_class, lbf.extended_family, q)
    assert_twin_classes(fast, frozen_induce(lbf.hypothesis_class, lbf.extended_family, q))


# Equality and hashing read the masks alone.

def test_loaded_classes_compare_and_hash_on_their_masks(tmp_path):
    hc, _ = product_family(large_k_family(F(1, 20)), 2)
    write_hypothesis_class(tmp_path / "class.json", hc)
    a, b = (load_hypothesis_class(tmp_path / "class.json") for _ in range(2))
    assert a == b and hash(a) == hash(b) and a == hc
    # the loader's label bytes are kept as `rows`; no member is made yet
    assert set(vars(a)) == set(vars(b)) == {"space", "masks", "rows"}
    assert a.rows == hc.rows
    assert a.members == hc.members and "members" in vars(a)


def test_tuple_built_partial_classes_compare_and_hash_on_their_columns():
    rng = random.Random(24011)
    for _ in range(100):
        space = rng.randint(1, 6)
        hc = random_class(rng, space, rng.randint(1, 12))
        g = DomainFamily(space, tuple(random_domain(rng, space)
                                      for _ in range(rng.randint(0, 5))))
        q = random_query(rng)
        values = induce_partial_class(hc, g, q).concepts
        totals = tuple(h.labels for h in hc.members)
        builds = [(lambda: induce_partial_class(hc, g, q), len(g), values),
                  (lambda: PartialConceptClass.from_hypothesis_class(hc), space, totals)]
        for build, size, concepts in builds:
            as_bools = tuple(tuple(None if v is None else bool(v) for v in c) for c in concepts)
            for tuple_built in (PartialConceptClass(size, concepts),
                                PartialConceptClass(size, as_bools)):
                built = build()
                assert tuple_built == built and built == tuple_built
                assert hash(tuple_built) == hash(built)
                assert "concepts" not in vars(tuple_built) and "concepts" not in vars(built)
                assert repr(tuple_built) == repr(built)
    empty = PartialConceptClass(0, ((),))
    assert empty != PartialConceptClass(0, ((), ())) and hash(empty) == hash(empty)
    assert PartialConceptClass(1, ((0,), (1,))) != PartialConceptClass(1, ((1,), (0,)))


def test_total_classes_match_tuple_version():
    rng = random.Random(23029)
    classes = [random_class(rng, rng.randint(1, 9), rng.randint(1, 30)) for _ in range(100)]
    classes += [ThresholdSlice.build(9).hypothesis_class,
                product_family(large_k_family(F(1, 20)), 2)[0]]
    for hc in classes:
        fast, slow = PartialConceptClass.from_hypothesis_class(hc), frozen_total(hc)
        assert_twin_classes(fast, slow)
        assert partial_vc_dim(fast) == partial_vc_dim(slow)


@pytest.mark.parametrize("argv, dimension", [
    (("odd-even", "--m", "5"), 1),
    (("large-k", "--alpha", "1/50"), 1),
    (("product", "--alpha", "1/20", "--d", "3"), 3),
    (("lower-bound", "--alpha", "1/50"), 1),
])
def test_vcdim_on_constructed_classes(tmp_path, argv, dimension):
    with redirect_stdout(io.StringIO()):
        assert main(["construct", *argv, "--out-dir", str(tmp_path)]) == 0
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main(["vcdim", "--class", str(tmp_path / "class.json")]) == 0
    assert printed.getvalue() == f"vcdim={dimension} exact=true\n"
    obj = json.loads((tmp_path / "class.json").read_text())
    slow = partial_vc_dim(frozen_total(frozen_class_from_dict(obj)))
    assert (slow.dimension, slow.exact) == (dimension, True)


# The class-file writer.

@st.composite
def classes(draw):
    space = draw(st.integers(1, 12))
    codes = draw(st.lists(st.integers(0, 2**space - 1), min_size=1, max_size=6, unique=True))
    rows = [tuple(c >> x & 1 for x in range(space)) for c in codes]
    if draw(st.booleans()):  # members given with bool labels
        return HypothesisClass(space, [Hypothesis(tuple(map(bool, r))) for r in rows])
    return HypothesisClass.from_masks(space, [int.from_bytes(bytes(r), "little") for r in rows])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(hc=classes())
def test_class_writer_matches_json_dump(tmp_path_factory, hc):
    out = tmp_path_factory.mktemp("writer")
    write_hypothesis_class(out / "fast.json", hc)
    write_json_atomic(out / "slow.json", hypothesis_class_to_dict(hc))
    text = json.dumps(hypothesis_class_to_dict(hc), indent=2, sort_keys=True) + "\n"
    assert (out / "fast.json").read_bytes() == (out / "slow.json").read_bytes() == text.encode()


def test_class_writer_single_point_single_row(tmp_path):
    for hc in (HypothesisClass.from_masks(1, [1]), HypothesisClass(1, [Hypothesis((False,))])):
        write_hypothesis_class(tmp_path / "class.json", hc)
        text = json.dumps(hypothesis_class_to_dict(hc), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "class.json").read_text() == text
        assert hypothesis_class_from_dict(json.loads(text)) == hc


# Flipped mixtures.

def test_flipped_mix_matches_mix_of_flip():
    rng = random.Random(23039)
    for _ in range(200):
        space = rng.randint(1, 6)
        d0, d = random_domain(rng, space), random_domain(rng, space)
        for lam in (0, 1, F(1), F(rng.randint(0, 9), rng.randint(9, 30))):
            got = mix(d0, d, lam, flip=True)
            want = mix(d0, flip_labels(d), lam)
            assert got == want
            assert (got.denominator, got.weighted) == (want.denominator, want.weighted)
    assert mix(d0, d, F(1, 3), flip=False) == mix(d0, d, F(1, 3))


def test_lower_bound_flipped_domains_are_flipped_mixtures():
    lbf = large_k_lower_bound(F(1, 2000), F(3, 10))
    base = lbf.base_family.domains
    assert lbf.flipped == tuple(
        mix(lbf.clean_domain, flip_labels(base[j]), lbf.mix_weight)
        for j in lbf.shattered_indices
    )


# Counted point sampling.
#
# `bucket_counts` reads the generator words of `seeding.blocks`: uniform i is
# k / 2**53 with k = (a >> 5) << 26 | b >> 6 over the words a, b at bytes
# 8i..8i+7. `block_of` builds a block from chosen k values, with random low
# bits the uniform drops, and the floats they stand for feed the per-point
# sampler as the oracle.

ONE = 2**53


def block_of(rng, ks):
    words = bytearray()
    for k in ks:
        a = (k >> 26) << 5 | rng.getrandbits(5)
        b = (k & (2**26 - 1)) << 6 | rng.getrandbits(6)
        words += a.to_bytes(4, "little") + b.to_bytes(4, "little")
    return bytes(words)


def near_thresholds(pick):
    """k = T - 1, T, T + 1 around each threshold's T = ceil(t * 2**53), and
    k = 0 and 2**53 - 1."""
    ks = {0, ONE - 1}
    for t in pick.args[0]:
        T = math.ceil(F(t) * ONE)
        ks.update(k for k in (T - 1, T, T + 1) if 0 <= k < ONE)
    return sorted(ks)


def random_weights(rng, size):
    """Masses summing to 1 over size buckets: some zero, some whole 2**-8
    cells (thresholds on a cell edge), some below 2**-8."""
    kind = rng.choice(["small", "cells", "tiny"])
    if kind == "cells":
        nums = [rng.choice([0, 1, 3, 16]) for _ in range(size)]
        nums[-1] += 256 - sum(nums) % 256
        return [F(w, sum(nums)) for w in nums]
    nums = [rng.choice([0, 0, 1, 2, 5, 9]) for _ in range(size)]
    if kind == "tiny":
        nums = [w * 10**6 if j else w for j, w in enumerate(nums)]
    if not any(nums):
        nums[rng.randrange(size)] = 1
    return [F(w, sum(nums)) for w in nums]


def test_bucket_counts_match_per_point_sampler():
    rng = random.Random(23041)
    on_threshold = shared_top = repeats = edge = tiny = many = 0
    for trial in range(300):
        size = rng.randint(256, 400) if trial % 25 == 0 else rng.randint(1, 6)
        weights = random_weights(rng, size)
        pick = inverse_cdf(weights)
        ts = [math.ceil(F(t) * ONE) for t in pick.args[0]]
        ks = near_thresholds(pick) + [rng.randrange(ONE) for _ in range(rng.randint(0, 40))]
        rng.shuffle(ks)
        hits = Counter(pick(k / ONE) for k in ks)
        counts = bucket_counts(pick, block_of(rng, ks))
        assert counts == [hits[j] for j in range(size)]
        assert all(counts[j] == 0 for j in range(size) if not weights[j])
        on_threshold += any(k in ts for k in ks)
        repeats += len(set(ts)) < len(ts)  # a zero-mass bucket
        # a uniform that shares its top byte with a threshold below 1.0 is
        # decoded whole
        shared_top += any(T < ONE and k >> 45 == T >> 45 for k in ks for T in ts)
        edge += any(0 < T < ONE and T % 2**45 == 0 for T in ts)
        tiny += any(0 < T < 2**45 for T in ts)
        many += size > 255 and len({T >> 45 for T in ts}) < size
    assert on_threshold > 200 and shared_top > 200 and repeats > 100
    assert edge > 50 and tiny > 30 and many == 12


def test_tally_of_counts_matches_mistakes():
    rng = random.Random(23043)
    for _ in range(100):
        space = rng.randint(1, 6)
        hc = random_class(rng, space, rng.randint(1, 12))
        d = random_domain(rng, space)
        matrix = ErrorMatrix(hc, [d])
        pick = inverse_cdf([a.mass for a in d.atoms])
        ks = near_thresholds(pick) + [rng.randrange(ONE) for _ in range(rng.randint(1, 50))]
        rng.shuffle(ks)
        counted = matrix.tally(0, enumerate(bucket_counts(pick, block_of(rng, ks))))
        assert counted == matrix.mistakes(0, (pick(k / ONE) for k in ks))


def test_bucket_counts_of_blocks_match_streams_at_scale():
    # about the benchmark's sampled scaling run: ~460 points per draw, the
    # large-k family's domains, plus a domain of 300 atoms
    rng = random.Random(23047)
    domains = list(large_k_family(F(1, 50)).family.domains)
    nums = [rng.choice([1, 2, 7, 100]) for _ in range(300)]
    domains.append(LabeledDistribution(300, tuple(
        Atom(x, x % 2, F(w, sum(nums))) for x, w in enumerate(nums)
    )))
    for j, d in enumerate(domains):
        pick = inverse_cdf([a.mass for a in d.atoms])
        for m in (1, 358, 460, 462):
            seeds = derive_seeds(104729, "scale", j, m, count=20)
            counted = [bucket_counts(pick, block) for block in blocks(seeds, m)]
            drawn = [Counter(map(pick, itertools.islice(u, m))) for u in streams(seeds)]
            assert counted == [[c[k] for k in range(len(d.atoms))] for c in drawn]


def uniforms_of(block):
    """The floats `random()` makes from a `seeding.blocks` block's words."""
    words = [int.from_bytes(block[i:i + 8], "little") for i in range(0, len(block), 8)]
    return [((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) / ONE for w in words]


def test_bucket_counts_pin_inverse_cdf_over_the_block_uniforms():
    # 254 buckets are named by the one-byte table, 255 and more are counted
    # per top byte; several thresholds share top byte 126 (0.4921875 <= t <
    # 0.49609375) in the first small sampler and top byte 64 in the second,
    # so the uniforms there are placed by their second byte or decoded whole
    rng = random.Random(23053)
    weight_lists = []
    for size in (254, 255, 256, 300):
        nums = [rng.choice([1, 2, 7, 100]) for _ in range(size)]
        weight_lists.append([F(w, sum(nums)) for w in nums])
    weight_lists.append([F(493, 1000), F(1, 1000), F(1, 1000), F(1, 1000), F(504, 1000)])
    weight_lists.append([F(1, 4), F(1, 2**20), F(1, 2**20), F(3, 4) - F(1, 2**19)])
    shared, between = Counter(), Counter()  # per sampler
    for j, weights in enumerate(weight_lists):
        pick = inverse_cdf(weights)
        ts = [math.ceil(F(t) * ONE) for t in pick.args[0]]
        tops = Counter(T >> 45 for T in ts if T < ONE)
        for block in blocks(derive_seeds(104729, "pin", j, count=30), 460):
            us = uniforms_of(block)
            hits = Counter(map(pick, us))
            assert bucket_counts(pick, block) == [hits[k] for k in range(len(weights))]
            for u in us:
                k = round(u * ONE)
                if tops[k >> 45] > 1:
                    shared[j] += 1
                    between[j] += any(a <= k < b for a, b in zip(ts, ts[1:]) if a >> 45 == b >> 45)
    assert min(shared.values()) > 30 and len(shared) == len(weight_lists)
    assert min(between[j] for j in range(5)) > 20
