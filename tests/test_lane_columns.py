"""`ErrorMatrix` domain columns summed on per-point label lanes, on seeded
instances larger than the frozen fixtures: classes of up to about 600 rows,
spaces up to 300 (so one gain group can hold more than 255 points), points
carrying both labels (equal weights cancel the gain to 0), and denominators
that select each lane width (1, 2, 4 and 8 bytes) or, at 2**64 and above,
the `popcount_column` fallback. Every column is checked against
`popcount_column` and against the frozen per-hypothesis reference of
`test_restriction_memo`; `tally`, whose per-atom lanes now come from the same
per-point lanes, is checked against `popcount_column`."""
import random

import pytest

from genlab import Hypothesis, HypothesisClass, LabeledDistribution, load_hypothesis_class
from genlab import write_hypothesis_class
from genlab.core import _LANE_WIDTHS, ErrorMatrix, popcount_column

from test_restriction_memo import frozen_columns

# a prime denominator at the top of each lane width, and two past the widest
TOPS = {1: 251, 2: 65521, 4: 4294967291, 8: 2**64 - 59, None: 2**64 + 13}
WIDE = 3 * 2**70 + 1


def random_masks_class(rng, space, rows):
    masks = set()
    while len(masks) < min(rows, 2**space):
        masks.add(int.from_bytes(bytes(rng.getrandbits(1) for _ in range(space)), "little"))
    masks = sorted(masks)
    rng.shuffle(masks)
    return HypothesisClass.from_masks(space, masks)


def parts(rng, total, count):
    """count >= 2 positive ints summing to total, the first 1, so that the
    domain built on them keeps total as its denominator."""
    cuts = set()
    while len(cuts) < count - 2:
        cuts.add(rng.randint(1, total - 2))
    cuts = sorted(cuts)
    return [1, *(b - a for a, b in zip([0, *cuts], [*cuts, total - 1]))]


def domain(rng, space, den, atoms):
    """A domain over at least 2 distinct (x, y) pairs whose masses have
    denominator den >= 2; some points carry both labels."""
    keys = rng.sample([(x, y) for x in range(space) for y in (0, 1)],
                      max(2, min(atoms, 2 * space, den)))
    d = LabeledDistribution.from_weighted(
        space, [(x, y, w) for (x, y), w in zip(keys, parts(rng, den, len(keys)))], den)
    assert d.denominator == den
    return d


def wide_group_domain(rng, space, rows_hint):
    """More than 255 points of gain 1, a point with both labels at equal
    weight (gain 0), and points of negative gain."""
    xs = list(range(space))
    rng.shuffle(xs)
    group, cancel, negative = xs[:260 + rows_hint % 30], xs[-1], xs[-4:-1]
    weighted = [(x, 0, 1) for x in group] + [(cancel, 0, 7), (cancel, 1, 7)]
    weighted += [(x, 1, rng.randint(2, 9)) for x in negative]
    d = LabeledDistribution.from_weighted(space, weighted, sum(w for _, _, w in weighted))
    gains = {}
    for x, y, w in d.weighted:
        gains[x] = gains.get(x, 0) + (-w if y else w)
    assert gains[cancel] == 0 and list(gains.values()).count(gains[group[0]]) > 255
    return d


def check(hc, domains):
    m = ErrorMatrix(hc, domains)
    assert (m.denominator, m.columns) == frozen_columns(hc, domains)
    for d, column in zip(domains, m.columns):
        scale = m.denominator // d.denominator
        assert column == popcount_column(hc.masks, [(x, y, w * scale) for x, y, w in d.weighted])
    # the per-point lanes are not kept, and no per-atom lane is laid yet
    assert set(vars(m)) == {"rows", "denominator", "columns", "_class", "_weighted", "_lanes"}
    assert m._lanes == {}
    return m


def width_of(m):
    bits = m.denominator.bit_length()
    return _LANE_WIDTHS[bits] if bits <= 64 else None


class TestDomainColumns:
    @pytest.mark.parametrize("width", [1, 2, 4, 8, None])
    def test_each_lane_width_and_the_fallback(self, width):
        rng = random.Random(33001 + (width or 0))
        den = TOPS[width]
        for _ in range(3):
            space = rng.randint(1, 40)
            hc = random_masks_class(rng, space, rng.randint(1, 120))
            domains = [domain(rng, space, den, rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
            m = check(hc, domains)
            assert width_of(m) == width

    def test_wide_classes_and_large_groups(self):
        """Each added domain widens the common denominator: the first
        prefix sums in 2-byte lanes, the last goes to the fallback."""
        rng = random.Random(33002)
        for rows, space in ((600, 300), (517, 280), (64, 300)):
            hc = random_masks_class(rng, space, rows)
            domains = [wide_group_domain(rng, space, rows)]
            domains += [domain(rng, space, den, rng.randint(1, 40))
                        for den in (13, 65536, 2**32 + 15, WIDE)]
            widths = [width_of(check(hc, domains[:count])) for count in range(1, 6)]
            assert widths == [2, 2, 4, 8, None]

    def test_seeded_random_instances(self):
        rng = random.Random(33003)
        widths = set()
        for _ in range(40):
            space = rng.randint(1, 60)
            hc = random_masks_class(rng, space, rng.randint(1, 200))
            top = rng.choice([9, 200, 60000, 2**31, 2**60, 2**66])
            domains = [domain(rng, space, rng.randint(2, top), rng.randint(1, 2 * space))
                       for _ in range(rng.randint(1, 5))]
            widths.add(width_of(check(hc, domains)))
        assert widths == {1, 2, 4, 8, None}

    def test_classes_built_from_members_and_from_files(self, tmp_path):
        rng = random.Random(33004)
        built = random_masks_class(rng, 30, 90)
        members = HypothesisClass(30, built.members)
        write_hypothesis_class(tmp_path / "class.json", built)
        loaded = load_hypothesis_class(tmp_path / "class.json")
        assert "rows" not in vars(members) and "rows" in vars(loaded) and "rows" in vars(built)
        rows = b"".join(bytes(h.labels) for h in built.members)
        assert built.rows == members.rows == loaded.rows == rows
        domains = [domain(rng, 30, rng.randint(2, 500), rng.randint(1, 20)) for _ in range(5)]
        assert check(members, domains).columns == check(loaded, domains).columns

    def test_out_of_range_error_is_refused(self):
        """A domain whose numerators exceed its denominator (built around the
        checks) is refused on the decoded column, in lanes and in the fallback."""
        hc = HypothesisClass(2, (Hypothesis((0, 1)), Hypothesis((1, 1))))
        for weighted, den in ((((0, 0, 5), (1, 1, 1)), 3), (((0, 0, -1), (1, 1, 2**65)), 2**65)):
            d = LabeledDistribution.__new__(LabeledDistribution)
            d._set(space=2, weighted=weighted, denominator=den)
            with pytest.raises(ValueError, match="domain 0 yields an error outside"):
                ErrorMatrix(hc, [d])


class TestTallyOnPointLanes:
    def test_tally_matches_popcount_column(self):
        rng = random.Random(33005)
        tops = (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64)
        for rows, space in ((600, 300), (200, 50), (1, 9)):
            hc = random_masks_class(rng, space, rows)
            domains = [wide_group_domain(rng, space, rows)] if space >= 280 else []
            domains += [domain(rng, space, rng.randint(2, 10**6), rng.randint(1, 30))]
            m = ErrorMatrix(hc, domains)
            for j, d in enumerate(domains):
                size = len(d.weighted)
                for total in (rng.randint(0, 50), *tops):
                    cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 6)))
                    counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
                    pairs = [(rng.randrange(size), c) for c in counts]
                    want = popcount_column(hc.masks, [(*d.weighted[k][:2], c) for k, c in pairs])
                    assert m.tally(j, pairs) == want
            assert {w for _, w in m._lanes} == {1, 2, 4, 8}
