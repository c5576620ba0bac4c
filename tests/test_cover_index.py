"""The covers' sorted-row index against a frozen copy of the full scan.

`ref_balls`, `ref_greedy_cover` and `ref_cover_is_valid` are a frozen copy of
the covers before `_balls` became an index: the integer row bounds of one
column, every uncovered column tested against each opened center with the
uncovered list rebuilt, and every center tested for each domain that is not a
center. On the random structure of `tools/family_scale.py` at 1000 domains,
`greedy_cover` must open the same centers, `cover_is_valid` must give the
same verdicts and `checked_cover` must return the pair the two give. The
`genlab cover` command must build one `ErrorMatrix`.
"""
import contextlib
import importlib.util
import io
import math
from fractions import Fraction
from operator import le
from pathlib import Path

import pytest

import genlab
from genlab import Cover, DivergenceQuery, checked_cover, cover_is_valid, greedy_cover
from genlab import cli, divergence
from genlab.core import ErrorMatrix

F = Fraction
TOOL = Path(__file__).resolve().parents[1] / "tools" / "family_scale.py"
spec = importlib.util.spec_from_file_location("family_scale", TOOL)
family_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(family_scale)


def ref_balls(m, radius, tau):
    den = m.denominator
    r = math.floor(radius * den)
    limit = den if tau is None else math.floor(tau * den)

    def ball(y):
        lo = [v - r if v <= limit else min(limit + 1, v - r) for v in y]
        hi = [v + r if v <= limit else den for v in y]
        return lambda x: all(map(le, lo, x)) and all(map(le, x, hi))

    return ball


def ref_greedy_cover(m, radius, q):
    ball = ref_balls(m, radius, q.tau)
    uncovered = list(range(len(m.columns)))
    centers = []
    while uncovered:
        c = uncovered.pop(0)
        centers.append(c)
        if uncovered:
            near = ball(m.columns[c])
            uncovered = [j for j in uncovered if not near(m.columns[j])]
    return tuple(centers)


def ref_cover_is_valid(m, cover):
    ball = ref_balls(m, cover.radius, cover.query.tau)
    centers = set(cover.center_indices)
    center_columns = [m.columns[c] for c in cover.center_indices]
    return all(
        j in centers or any(map(ball(column), center_columns))
        for j, column in enumerate(m.columns)
    )


@pytest.fixture(scope="module")
def structure():
    hc, g = family_scale.structure(genlab, 1000)
    return hc, g, ErrorMatrix(hc, g.domains)


@pytest.mark.parametrize("tau, radius", [
    (F(3, 10), F(1, 40)),  # the family-random query
    (F(3, 10), F(0)),
    (None, F(1, 40)),
    (F(0), F(1, 20)),  # some columns have no row within tau: the full scan runs
])
def test_thousand_domains_match_full_scan(structure, tau, radius):
    hc, g, m = structure
    q = DivergenceQuery(tau)
    limit = m.denominator if tau is None else math.floor(tau * m.denominator)
    scanned = [j for j, column in enumerate(m.columns) if min(column) > limit]
    assert bool(scanned) == (tau == 0)
    cover = greedy_cover(g, hc, radius, q)
    centers = cover.center_indices
    assert centers == ref_greedy_cover(m, radius, q)
    assert checked_cover(g, hc, radius, q) == (cover, True)
    assert cover_is_valid(cover, g, hc) and ref_cover_is_valid(m, cover)
    # every domain but one non-center as a center: that one is still covered.
    # Dropping an opened center leaves it uncovered, as no other center is
    # near it; a dropped scanned center is checked through the full scan.
    assert set(scanned) <= set(centers)
    outside = next(j for j in range(len(g)) if j not in set(centers))
    partials = [[j for j in range(len(g)) if j != outside]]
    partials += [[c for c in centers if c != d] for d in (centers[0], centers[-1], *scanned[:1])]
    verdicts = []
    for kept in partials:
        partial = Cover(kept, radius, q)
        verdicts.append(cover_is_valid(partial, g, hc))
        assert verdicts[-1] == ref_cover_is_valid(m, partial)
    assert verdicts == [True] + [False] * (len(partials) - 1)


def test_cover_command_builds_one_matrix(tmp_path, monkeypatch):
    hc, g = family_scale.structure(genlab, 40)
    genlab.write_hypothesis_class(tmp_path / "class.json", hc)
    genlab.write_json_atomic(tmp_path / "family.json", genlab.family_to_dict(g))
    built = []

    class Counting(ErrorMatrix):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(divergence, "ErrorMatrix", Counting)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["cover", "--class", str(tmp_path / "class.json"),
                         "--domains", str(tmp_path / "family.json"),
                         "--radius", "1/40", "--tau", "3/10"])
    assert code == 0
    assert printed.getvalue() == "centers=39 radius=1/40 valid=true\n"
    assert len(built) == 1
