"""How many nodes the shattering search visits, pinned.

`partial_vc_dim` searches from one root group of the distinct concepts, each
held once. A root group that held repeated concepts too would make the
per-pattern (Sauer-Shelah) prune count a repeated concept more than once, so
it would fire less often and the search would visit more nodes, with the same
`VcResult`. Only a node count shows that, so these tests count calls of the
search's nested `visit` with `sys.setprofile` and pin them: on the benchmark's
random structure at G=40 and G=150 (`tools/family_scale.py`, tau 3/10, alpha
1/20), and on seeded random partial classes whose concepts repeat.
"""
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import genlab
from genlab import DimensionQuery, PartialConceptClass, VcResult, induce_partial_class, partial_vc_dim

TOOL = Path(__file__).resolve().parents[1] / "tools" / "family_scale.py"
spec = importlib.util.spec_from_file_location("family_scale", TOOL)
family_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(family_scale)

VISIT = next(c for c in partial_vc_dim.__code__.co_consts if getattr(c, "co_name", "") == "visit")


def search_nodes(pcc):
    """(VcResult, calls of the search's nested `visit`)."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is VISIT:
            nodes += 1

    sys.setprofile(profile)
    try:
        vc = partial_vc_dim(pcc)
    finally:
        sys.setprofile(None)
    return vc, nodes


def test_random_structure_node_counts():
    q = DimensionQuery(Fraction(3, 10), Fraction(1, 20))
    for domains, nodes in ((40, 480), (150, 9620)):
        pcc = induce_partial_class(*family_scale.structure(genlab, domains), q)
        assert search_nodes(pcc) == (VcResult(4, (0, 2, 6, 24), True), nodes)


def repeated_concepts_pcc(rng):
    """A partial class of 6-14 points whose 8-40 distinct concepts are each
    listed 1-4 times, in a shuffled order."""
    points = rng.randint(6, 14)
    distinct = [tuple(rng.choice((0, 1, None)) for _ in range(points))
                for _ in range(rng.randint(8, 40))]
    concepts = [c for c in distinct for _ in range(rng.randint(1, 4))]
    rng.shuffle(concepts)
    return PartialConceptClass(points, tuple(concepts))


def test_repeated_concepts_node_counts():
    rng = random.Random(29)
    pinned = [
        ((0, 4), 30), ((2, 7, 8), 26), ((0, 5, 9), 32), ((0, 6), 8),
        ((0, 1), 21), ((0, 3, 7), 21), ((1, 2, 5), 12), ((0, 1), 39),
    ]
    for shattered, nodes in pinned:
        vc = VcResult(len(shattered), shattered, True)
        assert search_nodes(repeated_concepts_pcc(rng)) == (vc, nodes)


def test_repeated_concepts_visit_as_many_nodes_as_distinct_ones():
    rng = random.Random(2903)
    for _ in range(30):
        pcc = repeated_concepts_pcc(rng)
        once = PartialConceptClass(pcc.universe_size, tuple(dict.fromkeys(pcc.concepts)))
        assert search_nodes(pcc) == search_nodes(once)
