"""genlab's checked value types, each beside a frozen dataclass twin.

Every value type in `core`, `dimensions` and `divergence` derives from
`core.Frozen`. Each is checked against a reference twin made by
`dataclasses.make_dataclass` with the same name, fields `_key` and
`frozen=True`, holding the same stored values. The repr must match the
twin's, apart from the three classes that repr their members, concepts or
atoms; a domain's repr must match that of a twin of its space and atoms.
The `==` and `!=` verdicts must agree with the twin's over equal and unequal
pairs, and equal values must hash equal, as their twins do. Comparing with
another type must read not equal. Assigning or deleting any attribute must
raise `FrozenInstanceError`, as it does on the twin.
"""
import dataclasses
from fractions import Fraction as F

import pytest

from genlab import (
    Atom,
    Cover,
    DimensionQuery,
    DivergenceQuery,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    MetaDistribution,
    PartialConceptClass,
    ShatteringCertificate,
)

D0 = LabeledDistribution(2, (Atom(0, 1, F(1, 3)), Atom(1, 0, F(2, 3))))
D1 = LabeledDistribution(2, (Atom(1, 1, F(1)),))


def cases():
    """(value, an equal value built another way, unequal values) per class."""
    family = DomainFamily(2, (D0, D1))
    yield (Hypothesis((1, 0)), Hypothesis([True, False]),
           [Hypothesis((0, 1)), Hypothesis((1, 0, 0))])
    yield (HypothesisClass(2, (Hypothesis((1, 0)),)), HypothesisClass.from_masks(2, [1]),
           [HypothesisClass.from_masks(2, [0x100]), HypothesisClass.from_masks(3, [1]),
            HypothesisClass.from_masks(2, [1, 0])])
    yield (D0, LabeledDistribution(2, [(1, 0, F(2, 3)), (0, 1, F(1, 3))]),
           [D1, LabeledDistribution(3, D0.atoms),
            LabeledDistribution(2, [(0, 1, F(1, 2)), (1, 0, F(1, 2))])])
    yield (family, DomainFamily(2, [D0, D1]),
           [DomainFamily(2, (D1, D0)), DomainFamily(2, ()), DomainFamily(2, (D0,))])
    yield (MetaDistribution(family, (F(1, 4), F(3, 4))), MetaDistribution(family, [F(1, 4), F(3, 4)]),
           [MetaDistribution(family, (F(3, 4), F(1, 4))),
            MetaDistribution(DomainFamily(2, (D1, D0)), (F(1, 4), F(3, 4)))])
    yield (LabeledSample(((0, 1), (1, 0))), LabeledSample([[0, 1], [1, 0]]),
           [LabeledSample(((1, 0), (0, 1))), LabeledSample(())])
    yield (PartialConceptClass(2, ((0, None), (1, 1))),
           PartialConceptClass(2, [[False, None], [True, 1]]),
           [PartialConceptClass(2, ((0, None), (1, 0))), PartialConceptClass(2, ((0, None),)),
            PartialConceptClass(3, ((0, None, 0), (1, 1, 0)))])
    # an empty universe: the classes differ only in their number of concepts
    yield (PartialConceptClass(0, [()]), PartialConceptClass(0, ((),)),
           [PartialConceptClass(0, [(), ()])])
    yield (DimensionQuery(F(1, 2), 0), DimensionQuery(tau=F(2, 4), alpha=F(0), size_cap=None),
           [DimensionQuery(F(1, 2), 0, 3), DimensionQuery(F(1, 2), F(1, 4)), DimensionQuery(1, 0)])
    yield (ShatteringCertificate((2,), (1, 0)), ShatteringCertificate([2], [1, 0]),
           [ShatteringCertificate((2,), (0, 1)), ShatteringCertificate((), (0,))])
    yield (DivergenceQuery(), DivergenceQuery(None),
           [DivergenceQuery(F(1, 2)), DivergenceQuery(0)])
    yield (DivergenceQuery(F(1, 2)), DivergenceQuery(tau=F(2, 4)), [DivergenceQuery(1)])
    yield (Cover((0, 2), F(1, 5), DivergenceQuery()), Cover([0, 2], F(2, 10), DivergenceQuery(None)),
           [Cover((0,), F(1, 5), DivergenceQuery()), Cover((0, 2), 0, DivergenceQuery()),
            Cover((0, 2), F(1, 5), DivergenceQuery(1))])


CASES = list(cases())
CUSTOM_REPR = {HypothesisClass, LabeledDistribution, PartialConceptClass}
# each class's twin: a frozen dataclass of its name and its `_key` fields
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls._key, frozen=True)
         for cls in {type(value) for value, _, _ in CASES}}


def twin(value):
    """`value`'s twin, holding the values stored on `value` under its field names."""
    return TWINS[type(value)](*(getattr(value, k) for k in type(value)._key))


def test_every_value_class_is_covered():
    assert len(TWINS) == 11


@pytest.mark.parametrize("value, same, others", CASES,
                         ids=[f"{type(c[0]).__name__}-{i}" for i, c in enumerate(CASES)])
def test_matches_frozen_dataclass_twin(value, same, others):
    ref = twin(value)
    if type(value) not in CUSTOM_REPR:
        assert repr(value) == repr(ref) and repr(same) == repr(twin(same))
    for a, b in [(value, same), (same, value)] + [(value, o) for o in others]:
        assert (a == b) is (twin(a) == twin(b)) and (a != b) is (twin(a) != twin(b))
    assert value == same and all(value != o for o in others)
    assert hash(value) == hash(same) == hash(ref) == hash(twin(same))
    for other in ("value", 0, None, ref):
        assert value != other and not value == other
    for name in (*type(value)._key, "other"):
        for obj in (value, ref):
            with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field"):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field"):
                delattr(obj, name)


def test_domain_repr_shows_the_space_and_atoms():
    atoms_twin = dataclasses.make_dataclass("LabeledDistribution", ("space", "atoms"), frozen=True)
    domains = [d for value, same, others in CASES if type(value) is LabeledDistribution
               for d in (value, same, *others)]
    assert len(domains) == 5
    for d in domains:
        atoms = tuple(Atom(x, y, F(w, d.denominator)) for x, y, w in d.weighted)
        assert repr(d) == repr(atoms_twin(d.space, atoms))
    assert repr(D0) == ("LabeledDistribution(space=2, atoms=(Atom(x=0, y=1, mass=Fraction(1, 3)), "
                        "Atom(x=1, y=0, mass=Fraction(2, 3))))")
