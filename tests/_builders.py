"""Seeded random instance builders shared across test modules."""
from __future__ import annotations

import random
from fractions import Fraction

from genlab import (
    Atom,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    MetaDistribution,
    PartialConceptClass,
)


def random_domain(rng: random.Random, space: int, max_support: int = 4) -> LabeledDistribution:
    size = rng.randint(1, min(max_support, space))
    xs = rng.sample(range(space), size)
    atoms = []
    weights = [rng.randint(1, 9) for _ in xs]
    total = sum(weights)
    for x, w in zip(xs, weights):
        atoms.append(Atom(x, rng.randint(0, 1), Fraction(w, total)))
    return LabeledDistribution(space, tuple(atoms))


def primes(count: int, start: int) -> list[int]:
    found = []
    p = start
    while len(found) < count:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            found.append(p)
        p += 1
    return found


def prime_domain(rng: random.Random, space: int, prime: int) -> LabeledDistribution:
    """Up to 5 atoms whose masses all have the prime as denominator."""
    size = rng.randint(1, min(5, 2 * space))
    cuts = sorted(rng.sample(range(1, prime), size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [prime])]
    keys = rng.sample([(x, y) for x in range(space) for y in (0, 1)], size)
    atoms = tuple(Atom(x, y, Fraction(w, prime)) for (x, y), w in zip(keys, parts))
    return LabeledDistribution(space, atoms)


def random_class(rng: random.Random, space: int, size: int) -> HypothesisClass:
    size = min(size, 2**space)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        seen.add(tuple(rng.randint(0, 1) for _ in range(space)))
    return HypothesisClass(space, tuple(Hypothesis(labels) for labels in sorted(seen)))


def random_family(rng: random.Random, space: int, count: int) -> DomainFamily:
    return DomainFamily(space, tuple(random_domain(rng, space) for _ in range(count)))


def random_meta(rng: random.Random, family: DomainFamily) -> MetaDistribution:
    weights = [rng.randint(1, 9) for _ in range(len(family))]
    total = sum(weights)
    return MetaDistribution(family, tuple(Fraction(w, total) for w in weights))


def random_partial_class(
    rng: random.Random, universe: int, count: int, undefined_rate: float = 0.2
) -> PartialConceptClass:
    concepts = []
    for _ in range(count):
        row = tuple(
            None if rng.random() < undefined_rate else rng.randint(0, 1)
            for _ in range(universe)
        )
        concepts.append(row)
    return PartialConceptClass(universe, tuple(concepts))
