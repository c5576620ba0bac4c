"""Hard-instance generators: threshold slices, noisy odd/even domains, families
whose shattering dimension is forced, and flipped/adversarial extensions.

The recurring building block is a distribution that puts half its mass on the
lowest support point with a 10% label-1 minority, and spreads the rest evenly
over the remaining support points labeled by their parity. Every threshold
hypothesis then errs at exactly 3/10 minus or plus a margin of 1/(4m'), where
m' is the (odd) number of non-anchor support points.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    Atom,
    ConstructionError,
    DomainFamily,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    MetaDistribution,
    SpaceMismatchError,
    domain_error,
    flip_labels,
    mix,
)
from .dimensions import DimensionQuery, ShatteringCertificate, verify_certificate

BASE_RATE = Fraction(3, 10)  # error level every threshold oscillates around
ANCHOR_MINORITY = Fraction(1, 10)  # label-1 share at the anchor point


@dataclass(frozen=True)
class ThresholdSlice:
    """Thresholds h_1..h_K (h_i(x) = 1 iff x >= i) over instances 0..K+1.

    Instance 0 is labeled 0 by every member and instance K+1 labeled 1, which
    gives later constructions a unanimous anchor point and a padding point.
    """

    cutoff: int
    hypothesis_class: HypothesisClass

    @classmethod
    def build(cls, cutoff: int) -> "ThresholdSlice":
        if cutoff < 1:
            raise ValueError("threshold slice needs cutoff >= 1")
        space = cutoff + 2
        members = tuple(
            Hypothesis((0,) * i + (1,) * (space - i)) for i in range(1, cutoff + 1)
        )
        return cls(cutoff, HypothesisClass(space, members))

    @property
    def space(self) -> int:
        return self.hypothesis_class.space


def _parity_anchored_domain(space: int, points: tuple[int, ...]) -> LabeledDistribution:
    """Half the mass on points[0] (labels 9:1 toward 0), the rest spread evenly
    over points[1:], labeled by position parity. len(points) must be even, so
    the number of parity points m' is odd."""
    m = len(points) - 1
    if m < 1 or m % 2 == 0:
        raise ConstructionError(f"need an odd number of parity points, got {m}")
    anchor = points[0]
    atoms = [
        Atom(anchor, 0, Fraction(1, 2) * (1 - ANCHOR_MINORITY)),
        Atom(anchor, 1, Fraction(1, 2) * ANCHOR_MINORITY),
    ]
    share = Fraction(1, 2 * m)
    for t, x in enumerate(points[1:], start=1):
        atoms.append(Atom(x, t % 2, share))
    return LabeledDistribution(space, tuple(atoms))


def odd_even_domain(m: int) -> tuple[LabeledDistribution, ThresholdSlice]:
    """The basic hard domain over {0..m} (m odd) with its threshold slice.

    Every threshold errs at 3/10 - 1/(4m) when its index is odd and at
    3/10 + 1/(4m) when even.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    slice_ = ThresholdSlice.build(m)
    domain = _parity_anchored_domain(slice_.space, tuple(range(m + 1)))
    return domain, slice_


def subset_mask_for_slot(slot: int, k: int) -> int:
    """Membership bitmask E_i for 1-based hypothesis slot i.

    Slot 1 carries the full set {1..k}; slots 2..2^k carry the remaining
    subsets in increasing k-bit integer encoding.
    """
    full = (1 << k) - 1
    if slot == 1:
        return full
    return slot - 2


def slot_for_subset_mask(mask: int, k: int) -> int:
    """Inverse of subset_mask_for_slot."""
    full = (1 << k) - 1
    if mask == full:
        return 1
    return mask + 2


@dataclass(frozen=True)
class LargeKFamily:
    """k domains shattered at (3/10, alpha) by a threshold slice of size 2^k.

    Domain j (1-based) is built from the runs of j's membership across the
    subsets E_1..E_K: run boundaries become support points, and thresholds
    belonging to the same run restrict identically to that support.
    """

    alpha: Fraction
    k: int
    cutoff: int
    slice: ThresholdSlice
    family: DomainFamily
    subsets: tuple[int, ...]

    def query(self, size_cap: int | None = None) -> DimensionQuery:
        return DimensionQuery(BASE_RATE, self.alpha, size_cap)

    def certificate(self) -> ShatteringCertificate:
        """Witness map over all k domains: subset bitmask -> hypothesis index."""
        witnesses = tuple(
            slot_for_subset_mask(mask, self.k) - 1 for mask in range(1 << self.k)
        )
        return ShatteringCertificate(tuple(range(self.k)), witnesses)


def largest_k_for(alpha: Fraction) -> int:
    """Largest k with 2**(k+2) + 4 < 1/alpha."""
    alpha = Fraction(alpha)
    if not (0 < alpha < Fraction(1, 12)):
        raise ValueError(f"alpha must lie in (0, 1/12), got {alpha}")
    k = 1
    while (1 << (k + 3)) + 4 < Fraction(1, 1) / alpha:
        k += 1
    return k


def large_k_family(alpha: Fraction) -> LargeKFamily:
    """Build the k-domain family shattered at margin alpha, k maximal.

    The margin of domain j is 1/(4m'_j) with m'_j <= 2^k + 1, and the choice of
    k makes 1/(4m'_j) > alpha strict, so all 2^k membership patterns are
    realized with room to spare on both sides of 3/10.
    """
    alpha = Fraction(alpha)
    k = largest_k_for(alpha)
    cutoff = 1 << k
    slice_ = ThresholdSlice.build(cutoff)
    subsets = tuple(subset_mask_for_slot(i, k) for i in range(1, cutoff + 1))
    domains = []
    for j in range(1, k + 1):
        bit = 1 << (j - 1)
        flags = [bool(mask & bit) for mask in subsets]
        if not flags[0]:
            raise ConstructionError("first subset must contain every coordinate")
        boundaries = [0]
        for s in range(1, cutoff):
            if flags[s] != flags[s - 1]:
                boundaries.append(s)
        boundaries.append(cutoff)
        if len(boundaries) % 2:  # an even number of blocks
            boundaries.append(cutoff + 1)  # padding point labeled 1 by all
        domains.append(_parity_anchored_domain(slice_.space, tuple(boundaries)))
    family = DomainFamily(slice_.space, tuple(domains))
    return LargeKFamily(alpha, k, cutoff, slice_, family, subsets)


def product_family(
    base: LargeKFamily, d: int, cap: int = 4096
) -> tuple[HypothesisClass, DomainFamily]:
    """Lift the base slice and family to d disjoint coordinates.

    Hypotheses are all K^d per-coordinate combinations of base thresholds;
    domains are the k*d coordinate transports of the base domains. Shattering
    dimension multiplies: gdim of the result is k*d at the base thresholds.
    """
    if d < 1:
        raise ValueError("need at least one coordinate")
    count = len(base.slice.hypothesis_class) ** d
    if count > cap:
        raise ConstructionError(
            f"product class would have {count} members, cap is {cap}"
        )
    width = base.slice.space
    space = d * width
    members = []
    for combo in itertools.product(base.slice.hypothesis_class.members, repeat=d):
        labels: list[int] = []
        for h in combo:
            labels.extend(h.labels)
        members.append(Hypothesis(tuple(labels)))
    hc = HypothesisClass(space, tuple(members))
    domains = []
    for c in range(d):
        for dom in base.family.domains:
            atoms = tuple(Atom(c * width + a.x, a.y, a.mass) for a in dom.atoms)
            domains.append(LabeledDistribution(space, atoms))
    return hc, DomainFamily(space, tuple(domains))


def unanimous_point_mass(hc: HypothesisClass) -> LabeledDistribution:
    """Point mass on the first instance where every hypothesis agrees.

    This is the canonical clean domain: every member has error exactly 0.
    Fails loudly when the class disagrees everywhere.
    """
    for x in range(hc.space):
        values = {h.labels[x] for h in hc.members}
        if len(values) == 1:
            return LabeledDistribution(
                hc.space, (Atom(x, values.pop(), Fraction(1)),)
            )
    raise ConstructionError("no instance is labeled unanimously by the class")


@dataclass(frozen=True)
class LowerBoundFamily:
    """A family extended with a clean domain and label-flipped mixtures.

    For each shattered index i, the flipped domain is
    (1 - lam) * clean + lam * flip(D_i) with lam = (tau - alpha)/(1 - tau), so
    any hypothesis with zero clean error has flipped error lam * (1 - original
    error). The extended family lists the base domains first, then the clean
    domain, then the flipped domains in shattered-index order.
    """

    base_family: DomainFamily
    clean_domain: LabeledDistribution
    shattered_indices: tuple[int, ...]
    mix_weight: Fraction
    flipped: tuple[LabeledDistribution, ...]
    extended_family: DomainFamily
    tau: Fraction
    alpha: Fraction
    hypothesis_class: HypothesisClass
    certificate: ShatteringCertificate

    @cached_property
    def certificate_valid(self) -> bool:
        """Whether the certificate shatters the base family at (tau, alpha)."""
        return verify_certificate(
            self.certificate, self.hypothesis_class, self.base_family,
            DimensionQuery(self.tau, self.alpha),
        )

    @property
    def d(self) -> int:
        return len(self.shattered_indices)

    @property
    def clean_index(self) -> int:
        return len(self.base_family)

    def flipped_index(self, t: int) -> int:
        return len(self.base_family) + 1 + t

    def threshold_floor(self) -> Fraction:
        """lam/(1+lam): below this, original and flipped error cannot both sit."""
        lam = self.mix_weight
        return lam / (1 + lam)

    def meta_weights(self, gamma: Fraction) -> tuple[Fraction, ...]:
        """Weights of an adversarial meta: 1-4*gamma on the clean domain, then
        4*gamma/d on each of the d domains the bit vector picks."""
        gamma = Fraction(gamma)
        if not (0 < gamma < Fraction(1, 8)):
            raise ValueError(f"gamma must lie in (0, 1/8), got {gamma}")
        return (1 - 4 * gamma,) + (4 * gamma / self.d,) * self.d


def lower_bound_family(
    hc: HypothesisClass,
    g: DomainFamily,
    d0: LabeledDistribution,
    cert: ShatteringCertificate,
    tau: Fraction,
    alpha: Fraction,
) -> LowerBoundFamily:
    """Extend g with the clean domain d0 and flipped mixtures of the certified
    domains. Requires 0 <= alpha < tau <= 1/2 and a d0 on which every
    hypothesis has error exactly 0. Certificate validity at (tau, alpha) is
    recorded, not enforced: `certificate_valid` checks it on first read."""
    tau = Fraction(tau)
    alpha = Fraction(alpha)
    if not (0 <= alpha < tau <= Fraction(1, 2)):
        raise ValueError(f"need 0 <= alpha < tau <= 1/2, got alpha={alpha}, tau={tau}")
    if d0.space != g.space or hc.space != g.space:
        raise SpaceMismatchError("class, family, and clean domain must share a space")
    for i, h in enumerate(hc.members):
        if domain_error(h, d0) != 0:
            raise ValueError(f"hypothesis {i} has nonzero error on the clean domain")
    for j in cert.domain_indices:
        if not (0 <= j < len(g)):
            raise ValueError(f"certificate names domain {j}, family has {len(g)}")
    lam = (tau - alpha) / (1 - tau)
    flipped = tuple(
        mix(d0, flip_labels(g.domains[j]), lam) for j in cert.domain_indices
    )
    extended = DomainFamily(g.space, g.domains + (d0,) + flipped)
    return LowerBoundFamily(
        g, d0, cert.domain_indices, lam, flipped, extended, tau, alpha, hc, cert
    )


def adversarial_meta(
    lbf: LowerBoundFamily, b: tuple[int, ...], gamma: Fraction
) -> MetaDistribution:
    """Meta-distribution hiding the bit vector b: weight 1-4*gamma on the clean
    domain and 4*gamma/d on D_i (b_i = 0) or its flipped mixture (b_i = 1)."""
    d = lbf.d
    if len(b) != d:
        raise ValueError(f"bit vector has length {len(b)}, family has d={d}")
    if any(bit not in (0, 1) for bit in b):
        raise ValueError("bit vector entries must be 0 or 1")
    weights = lbf.meta_weights(gamma)
    chosen = tuple(
        lbf.flipped[t] if bit else lbf.base_family.domains[lbf.shattered_indices[t]]
        for t, bit in enumerate(b)
    )
    family = DomainFamily(lbf.base_family.space, (lbf.clean_domain,) + chosen)
    return MetaDistribution(family, weights)
