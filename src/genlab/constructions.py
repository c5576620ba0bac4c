"""Hard-instance generators: threshold slices, noisy odd/even domains, families
whose shattering dimension is forced, and flipped/adversarial extensions.

The recurring building block is a distribution that puts half its mass on the
lowest support point with a 10% label-1 minority, and spreads the rest evenly
over the remaining support points labeled by their parity. Every threshold
hypothesis then errs at exactly 3/10 minus or plus a margin of 1/(4m'), where
m' is the (odd) number of non-anchor support points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, or_

from .core import (
    ConstructionError,
    DomainFamily,
    ErrorMatrix,
    HypothesisClass,
    LabeledDistribution,
    MetaDistribution,
    SpaceMismatchError,
    exact_values,
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
        ones = int.from_bytes(b"\x01" * space, "little")  # every point labeled 1
        masks = [ones >> 8 * i << 8 * i for i in range(1, cutoff + 1)]
        return cls(cutoff, HypothesisClass.from_masks(space, masks))

    @property
    def space(self) -> int:
        return self.hypothesis_class.space


def _parity_anchored_domain(space: int, points: tuple[int, ...]) -> LabeledDistribution:
    """Half the mass on points[0] (labels 9:1 toward 0), the rest spread evenly
    over points[1:], labeled by position parity. Both callers pass an even
    len(points), so the number of parity points m' is odd."""
    m = len(points) - 1
    anchor = points[0]
    # masses over 2bm, with ANCHOR_MINORITY = a/b: the anchor's labels 0 and 1
    # carry (b - a)m and am, each parity point b
    a, b = ANCHOR_MINORITY.numerator, ANCHOR_MINORITY.denominator
    weighted = [(anchor, 0, (b - a) * m), (anchor, 1, a * m)]
    weighted += [(x, t % 2, b) for t, x in enumerate(points[1:], start=1)]
    return LabeledDistribution.from_weighted(space, weighted, 2 * b * m)


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
    """Largest k with 2**(k+2) + 4 < 1/alpha, for an int or Fraction alpha."""
    alpha = Fraction(*exact_values((alpha,), "alpha"))
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
    realized with room to spare on both sides of 3/10. alpha is an int or a Fraction.
    """
    k = largest_k_for(alpha)
    alpha = Fraction(alpha)
    cutoff = 1 << k
    slice_ = ThresholdSlice.build(cutoff)
    subsets = tuple(subset_mask_for_slot(i, k) for i in range(1, cutoff + 1))
    domains = []
    for j in range(1, k + 1):
        bit = 1 << (j - 1)
        flags = [bool(mask & bit) for mask in subsets]
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
    # coordinate c's labels sit 8*width*c bits up; the first coordinate varies slowest
    masks = [0]
    for c in range(d):
        masks = [m | b << 8 * width * c for m in masks for b in base.slice.hypothesis_class.masks]
    hc = HypothesisClass.from_masks(space, masks)
    domains = []
    for c in range(d):
        for dom in base.family.domains:
            weighted = [(c * width + x, y, w) for x, y, w in dom.weighted]
            domains.append(LabeledDistribution.from_weighted(space, weighted, dom.denominator))
    return hc, DomainFamily(space, tuple(domains))


def unanimous_point_mass(hc: HypothesisClass) -> LabeledDistribution:
    """Point mass on the first instance where every hypothesis agrees.

    This is the canonical clean domain: every member has error exactly 0.
    Fails loudly when the class disagrees everywhere.
    """
    every = reduce(and_, hc.masks)  # byte x is 1 where every member labels x 1
    # byte x is 0 where the members agree on x
    x = (reduce(or_, hc.masks) ^ every).to_bytes(hc.space, "little").find(0)
    if x < 0:
        raise ConstructionError("no instance is labeled unanimously by the class")
    return LabeledDistribution.from_weighted(hc.space, [(x, every >> 8 * x & 1, 1)], 1)


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

    def meta_indices(self, b: tuple[int, ...]) -> tuple[int, ...]:
        """Extended-family indices of the domains an adversarial meta hiding
        the bit vector b weighs, in `meta_weights` order: the clean domain,
        then shattered domain t (b_t = 0) or its flipped mixture (b_t = 1)."""
        if len(b) != self.d:
            raise ValueError(f"bit vector has length {len(b)}, family has d={self.d}")
        if any(bit not in (0, 1) for bit in b):
            raise ValueError("bit vector entries must be 0 or 1")
        return (self.clean_index,) + tuple(
            self.flipped_index(t) if bit else j
            for t, (j, bit) in enumerate(zip(self.shattered_indices, b))
        )

    def threshold_floor(self) -> Fraction:
        """lam/(1+lam): below this, original and flipped error cannot both sit."""
        lam = self.mix_weight
        return lam / (1 + lam)

    def meta_weights(self, gamma: Fraction) -> tuple[Fraction, ...]:
        """Weights of an adversarial meta: 1-4*gamma on the clean domain, then
        4*gamma/d on each of the d domains the bit vector picks; gamma is an int or Fraction."""
        gamma = Fraction(*exact_values((gamma,), "gamma"))
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
    domains. Requires int or Fraction 0 <= alpha < tau <= 1/2 and a d0 on which
    every hypothesis has error exactly 0. Certificate validity at (tau, alpha)
    is recorded, not enforced: `certificate_valid` checks it on first read."""
    tau, alpha = map(Fraction, exact_values((tau, alpha), "tau and alpha"))
    if not (0 <= alpha < tau <= Fraction(1, 2)):
        raise ValueError(f"need 0 <= alpha < tau <= 1/2, got alpha={alpha}, tau={tau}")
    if d0.space != g.space or hc.space != g.space:
        raise SpaceMismatchError("class, family, and clean domain must share a space")
    erring = [i for i, e in enumerate(ErrorMatrix(hc, (d0,)).columns[0]) if e]
    if erring:
        raise ValueError(f"hypothesis {erring[0]} has nonzero error on the clean domain")
    for j in cert.domain_indices:
        if not (0 <= j < len(g)):
            raise ValueError(f"certificate names domain {j}, family has {len(g)}")
    lam = (tau - alpha) / (1 - tau)
    flipped = tuple(mix(d0, g.domains[j], lam, flip=True) for j in cert.domain_indices)
    extended = DomainFamily(g.space, g.domains + (d0,) + flipped)
    return LowerBoundFamily(
        g, d0, cert.domain_indices, lam, flipped, extended, tau, alpha, hc, cert
    )


def large_k_lower_bound(
    alpha: Fraction, tau: Fraction, lb_alpha: Fraction | None = None
) -> LowerBoundFamily:
    """The flipped extension of `large_k_family(alpha)` at (tau, lb_alpha),
    lb_alpha defaulting to alpha. The clean domain is the slice's unanimous
    point mass and the certificate the family's own, which names all k
    domains."""
    base = large_k_family(alpha)
    hc = base.slice.hypothesis_class
    return lower_bound_family(
        hc, base.family, unanimous_point_mass(hc), base.certificate(), tau,
        alpha if lb_alpha is None else lb_alpha,
    )


def adversarial_meta(
    lbf: LowerBoundFamily, b: tuple[int, ...], gamma: Fraction
) -> MetaDistribution:
    """Meta-distribution hiding the bit vector b: weight 1-4*gamma on the clean
    domain and 4*gamma/d on D_i (b_i = 0) or its flipped mixture (b_i = 1)."""
    indices = lbf.meta_indices(b)
    weights = lbf.meta_weights(gamma)
    domains = lbf.extended_family.domains
    family = DomainFamily(lbf.base_family.space, tuple(domains[i] for i in indices))
    return MetaDistribution(family, weights)
