"""Finite carriers and extensional binary relations.

Everything downstream (entourages, proximities, orbit translates) reduces to
boolean algebra over subsets of a small finite carrier.  Subsets are encoded
as bitmasks, little-endian in the carrier's element order: bit i of a mask
stands for ``elements[i]``, so subset k of ``2**n`` is the same set on every
run.  A relation is stored as one image mask per element (bit j of mask
i is the pair (e_i, e_j)), so relational algebra is a few integer
operations per row and equality is extensional by construction; the
pair set is derived only when asked for.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .errors import CarrierMismatch, PreconditionFailure

DEFAULT_MAX_CARRIER = 12


class Memo:
    """An object that keeps values computed from it: `_kept(fn, *args)`
    returns fn(self, *args), computed once per key (fn,) + args and kept
    as long as the object.  fn is a module-level function and args are
    exactly the values it reads that can differ between calls, so the key
    is the call.  A call that raises keeps nothing."""

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = {}

    def _kept(self, fn, *args):
        key = (fn, *args)
        cache = self._cache
        if key not in cache:
            cache[key] = fn(self, *args)
        return cache[key]


class Carrier:
    """An ordered tuple of distinct element identifiers.

    The order is semantically irrelevant but fixes the subset enumeration,
    which test fixtures and reported witnesses depend on.
    """

    __slots__ = ("elements", "index", "n", "full_mask")

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("carrier must have at least one element")
        if len(set(elements)) != len(elements):
            raise ValueError("carrier elements must be pairwise distinct")
        if len(elements) > DEFAULT_MAX_CARRIER:
            raise ValueError(f"carrier size {len(elements)} exceeds the cap "
                             f"{DEFAULT_MAX_CARRIER}")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.n = len(elements)
        self.full_mask = (1 << self.n) - 1

    def subset_mask(self, subset):
        """Encode an iterable of elements as a bitmask."""
        mask = 0
        for e in subset:
            mask |= 1 << self.index[e]
        return mask

    def mask_subset(self, mask):
        """Decode a bitmask back to a frozenset of elements."""
        return frozenset(self.elements[i] for i in range(self.n) if mask >> i & 1)

    def __eq__(self, other):
        return isinstance(other, Carrier) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Carrier({list(self.elements)!r})"


class Rel:
    """A binary relation on a carrier, stored as n image masks.

    ``image_masks[i]`` is the mask of {y : (e_i, y) in R}; equality and
    hashing compare the masks, and the pair set is derived on demand.
    ``pair_bits`` packs the relation into one n*n-bit integer: bit i*n + j
    is the pair (e_i, e_j), so containment of two relations is one AND.
    """

    __slots__ = ("carrier", "image_masks", "pair_bits", "_hash")

    def __init__(self, carrier, pairs):
        idx = carrier.index
        masks = [0] * carrier.n
        for x, y in pairs:
            if x not in idx or y not in idx:
                raise ValueError(f"pair ({x!r}, {y!r}) is not over the carrier")
            masks[idx[x]] |= 1 << idx[y]
        self._set(carrier, tuple(masks))

    @classmethod
    def from_masks(cls, carrier, masks):
        """The relation with the given image masks, one per carrier element."""
        masks = tuple(masks)
        if (len(masks) != carrier.n or min(masks) < 0
                or max(masks) > carrier.full_mask):
            raise ValueError("image masks must be n masks over the carrier")
        rel = cls.__new__(cls)
        rel._set(carrier, masks)
        return rel

    def _set(self, carrier, masks):
        n = carrier.n
        self.carrier = carrier
        self.image_masks = masks
        self.pair_bits = sum(m << i * n for i, m in enumerate(masks))
        self._hash = None

    def _ordered_pairs(self):
        """The pairs in (index of x, index of y) order."""
        els = self.carrier.elements
        for i, m in enumerate(self.image_masks):
            while m:
                low = m & -m
                yield els[i], els[low.bit_length() - 1]
                m ^= low

    @property
    def pairs(self):
        """The relation as a frozen set of ordered pairs."""
        return frozenset(self._ordered_pairs())

    @property
    def preimage_masks(self):
        """Per-element predecessor sets: preimage_masks[i] = mask of {x : (x, e_i) in R}."""
        masks = [0] * self.carrier.n
        for i, m in enumerate(self.image_masks):
            bit = 1 << i
            while m:
                low = m & -m
                masks[low.bit_length() - 1] |= bit
                m ^= low
        return tuple(masks)

    def image_mask(self, mask):
        """Successors of any element in `mask`, as a mask."""
        return _join_mask(self.image_masks, mask)

    def contains(self, other):
        _check_same_carrier(self, other)
        return not other.pair_bits & ~self.pair_bits

    def __eq__(self, other):
        return (isinstance(other, Rel)
                and self.image_masks == other.image_masks
                and self.carrier == other.carrier)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.carrier, self.image_masks))
        return self._hash

    def __repr__(self):
        return f"Rel({list(self._ordered_pairs())!r})"

    def _pair_key(self, pair):
        idx = self.carrier.index
        return (idx[pair[0]], idx[pair[1]])


def _join_mask(point_masks, mask):
    """The OR of point_masks[x] over the points x of `mask`: the image of
    one subset under the union-preserving map with those point values
    (the whole table of such images is `proximity._join_table`)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= point_masks[low.bit_length() - 1]
        mask ^= low
    return out


def _check_same_carrier(r, s):
    if r.carrier != s.carrier:
        raise CarrierMismatch("relations live on different carriers")


def diagonal(carrier):
    """The identity relation {(x, x)}."""
    return Rel.from_masks(carrier, (1 << i for i in range(carrier.n)))


def full_relation(carrier):
    """The all-pairs relation X x X."""
    return Rel.from_masks(carrier, (carrier.full_mask,) * carrier.n)


def compose(r, s):
    """Relational composition: {(x, z) : exists y with (x,y) in r and (y,z) in s}."""
    _check_same_carrier(r, s)
    return Rel.from_masks(r.carrier, map(s.image_mask, r.image_masks))


def invert(r):
    """The converse relation {(y, x) : (x, y) in r}."""
    return Rel.from_masks(r.carrier, r.preimage_masks)


def intersect(r, s):
    _check_same_carrier(r, s)
    return Rel.from_masks(r.carrier, map(and_, r.image_masks, s.image_masks))


def least_entourage(u):
    """The first member of the basis u inside every member (the AND of
    their pair bits), or None.  One passing B1-B4 has one, an equivalence."""
    bits = reduce(and_, (eps.pair_bits for eps in u.basis))
    return next((eps for eps in u.basis if eps.pair_bits == bits), None)


def kept_least_entourage(u):
    """`least_entourage(u)`, kept on the basis object u: the basis checks,
    the induced proximity and the uniformity readers all read it."""
    return u._kept(least_entourage)


def required_least_entourage(u):
    """`kept_least_entourage(u)`, refused (`PreconditionFailure`) if None."""
    if (theta := kept_least_entourage(u)) is None:
        raise PreconditionFailure("the basis has no member inside all others")
    return theta
