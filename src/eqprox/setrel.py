"""Finite carriers and extensional binary relations.

Everything downstream (entourages, proximities, orbit translates) reduces to
boolean algebra over subsets of a small finite carrier.  Subsets are encoded
as bitmasks, little-endian in the carrier's element order: bit i of a mask
stands for ``elements[i]``, so subset k of ``2**n`` is the same set on every
run.  Relations are stored extensionally as frozen pair sets; equality is
extensional by construction.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CarrierMismatch

DEFAULT_MAX_CARRIER = 12


class Carrier:
    """An ordered tuple of distinct element identifiers.

    The order is semantically irrelevant but fixes the subset enumeration,
    which test fixtures and reported witnesses depend on.
    """

    __slots__ = ("elements", "index", "__dict__")

    def __init__(self, elements, max_size=DEFAULT_MAX_CARRIER):
        elements = tuple(elements)
        if not elements:
            raise ValueError("carrier must have at least one element")
        if len(set(elements)) != len(elements):
            raise ValueError("carrier elements must be pairwise distinct")
        if len(elements) > max_size:
            raise ValueError(
                f"carrier size {len(elements)} exceeds the cap {max_size}")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}

    @property
    def n(self):
        return len(self.elements)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def subset_mask(self, subset):
        """Encode an iterable of elements as a bitmask."""
        mask = 0
        for e in subset:
            mask |= 1 << self.index[e]
        return mask

    def mask_subset(self, mask):
        """Decode a bitmask back to a frozenset of elements."""
        return frozenset(self.elements[i] for i in range(self.n) if mask >> i & 1)

    def subsets(self):
        """All subsets in the fixed enumeration order (index 0 is empty)."""
        for mask in range(1 << self.n):
            yield self.mask_subset(mask)

    def __eq__(self, other):
        return isinstance(other, Carrier) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Carrier({list(self.elements)!r})"


class Rel:
    """A binary relation on a carrier, stored as a frozen set of ordered pairs."""

    __slots__ = ("carrier", "pairs", "__dict__")

    def __init__(self, carrier, pairs):
        pairs = frozenset(pairs)
        for x, y in pairs:
            if x not in carrier.index or y not in carrier.index:
                raise ValueError(f"pair ({x!r}, {y!r}) is not over the carrier")
        self.carrier = carrier
        self.pairs = pairs

    @cached_property
    def image_masks(self):
        """Per-element successor sets: image_masks[i] = mask of {y : (e_i, y) in R}."""
        idx = self.carrier.index
        masks = [0] * self.carrier.n
        for x, y in self.pairs:
            masks[idx[x]] |= 1 << idx[y]
        return tuple(masks)

    @cached_property
    def preimage_masks(self):
        """Per-element predecessor sets: preimage_masks[i] = mask of {x : (x, e_i) in R}."""
        idx = self.carrier.index
        masks = [0] * self.carrier.n
        for x, y in self.pairs:
            masks[idx[y]] |= 1 << idx[x]
        return tuple(masks)

    @cached_property
    def pair_bits(self):
        """The relation packed into one n*n-bit integer: bit i*n + j is the
        pair (e_i, e_j), so containment of two relations is one AND."""
        n = self.carrier.n
        bits = 0
        for i, m in enumerate(self.image_masks):
            bits |= m << i * n
        return bits

    def image_mask(self, mask):
        """Mask form of image_of_set: successors of any element in `mask`."""
        out = 0
        imgs = self.image_masks
        while mask:
            low = mask & -mask
            out |= imgs[low.bit_length() - 1]
            mask ^= low
        return out

    def contains(self, other):
        _check_same_carrier(self, other)
        return other.pairs <= self.pairs

    def __eq__(self, other):
        return (isinstance(other, Rel) and self.carrier == other.carrier
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.carrier, self.pairs))

    def __repr__(self):
        pairs = sorted(self.pairs, key=self._pair_key)
        return f"Rel({pairs!r})"

    def _pair_key(self, pair):
        idx = self.carrier.index
        return (idx[pair[0]], idx[pair[1]])


def _check_same_carrier(r, s):
    if r.carrier != s.carrier:
        raise CarrierMismatch("relations live on different carriers")


def diagonal(carrier):
    """The identity relation {(x, x)}."""
    return Rel(carrier, ((e, e) for e in carrier.elements))


def full_relation(carrier):
    """The all-pairs relation X x X."""
    els = carrier.elements
    return Rel(carrier, ((x, y) for x in els for y in els))


def compose(r, s):
    """Relational composition: {(x, z) : exists y with (x,y) in r and (y,z) in s}."""
    _check_same_carrier(r, s)
    carrier = r.carrier
    els = carrier.elements
    s_imgs = s.image_masks
    pairs = set()
    for i in range(carrier.n):
        out = r.image_masks[i]
        z_mask = 0
        while out:
            low = out & -out
            z_mask |= s_imgs[low.bit_length() - 1]
            out ^= low
        x = els[i]
        while z_mask:
            low = z_mask & -z_mask
            pairs.add((x, els[low.bit_length() - 1]))
            z_mask ^= low
    return Rel(carrier, pairs)


def invert(r):
    """The converse relation {(y, x) : (x, y) in r}."""
    return Rel(r.carrier, ((y, x) for x, y in r.pairs))


def image_of_set(r, subset):
    """Union of successor sets over `subset`: {y : exists a in subset, (a,y) in r}."""
    carrier = r.carrier
    return carrier.mask_subset(r.image_mask(carrier.subset_mask(subset)))


def intersect(r, s):
    _check_same_carrier(r, s)
    return Rel(r.carrier, r.pairs & s.pairs)


def union(r, s):
    _check_same_carrier(r, s)
    return Rel(r.carrier, r.pairs | s.pairs)


def map_rel(r, perm):
    """Push a relation forward along a carrier permutation given as an element map."""
    return Rel(r.carrier, ((perm[x], perm[y]) for x, y in r.pairs))
