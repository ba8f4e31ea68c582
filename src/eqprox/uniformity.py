"""Entourage bases for uniformities on a finite carrier.

A uniformity is represented only by a finite basis of entourages, never by
the generated filter.  A valid basis has a least member θ, which the
topology and refinement read alone.  The four basis conditions checked are:

  B1  every entourage contains the diagonal
  B2  every entourage's converse contains a basis entourage
  B3  any two entourages' intersection contains a basis entourage
  B4  every entourage contains the square of a basis entourage
"""

from __future__ import annotations

from functools import reduce

from . import setrel
from .errors import CarrierMismatch
from .proximity import AxiomReport


class UnifBase(setrel.Memo):
    """A nonempty list of entourages.  Stored unvalidated so that broken
    bases can serve as negative fixtures; run validate_basis to check.
    The functions that read a basis keep their results on it (`_kept`)."""

    __slots__ = ("carrier", "basis", "_hash")

    def __init__(self, carrier, basis):
        basis = tuple(basis)
        if not basis:
            raise ValueError("entourage basis must be nonempty")
        for eps in basis:
            if eps.carrier != carrier:
                raise CarrierMismatch("entourage is not over the stated carrier")
        self.carrier = carrier
        self.basis = basis
        self._hash = None
        super().__init__()

    def __eq__(self, other):
        # Listwise equality only; semantic equality is refinement_equivalent.
        return (isinstance(other, UnifBase) and self.carrier == other.carrier
                and self.basis == other.basis)

    def __hash__(self):
        # Cached: germ caches look bases up by value on every call.
        if self._hash is None:
            self._hash = hash((self.carrier, self.basis))
        return self._hash

    def __repr__(self):
        return f"UnifBase({len(self.basis)} entourages, n={self.carrier.n})"


def discrete_basis(carrier):
    """{diagonal}: the finest uniformity on a finite carrier."""
    return UnifBase(carrier, [setrel.diagonal(carrier)])


def indiscrete_basis(carrier):
    """{X x X}: the coarsest uniformity."""
    return UnifBase(carrier, [setrel.full_relation(carrier)])


def validate_basis(u):
    """Check the four basis conditions; failures carry the offending entourages.

    A finite list passes B1-B4 iff it has a least member θ and θ is an
    equivalence: B3 gives a member inside any two, so by induction one
    inside all, and B1, B2 and B4 at θ make it reflexive, symmetric and
    transitive; conversely every member contains θ = θ∘θ = θ^{-1}.  So a
    list with such a θ (`setrel.kept_least_entourage`) passes after three
    tests on θ.  Any other list runs one scan over its members in index
    order that names the first witness of each condition, with entourages
    compared as packed pair bits (`Rel.pair_bits`), one AND per
    containment test: r² tests each for B2, B3 and B4.  The report is
    kept on the basis object, so each basis is checked once.
    """
    return u._kept(_basis_report)


def _basis_report(u):
    """The report that `validate_basis` keeps."""
    results = dict.fromkeys(("B1", "B2", "B3", "B4"), (True, None))
    theta = setrel.kept_least_entourage(u)
    if theta is not None and _is_equivalence(theta):
        return AxiomReport(results)
    n = u.carrier.n
    basis = u.basis
    bits = [eps.pair_bits for eps in basis]
    diag = _diagonal_bits(n)
    for k, b in enumerate(bits):
        missing = diag & ~b
        if missing:
            i = ((missing & -missing).bit_length() - 1) // (n + 1)
            x = u.carrier.elements[i]
            results["B1"] = (False, (k, (x, x)))
            break

    k = _first_uncovered((setrel.invert(eps).pair_bits for eps in basis),
                         bits)
    if k is not None:
        results["B2"] = (False, (k,))

    # b ∩ c holds a member iff some member lies inside both.
    inside = [sum(1 << d for d, part in enumerate(bits) if not part & ~b)
              for b in bits]
    results["B3"] = next(((False, (i, j))
                          for i, a in enumerate(inside)
                          for j, c in enumerate(inside) if not a & c),
                         (True, None))

    k = _first_uncovered(bits, [setrel.compose(d, d).pair_bits
                                for d in basis])
    if k is not None:
        results["B4"] = (False, (k,))

    return AxiomReport(results)


def _diagonal_bits(n):
    """The diagonal of n points as pair bits."""
    return sum(1 << i * (n + 1) for i in range(n))


def _is_equivalence(theta):
    """Whether the relation theta is reflexive, symmetric and transitive:
    one test each, as pair bits."""
    b = theta.pair_bits
    return (not _diagonal_bits(theta.carrier.n) & ~b
            and setrel.invert(theta).pair_bits == b
            and not setrel.compose(theta, theta).pair_bits & ~b)


def _first_uncovered(targets, parts):
    """Index of the first target bit set that contains none of the parts,
    or None; targets may be a lazy iterable."""
    return next((k for k, t in enumerate(targets)
                 if all(map((~t).__and__, parts))), None)


def induced_topology(u):
    """Open sets of the uniformity, frozensets in subset-index order: A is
    open iff each a in A has some eps(a) inside A, that is, θ(A) ⊆ A."""
    theta = setrel.required_least_entourage(u)
    return tuple(u.carrier.mask_subset(a) for a in range(1 << u.carrier.n)
                 if theta.image_mask(a) | a == a)


def refines(u1, u2):
    """True iff u1 is finer: every entourage of u2 contains the least
    entourage θ of u1 (so the filter of u2 sits inside that of u1)."""
    if u1.carrier != u2.carrier:
        raise CarrierMismatch("bases live on different carriers")
    theta = setrel.required_least_entourage(u1)
    return all(eps.contains(theta) for eps in u2.basis)


def refinement_equivalent(u1, u2):
    """Whether the bases refine each other: they generate one uniformity."""
    return refines(u1, u2) and refines(u2, u1)


def basis_intersection(u):
    """The intersection of all basis entourages (the smallest filter element)."""
    return reduce(setrel.intersect, u.basis)


def is_hausdorff(u):
    """Separation criterion: the basis intersection is exactly the diagonal."""
    return basis_intersection(u) == setrel.diagonal(u.carrier)
