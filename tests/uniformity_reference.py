"""Earlier basis readers, kept as references for the ones that read the
least entourage.

These are ``induced_topology``, ``refines`` and ``nu_maps`` as they were
before a valid basis was read through its least member
(``setrel.least_entourage``): each quantifies over every listed entourage.
``from_uniformity_reference`` is the earlier table body, the AND over every
member.  The bodies are kept unchanged apart from their names, so that
``test_least_entourage.py`` compares the production code with the
originals.  This is test-only code: nothing under ``src/`` may import it.
"""

from proximity_reference import meets_table_reference

from eqprox.errors import CarrierMismatch, PreconditionFailure
from eqprox.setrel import _join_mask
from eqprox.uniformity import validate_basis


def induced_topology_reference(u):
    """Open sets of the uniformity: A is open iff each a in A has some
    entourage neighborhood eps(a) inside A.  Returned as a tuple of
    frozensets in subset-index order."""
    carrier = u.carrier
    n = carrier.n
    elem_nbhds = []
    for i in range(n):
        elem_nbhds.append(tuple(eps.image_masks[i] for eps in u.basis))
    opens = []
    for a in range(1 << n):
        rest = a
        good = True
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if not any(nb | a == a for nb in elem_nbhds[i]):
                good = False
                break
            rest ^= low
        if good:
            opens.append(carrier.mask_subset(a))
    return tuple(opens)


def refines_reference(u1, u2):
    """True iff u1 is finer: every entourage of u2 contains a basis
    entourage of u1 (so the filter of u2 sits inside the filter of u1)."""
    if u1.carrier != u2.carrier:
        raise CarrierMismatch("bases live on different carriers")
    return all(any(eps.contains(d) for d in u1.basis) for eps in u2.basis)


def from_uniformity_reference(u):
    """The table of every member: near(A, B) iff each meets A x B."""
    return meets_table_reference(u.carrier,
                                 [eps.image_masks for eps in u.basis])


def nu_maps_reference(a, u):
    """The maps defining translate nearness, one list per chain level.

    For level V and entourage eps, VA is near VB iff B meets
    V^{-1} eps(V A).  That map of A is a composite of three
    union-preserving maps (translate, entourage image, level pullback), so
    it is given by its n point values V^{-1} eps(V x), each pulled back
    through the inverse point masks.  The basis must be valid and over the
    action's carrier.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    report = validate_basis(u)
    if not report.ok():
        raise PreconditionFailure(
            f"input basis fails condition {report.failures()[0]}",
            witness=report)
    levels = []
    for li, lem in enumerate(a.masks):
        inv = a.inverse_masks(li)
        levels.append([[_join_mask(inv, eps.image_mask(t)) for t in lem]
                       for eps in u.basis])
    return levels
