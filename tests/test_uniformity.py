import random

import pytest

from eqprox.errors import CarrierMismatch
from eqprox.proximity import from_uniformity, check_axioms
from eqprox.setrel import Carrier, Rel, diagonal, full_relation
from eqprox.uniformity import UnifBase, basis_intersection, discrete_basis, \
    indiscrete_basis, induced_topology, is_hausdorff, refinement_equivalent, \
    refines, validate_basis


def brute_open_sets(u):
    """Oracle: test the defining condition on every subset, straight from
    the pair sets."""
    c = u.carrier
    out = set()
    for m in range(1 << c.n):
        a = c.mask_subset(m)
        if all(any(all(y in a for (xx, y) in eps.pairs if xx == x)
                   for eps in u.basis) for x in a):
            out.add(a)
    return out


def test_validate_trivial_bases():
    c = Carrier(range(3))
    assert validate_basis(discrete_basis(c)).ok()
    assert validate_basis(indiscrete_basis(c)).ok()


def test_validate_missing_inverse():
    c = Carrier(["a", "b", "c"])
    eps = Rel(c, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")])
    rep = validate_basis(UnifBase(c, [eps]))
    assert not rep.passed("B2")
    assert rep.passed("B1")
    assert rep.passed("B4")  # eps composed with itself stays inside eps


def test_validate_missing_diagonal():
    c = Carrier(range(2))
    eps = Rel(c, [(0, 0)])
    rep = validate_basis(UnifBase(c, [eps]))
    assert not rep.passed("B1")
    k, pair = rep.counterexample("B1")
    assert k == 0 and pair == (1, 1)


def test_validate_intersection_condition():
    c = Carrier(range(2))
    e1 = Rel(c, [(0, 0), (1, 1), (0, 1), (1, 0)])
    # Two incomparable entourages with no common refinement in the basis.
    f1 = Rel(c, [(0, 0), (1, 1), (0, 1)])
    f2 = Rel(c, [(0, 0), (1, 1), (1, 0)])
    rep = validate_basis(UnifBase(c, [e1, f1, f2]))
    assert not rep.passed("B3")


def test_induced_topology_trivial_cases():
    c = Carrier(range(3))
    assert len(induced_topology(discrete_basis(c))) == 8
    assert set(induced_topology(indiscrete_basis(c))) == {
        frozenset(), frozenset(c.elements)}


def test_induced_topology_matches_brute_force():
    c = Carrier(range(3))
    nested_outer = full_relation(c)
    nested_inner = Rel(c, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    u = UnifBase(c, [nested_outer, nested_inner])
    assert validate_basis(u).ok()
    tops = set(induced_topology(u))
    assert tops == brute_open_sets(u)
    # Closed under union and finite intersection.
    for a in tops:
        for b in tops:
            assert a | b in tops
            assert a & b in tops


def test_topology_invariant_under_refinement_equivalence():
    c = Carrier(range(3))
    u1 = UnifBase(c, [diagonal(c)])
    u2 = UnifBase(c, [diagonal(c), full_relation(c)])
    assert refinement_equivalent(u1, u2)
    assert set(induced_topology(u1)) == set(induced_topology(u2))


def test_refines():
    c = Carrier(range(3))
    d, i = discrete_basis(c), indiscrete_basis(c)
    assert refines(d, d)
    assert refines(d, i)
    assert not refines(i, d)
    with pytest.raises(CarrierMismatch):
        refines(d, discrete_basis(Carrier(range(2))))


def test_mutual_refinement_gives_equal_proximity():
    c = Carrier(range(3))
    rng = random.Random(23)
    els = c.elements
    for _ in range(20):
        eps = Rel(c, [(x, y) for x in els for y in els
                      if x == y or rng.random() < 0.5])
        u1 = UnifBase(c, [diagonal(c), eps])
        u2 = UnifBase(c, [eps, diagonal(c), full_relation(c)])
        assert refinement_equivalent(u1, u2)
        assert from_uniformity(u1) == from_uniformity(u2)


def test_hausdorff_criterion_matches_p6():
    c = Carrier(range(3))
    blocked = Rel(c, [(x, y) for x in c.elements for y in c.elements
                      if x == y or {x, y} == {0, 1}])
    for u in (discrete_basis(c), indiscrete_basis(c),
              UnifBase(c, [blocked])):
        if not validate_basis(u).ok():
            continue
        rep = check_axioms(from_uniformity(u))
        assert rep.passed("P6") == is_hausdorff(u)
    assert basis_intersection(discrete_basis(c)) == diagonal(c)
