import random
from itertools import combinations

import pytest

from eqprox.errors import CarrierMismatch
from eqprox.proximity import from_uniformity, check_axioms
from eqprox.setrel import Carrier, Rel, diagonal, full_relation
from eqprox.suite import basis_pool
from eqprox.uniformity import UnifBase, _min_small_cover, _small_sets, \
    basis_intersection, discrete_basis, indiscrete_basis, induced_topology, \
    is_hausdorff, refinement_equivalent, refines, totally_bounded, \
    validate_basis


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


def brute_min_cover_size(eps):
    """Oracle: exact minimum cover by eps-small sets via combinations."""
    c = eps.carrier
    els = c.elements
    small = []
    for m in range(1, 1 << c.n):
        s = c.mask_subset(m)
        if all((x, y) in eps.pairs for x in s for y in s):
            small.append(m)
    full = c.full_mask
    for k in range(1, c.n + 1):
        for combo in combinations(small, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    return None


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


def test_totally_bounded_trivial_covers():
    c = Carrier(range(3))
    ok, covers = totally_bounded(discrete_basis(c))
    assert ok and len(covers[0]) == 3
    ok, covers = totally_bounded(indiscrete_basis(c))
    assert ok and covers[0] == (frozenset(c.elements),)


def test_totally_bounded_minimal_cover_matches_brute_force():
    c = Carrier(range(4))
    inner = Rel(c, [(x, y) for x in c.elements for y in c.elements
                    if x == y or {x, y} == {0, 1} or {x, y} == {2, 3}])
    u = UnifBase(c, [full_relation(c), inner])
    assert validate_basis(u).ok()
    ok, covers = totally_bounded(u)
    assert ok
    for k, eps in enumerate(u.basis):
        assert len(covers[k]) == brute_min_cover_size(eps)
        for part in covers[k]:
            assert all((x, y) in eps.pairs for x in part for y in part)
        assert frozenset().union(*covers[k]) == frozenset(c.elements)


def small_sets_by_pairwise_filter(eps):
    """The maximal eps-small sets, by testing every small set against every
    other one for a strict superset."""
    n = eps.carrier.n
    small = [a for a in range(1, 1 << n)
             if all(a & ~eps.image_masks[x] == 0
                    for x in range(n) if a >> x & 1)]
    return [a for a in small if not any(b != a and b | a == b for b in small)]


def test_maximal_small_sets_match_pairwise_filter():
    rng = random.Random(5)
    for n in range(1, 6):
        c = Carrier(range(n))
        entourages = {eps for u in basis_pool(c, rng) for eps in u.basis}
        # Non-reflexive relations too: points without a loop are in no
        # small set.
        entourages.update(
            Rel(c, [(x, y) for x in range(n) for y in range(n)
                     if rng.random() < 0.6]) for _ in range(10))
        for eps in entourages:
            assert _small_sets(eps) == small_sets_by_pairwise_filter(eps)


def test_indiscrete_twelve_points_has_one_maximal_small_set():
    c = Carrier(range(12))
    eps = full_relation(c)
    assert _small_sets(eps) == [c.full_mask]
    assert _min_small_cover(eps) == (frozenset(c.elements),)
