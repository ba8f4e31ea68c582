import random

import pytest

from eqprox.errors import CarrierMismatch
from eqprox.setrel import Carrier, Rel, _join_mask, compose, diagonal, \
    full_relation, invert


def brute_compose(r, s):
    """Oracle: enumerate all triples."""
    els = r.carrier.elements
    return {(x, z) for x in els for z in els
            if any((x, y) in r.pairs and (y, z) in s.pairs for y in els)}


def random_rel(carrier, rng, p=0.4):
    els = carrier.elements
    return Rel(carrier, ((x, y) for x in els for y in els if rng.random() < p))


def test_carrier_validation(monkeypatch):
    with pytest.raises(ValueError):
        Carrier([])
    with pytest.raises(ValueError):
        Carrier([1, 1, 2])
    with pytest.raises(ValueError, match="^carrier size 13 exceeds the cap 12$"):
        Carrier(range(13))
    monkeypatch.setattr("eqprox.setrel.DEFAULT_MAX_CARRIER", 13)
    Carrier(range(13))


def test_subset_indexing_is_little_endian():
    c = Carrier(["a", "b", "c"])
    assert c.subset_mask({"a"}) == 1
    assert c.subset_mask({"c"}) == 4
    assert c.mask_subset(5) == frozenset({"a", "c"})
    assert c.mask_subset(0) == frozenset()
    assert c.mask_subset(3) == frozenset({"a", "b"})


def test_rel_rejects_foreign_pairs():
    c = Carrier([0, 1])
    with pytest.raises(ValueError):
        Rel(c, [(0, 7)])


def test_compose_identity_and_example():
    c = Carrier(["a", "b", "c"])
    d = diagonal(c)
    r = Rel(c, [("a", "b")])
    s = Rel(c, [("b", "c")])
    assert compose(d, r) == r
    assert compose(r, d) == r
    assert compose(r, s).pairs == {("a", "c")}


def test_compose_matches_brute_force():
    c = Carrier(range(4))
    rng = random.Random(11)
    for _ in range(60):
        r, s = random_rel(c, rng), random_rel(c, rng)
        assert compose(r, s).pairs == brute_compose(r, s)


def test_compose_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        compose(diagonal(Carrier([0])), diagonal(Carrier([1])))


def test_invert_is_involution_and_antihomomorphism():
    c = Carrier(range(3))
    d = diagonal(c)
    assert invert(d) == d
    assert invert(Rel(c, [(0, 1)])).pairs == {(1, 0)}
    rng = random.Random(5)
    for _ in range(40):
        r, s = random_rel(c, rng), random_rel(c, rng)
        assert invert(invert(r)) == r
        assert invert(compose(r, s)) == compose(invert(s), invert(r))


def test_compose_associativity():
    c = Carrier(range(4))
    rng = random.Random(7)
    for _ in range(30):
        r, s, t = (random_rel(c, rng, 0.3) for _ in range(3))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_image_of_set():
    c = Carrier(["a", "b", "c"])
    a, b, cc = 1, 2, 4  # the masks of {"a"}, {"b"} and {"c"}
    assert diagonal(c).image_mask(a | cc) == a | cc
    assert full_relation(c).image_mask(a) == c.full_mask
    r = Rel(c, [("a", "b"), ("b", "c")])
    assert r.image_mask(a | b) == b | cc
    assert r.image_mask(0) == 0


def test_image_distributes_over_union():
    c = Carrier(range(4))
    rng = random.Random(3)
    for _ in range(40):
        r = random_rel(c, rng)
        a = rng.getrandbits(c.n)
        b = rng.getrandbits(c.n)
        assert r.image_mask(a | b) == r.image_mask(a) | r.image_mask(b)


def test_rel_equality_is_extensional():
    c = Carrier(range(2))
    assert Rel(c, [(0, 1), (0, 1)]) == Rel(c, [(0, 1)])
    assert Rel(c, [(0, 1)]) != Rel(c, [(1, 0)])


def test_pair_bits_matches_brute_force():
    rng = random.Random(7)
    for n in range(1, 7):
        c = Carrier([f"e{i}" for i in range(n)])
        els = c.elements
        for p in (0.0, 0.3, 0.7, 1.0):
            r = random_rel(c, rng, p)
            bits = r.pair_bits
            assert bits >> n * n == 0
            for i in range(n):
                for j in range(n):
                    assert (bits >> i * n + j & 1) == \
                        ((els[i], els[j]) in r.pairs)



def test_join_mask_is_the_union_of_point_sets():
    # Every tuple of point masks over three points, then random ones up to
    # six points, against the union of Python sets.
    def union(points, mask):
        return set().union(*({y for y in range(8) if points[x] >> y & 1}
                             for x in range(len(points)) if mask >> x & 1))

    tuples = [(p0, p1, p2) for p0 in range(8) for p1 in range(8)
              for p2 in range(8)]
    rng = random.Random(22)
    tuples += [tuple(rng.getrandbits(6) for _ in range(n))
               for n in range(7) for _ in range(20)]
    for points in tuples:
        for mask in range(1 << len(points)):
            expected = sum(1 << y for y in union(points, mask))
            assert _join_mask(points, mask) == expected, (points, mask)
