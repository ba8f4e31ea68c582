import random
import time
from fractions import Fraction as F

import pytest

from eqprox.errors import DocumentError, InternalCheckFailure, \
    PreconditionFailure
from eqprox.rationals import Chain, NEG_INF, POS_INF, RatSet, \
    _validate_tower, bonding_map, build_tower, check_ordcomp_claim, \
    decide_far, orbit_space, parse_chain, parse_fraction, parse_ratset, \
    saturate, tower_dot


BIG = 10 ** 400


def test_infinity_ordering():
    assert NEG_INF < F(-100) < F(0) < F(100) < POS_INF
    assert not NEG_INF < NEG_INF
    assert POS_INF >= F(5)
    assert sorted([POS_INF, F(1), NEG_INF]) == [NEG_INF, F(1), POS_INF]
    # Past the float range the order stays exact.
    assert NEG_INF < F(-BIG) < F(BIG) < POS_INF
    assert F(BIG) != POS_INF and F(-BIG) != NEG_INF
    assert not POS_INF <= F(BIG) and not F(-BIG) <= NEG_INF
    assert sorted([F(BIG), POS_INF, NEG_INF, F(-BIG)]) == \
        [NEG_INF, F(-BIG), F(BIG), POS_INF]


def test_a_400_digit_endpoint_beside_an_infinite_one():
    # math.isinf(F(BIG)) would raise OverflowError: infinite endpoints are
    # only ever compared.
    below = RatSet.interval(NEG_INF, BIG)
    assert below.atoms == (("iv", NEG_INF, F(BIG)),)
    assert str(below) == f"(-inf,{BIG})"
    assert below.endpoints() == (F(BIG),)
    above = RatSet.interval(-BIG, POS_INF)
    assert str(above) == f"({-BIG},inf)"
    assert above.endpoints() == (F(-BIG),)
    both = parse_ratset(f"({BIG},inf),{{{BIG}}},(-inf,{-BIG})")
    assert str(both) == f"(-inf,{-BIG}),{{{BIG}}},({BIG},inf)"
    assert both.endpoints() == (F(-BIG), F(BIG))
    assert both.components() == ((NEG_INF, False, F(-BIG), False),
                                 (F(BIG), True, POS_INF, False))


def test_normalization_merges_overlaps_and_keeps_adjacency():
    s = RatSet([("iv", F(0), F(1)), ("iv", F(1, 2), F(2))])
    assert s.atoms == (("iv", F(0), F(2)),)
    t = parse_ratset("(0,1),{1},(1,2)")
    assert len(t.atoms) == 3  # the point bridge stays its own atom
    swallowed = RatSet([("iv", F(0), F(1)), ("pt", F(1, 2))])
    assert swallowed.atoms == (("iv", F(0), F(1)),)


def test_parse_three_thousand_points_and_intervals():
    # Each point is located among the merged intervals by bisection, not
    # tested against all of them.
    text = ",".join(f"{{{k}}},({k},{k + 1})" for k in range(3000))
    start = time.perf_counter()
    s = parse_ratset(text)
    assert time.perf_counter() - start < 1.0
    assert len(s.atoms) == 6000
    inside = parse_ratset(text + ",{1/2},{2999/2}")
    assert inside.atoms == s.atoms


def test_semantic_equality_across_representations():
    assert parse_ratset("(0,2)") == parse_ratset("(0,1),{1},(1,2)")
    assert parse_ratset("(0,1),(1,2)") != parse_ratset("(0,2)")
    assert hash(parse_ratset("(0,2)")) == hash(parse_ratset("(0,1),{1},(1,2)"))


def test_subset_and_convexity():
    a = parse_ratset("{0},(0,1),{1}")
    assert a.is_convex
    assert a.issubset(parse_ratset("(-1,2)"))
    assert not parse_ratset("(-1,2)").issubset(a)
    assert not parse_ratset("(0,1),(2,3)").is_convex
    assert parse_ratset("(-inf,0),{0}").is_convex


def test_parse_round_trip_and_errors():
    for text in ("{1/2}", "(0,1)", "(-inf,3/4),{1},(2,inf)", "{}"):
        assert str(parse_ratset(text)) == text
    with pytest.raises(DocumentError):
        parse_ratset("(0,1")
    with pytest.raises(DocumentError):
        parse_ratset("(2,1)")
    with pytest.raises(DocumentError):
        parse_ratset("[0,1]")
    with pytest.raises(DocumentError):
        parse_fraction("1/0")
    with pytest.raises(DocumentError):
        parse_chain("0,1")
    assert parse_chain("{}").points == ()
    assert parse_chain("{1/2, -1}").points == (F(-1), F(1, 2))


# Literals outside the ASCII grammar [+-]?digits[/digits] or a decimal.
# `Fraction` takes the first two on Python 3.11 and later, "1 / 2" on
# 3.12, and the non-ASCII digits and space on every version.
OFF_GRAMMAR = ["1_000", "1/2_0", "\u0661", "\u0663/4", "1 / 2", "\u00a01",
               "1/-2", "--1", "0x10", ".", ""]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_parse_fraction_refuses_literals_off_the_grammar(text):
    with pytest.raises(DocumentError, match="bad rational"):
        parse_fraction(text)


@pytest.mark.parametrize("text, value", [
    ("1/2", F(1, 2)), ("-3/4", F(-3, 4)), ("+7", F(7)), ("007", F(7)),
    ("0.25", F(1, 4)), (".5", F(1, 2)), ("5.", F(5)), ("-.5", F(-1, 2)),
    (" 1/3\t", F(1, 3)),
])
def test_parse_fraction_reads_the_grammar(text, value):
    assert parse_fraction(text) == value


def test_orbit_space_shapes():
    two = orbit_space(Chain((F(0), F(1))))
    assert two.labels() == ("(-inf,0)", "{0}", "(0,1)", "{1}", "(1,inf)")
    assert orbit_space(Chain(())).labels() == ("(-inf,inf)",)
    rng = random.Random(4)
    for _ in range(40):
        pts = sorted({F(rng.randint(-20, 20), rng.randint(1, 5))
                      for _ in range(rng.randint(0, 10))})
        chain = Chain(tuple(pts))
        assert len(orbit_space(chain).cells) == 2 * len(chain) + 1


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain((F(1), F(0)))
    assert Chain.of([F(1), F(0), F(1)]).points == (F(0), F(1))


def test_bonding_map_examples():
    f = Chain((F(0), F(1)))
    assert bonding_map(f, f) == (0, 1, 2, 3, 4)
    assert bonding_map(f, Chain((F(0),))) == (0, 1, 2, 2, 2)
    with pytest.raises(PreconditionFailure):
        bonding_map(Chain((F(0),)), f)


def test_bonding_functoriality_exhaustive_over_small_grid():
    pts = [F(0), F(1), F(2)]
    chains = [Chain(tuple(c)) for k in range(4)
              for c in __import__("itertools").combinations(pts, k)]
    for big in chains:
        for mid in chains:
            for small in chains:
                if not set(small.points) <= set(mid.points) <= \
                        set(big.points):
                    continue
                direct = bonding_map(big, small)
                step1 = bonding_map(big, mid)
                step2 = bonding_map(mid, small)
                assert direct == tuple(step2[c] for c in step1)


def test_saturate_examples():
    assert saturate(Chain((F(1, 2),)), RatSet()).is_empty
    assert saturate(Chain((F(1, 2),)), RatSet.point(0)) == \
        RatSet.interval(NEG_INF, F(1, 2))
    f01 = Chain((F(0), F(1)))
    assert saturate(f01, RatSet.interval(0, 1)) == RatSet.interval(0, 1)
    assert saturate(f01, RatSet.interval(1, 2)) == RatSet.interval(1, POS_INF)


def test_saturation_monotonicity_random():
    rng = random.Random(12)
    for _ in range(300):
        pts = sorted({F(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(rng.randint(0, 5))})
        big = Chain(tuple(pts))
        small = Chain(tuple(p for p in pts if rng.random() < 0.5))
        atoms = []
        for _ in range(rng.randint(0, 3)):
            x = F(rng.randint(-8, 8), rng.randint(1, 3))
            if rng.random() < 0.5:
                atoms.append(("pt", x))
            else:
                atoms.append(("iv", x, x + rng.randint(1, 3)))
        a = RatSet(atoms)
        assert saturate(big, a).issubset(saturate(small, a))


def test_decide_far_spec_fixtures():
    v = decide_far(RatSet.point(0), RatSet.point(1))
    assert v.far and v.witness == Chain((F(0),))
    assert not decide_far(RatSet.interval(0, 1),
                          RatSet.interval(F(1, 2), 2)).far
    v2 = decide_far(RatSet.interval(0, 1), RatSet.point(1))
    assert v2.far and v2.witness == Chain((F(1),))
    v3 = decide_far(RatSet.interval(0, 1), RatSet.interval(1, 2))
    assert v3.far
    assert not saturate(v3.witness, RatSet.interval(0, 1)).intersects(
        saturate(v3.witness, RatSet.interval(1, 2)))


def test_decide_far_empty_sets_are_far():
    v = decide_far(RatSet(), RatSet.point(0))
    assert v.far and v.witness == Chain(())


def test_build_tower_counts_and_threads():
    t = build_tower([Chain(()), Chain((F(0),)), Chain((F(1),)),
                     Chain((F(0), F(1)))])
    assert [len(orbit_space(c).cells) for c in t.levels] == [1, 3, 3, 5]
    t2 = build_tower([Chain(()), Chain((F(0),)), Chain((F(0), F(1)))])
    assert len(t2.threads()) == 5


def test_build_tower_computes_directed_closure():
    t = build_tower([Chain((F(0),)), Chain((F(1),))])
    assert Chain((F(0), F(1))) in t.levels


@pytest.mark.parametrize("bad, message", [
    ((0, 0, 0, 0, 0, 0, 0), "bonding {0,1,2} -> {0,1} is not surjective"),
    ((0, 1, 3, 2, 4, 4, 4), "bonding {0,1,2} -> {0,1} is not monotone"),
    ((0, 0, 1, 2, 3, 4, 4), "bonding maps do not compose through {0,1}"),
])
def test_validate_tower_traps_on_corrupted_maps(bad, message):
    # Levels {0} < {0,1} < {0,1,2}; the true map {0,1,2} -> {0,1} is
    # (0, 1, 2, 3, 4, 4, 4).  The third corruption is onto and monotone,
    # so only the composition with {0,1} -> {0} can catch it.
    tower = build_tower([Chain((F(0),)), Chain((F(0), F(1))),
                         Chain((F(0), F(1), F(2)))])
    assert tower.maps[(2, 1)] == (0, 1, 2, 3, 4, 4, 4)
    _validate_tower(tower.levels, tower.maps)
    maps = dict(tower.maps)
    maps[(2, 1)] = bad
    with pytest.raises(InternalCheckFailure) as info:
        _validate_tower(tower.levels, maps)
    assert str(info.value) == message


def test_tower_dot_grammar():
    t = build_tower([Chain(()), Chain((F(0),))])
    dot = tower_dot(t)
    assert dot.startswith("digraph tower {")
    assert 'label="(-inf,0)"' in dot
    assert 'label="{0}"' in dot
    assert '[label="{0}"];' in dot
    assert '-> "L0_0" [label="{0}"]' in dot
    assert dot.count("subgraph cluster_") == 2


def test_claim_spec_fixtures():
    a = parse_ratset("{0},(0,1),{1}")
    r = check_ordcomp_claim(a, parse_ratset("(-1,2)"))
    assert not r.alarm
    assert saturate(r.witness, a).issubset(parse_ratset("(-1,2)"))
    # The endpoint chain of the target is itself always a valid witness.
    assert saturate(Chain((F(-1), F(2))), a).issubset(parse_ratset("(-1,2)"))
    r2 = check_ordcomp_claim(RatSet.point(0), RatSet.interval(NEG_INF, POS_INF))
    assert r2.witness == Chain(())
    r3 = check_ordcomp_claim(RatSet.point(0), parse_ratset("(-inf,0),{0}"))
    assert r3.witness == Chain((F(0),))


def test_claim_preconditions():
    with pytest.raises(PreconditionFailure):
        check_ordcomp_claim(RatSet.point(0), parse_ratset("(0,1),(2,3)"))
    with pytest.raises(PreconditionFailure):
        check_ordcomp_claim(RatSet.point(5), parse_ratset("(0,1)"))


def test_endpoint_chain_saturates_disjoint_sets_to_themselves():
    # The lemma that makes decide_far's endpoint search complete: each set
    # is a union of cells of the chain of all endpoints, so that chain
    # saturates it to itself and separates disjoint sets.
    rng = random.Random(77)
    checked = 0
    for _ in range(400):
        atoms_a, atoms_b = [], []
        for atoms in (atoms_a, atoms_b):
            for _ in range(rng.randint(1, 2)):
                x = F(rng.randint(-4, 4), rng.randint(1, 2))
                if rng.random() < 0.5:
                    atoms.append(("pt", x))
                else:
                    atoms.append(("iv", x, x + 1))
        a, b = RatSet(atoms_a), RatSet(atoms_b)
        if a.intersects(b):
            continue
        checked += 1
        full = Chain.of(a.endpoints() + b.endpoints())
        assert saturate(full, a) == a and saturate(full, b) == b
        assert decide_far(a, b).far
    assert checked > 50


def test_decide_far_traps_an_endpoint_chain_that_does_not_separate(
        monkeypatch):
    monkeypatch.setattr("eqprox.rationals._cells_hit",
                        lambda points, s: set(range(2 * len(points) + 1)))
    with pytest.raises(InternalCheckFailure, match="does not separate"):
        decide_far(RatSet.point(0), RatSet.point(1))


def test_decide_far_traps_a_witness_that_saturate_rejects(monkeypatch):
    everything = RatSet.interval(NEG_INF, POS_INF)
    monkeypatch.setattr("eqprox.rationals.saturate",
                        lambda chain, ratset: everything)
    with pytest.raises(InternalCheckFailure,
                       match="^witness re-verification failed$"):
        decide_far(RatSet.point(0), RatSet.point(1))


def test_claim_traps_a_witness_that_saturate_rejects(monkeypatch):
    everything = RatSet.interval(NEG_INF, POS_INF)
    monkeypatch.setattr("eqprox.rationals.saturate",
                        lambda chain, ratset: everything)
    with pytest.raises(InternalCheckFailure,
                       match="^witness re-verification failed$"):
        check_ordcomp_claim(RatSet.point(0), parse_ratset("(-1,1)"))
