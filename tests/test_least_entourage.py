"""`setrel.least_entourage` and the basis readers that read it.

Brute force: every list of one to three relations on one and two points
(14 and 4,368 lists), valid or not, and seeded lists on three and four
points.  The primitive must be the first member inside every member,
read from the pair sets; `from_uniformity` must say near(A, B) exactly
when every member meets A x B; `refines` and `induced_topology` must
return what the earlier bodies in `uniformity_reference.py` return
wherever the list has a least member, and raise `PreconditionFailure`
elsewhere.

Differential: every basis `iter_family(max_n=5, seed=0)` yields, every
derived basis `compute_ug` builds from it, and every fixture basis, valid
or not.  Each valid one has a least member, and the table, the topology,
refinement both ways against the derived basis and each level's `nu` map
agree with the earlier bodies.
"""

import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from equivariant_reference import validate_basis_reference
from proximity_reference import meets_table_reference
from uniformity_reference import from_uniformity_reference, \
    induced_topology_reference, nu_maps_reference, refines_reference

from eqprox import equivariant, setrel
from eqprox.document import load_instance
from eqprox.equivariant import compute_ug, nu_proximity
from eqprox.errors import DocumentError, InternalCheckFailure, \
    PreconditionFailure
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, \
    saturate_uniformity
from eqprox.metricprox import metric_uniformity
from eqprox.proximity import from_uniformity, meets_table
from eqprox.setrel import Carrier, Rel, least_entourage
from eqprox.suite import basis_pool, iter_family, run_suite
from eqprox.uniformity import UnifBase, discrete_basis, indiscrete_basis, \
    induced_topology, refinement_equivalent, refines, validate_basis

FIXTURES = Path(__file__).parent / "fixtures"


def every_relation(carrier):
    n = carrier.n
    return [Rel.from_masks(carrier, masks)
            for masks in product(range(1 << n), repeat=n)]


def every_small_list():
    """Every list of one to three relations on one and on two points."""
    out = []
    for n in (1, 2):
        carrier = Carrier(range(n))
        rels = every_relation(carrier)
        for k in (1, 2, 3):
            out.extend(UnifBase(carrier, combo)
                       for combo in product(rels, repeat=k))
    return out


def seeded_lists(rng, n, count):
    """Lists of one to four relations on n points: half drawn at random,
    half a random relation and random relations above it, shuffled, so
    that both outcomes of the primitive are common."""
    carrier = Carrier(range(n))
    full = carrier.full_mask
    out = []
    for k in range(count):
        size = rng.randint(1, 4)
        if k % 2:
            masks = [[rng.randint(0, full) for _ in range(n)]
                     for _ in range(size)]
        else:
            low = [rng.randint(0, full) for _ in range(n)]
            masks = [low] + [[m | rng.randint(0, full) for m in low]
                             for _ in range(size - 1)]
            rng.shuffle(masks)
        out.append(UnifBase(carrier, [Rel.from_masks(carrier, m)
                                      for m in masks]))
    return out


SMALL = every_small_list()
SEEDED = [u for n in (3, 4) for u in seeded_lists(random.Random(n), n, 300)]


def literal_least(u):
    """The first member whose pairs lie in every member's pairs."""
    return next((r for r in u.basis
                 if all(r.pairs <= s.pairs for s in u.basis)), None)


def literal_rows(u):
    """near(A, B) iff every member holds a pair (x, y), x in A, y in B."""
    c = u.carrier
    subsets = [c.mask_subset(m) for m in range(1 << c.n)]
    return tuple(sum(1 << bm for bm, b in enumerate(subsets)
                     if all(any(x in a and y in b for x, y in eps.pairs)
                            for eps in u.basis))
                 for a in subsets)


def is_reflexive(r):
    return all((x, x) in r.pairs for x in r.carrier.elements)


def is_symmetric(r):
    return all((y, x) in r.pairs for x, y in r.pairs)


def is_transitive(r):
    return all((x, z) in r.pairs for x, y in r.pairs
               for w, z in r.pairs if y == w)


def least_kind(u):
    """How the list's least member fails to be an equivalence, read from
    the pair sets: "none" without a least member, else the first of
    "not reflexive", "not symmetric", "not transitive", or "equivalence"."""
    least = literal_least(u)
    if least is None:
        return "none"
    for kind, holds in (("not reflexive", is_reflexive),
                        ("not symmetric", is_symmetric),
                        ("not transitive", is_transitive)):
        if not holds(least):
            return kind
    return "equivalence"


def closed_form_lists(rng, n, count):
    """Lists of one to four relations on n points, cycling through five
    shapes of the least member: a random partition (an equivalence); the
    partition with one pair added one way (not symmetric, for blocks
    apart) or both ways (not transitive, for two blocks apart of which
    one has two points); the partition without one diagonal pair (not
    reflexive); and two to four random relations above the partition
    (mostly no least member).  The other members lie above the least one,
    some equal to it, and the list is shuffled."""
    carrier = Carrier(range(n))
    full = carrier.full_mask
    out = []
    for k in range(count):
        block = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        low = [sum(1 << y for y in range(n) if block[y] == block[x])
               for x in range(n)]
        shape = k % 5
        x, y = rng.randrange(n), rng.randrange(n)
        if shape in (1, 2):
            low[x] |= 1 << y
        if shape == 2:
            low[y] |= 1 << x
        if shape == 3:
            low[x] &= ~(1 << x)
        masks = [low] + [[m | (rng.randint(0, full) if rng.random() < 0.7
                               else 0) for m in low]
                         for _ in range(rng.randint(0, 3))]
        if shape == 4:
            masks = [[m | rng.randint(0, full) for m in low]
                     for _ in range(rng.randint(2, 4))]
        rng.shuffle(masks)
        out.append(UnifBase(carrier, [Rel.from_masks(carrier, m)
                                      for m in masks]))
    return out


CLOSED_FORM = [u for n in range(3, 9)
               for u in closed_form_lists(random.Random(100 + n), n, 500)]


@pytest.mark.parametrize("lists", [SMALL, CLOSED_FORM],
                         ids=["all", "seeded"])
def test_basis_report_matches_the_reference(lists):
    # A list passes B1-B4 iff its least member is an equivalence, which
    # three tests on it decide; any other list runs the witness scan,
    # whose report, witnesses included, must be the reference's.
    kinds = Counter()
    for u in lists:
        got, want = validate_basis(u), validate_basis_reference(u)
        assert [(name, got.passed(name), got.counterexample(name))
                for name in got.names] == \
            [(name, want.passed(name), want.counterexample(name))
             for name in want.names], u.basis
        kind = least_kind(u)
        assert got.ok() == (kind == "equivalence"), u.basis
        kinds[kind] += 1
    assert kinds["none"] and kinds["not reflexive"], kinds
    assert kinds["not symmetric"] and kinds["equivalence"], kinds
    if lists is CLOSED_FORM:
        assert len(lists) == 3000
        assert min(kinds.values()) > 100, kinds


def test_every_small_list_is_enumerated():
    assert len(SMALL) == 2 + 4 + 8 + 16 + 16 ** 2 + 16 ** 3


@pytest.mark.parametrize("lists", [SMALL, SEEDED], ids=["all", "seeded"])
def test_least_entourage_is_the_literal_least_member(lists):
    found = 0
    for u in lists:
        least = literal_least(u)
        assert least_entourage(u) is least, u.basis
        found += least is not None
    assert 0 < found < len(lists)


@pytest.mark.parametrize("lists", [SMALL, SEEDED], ids=["all", "seeded"])
def test_a_least_member_decides_validity(lists):
    # A list with a least member θ passes B1-B4 exactly when θ is an
    # equivalence, read from the pair sets: θ alone decides, so no valid
    # list shares θ with an invalid one and `nu_proximity` may keep its
    # table per θ.
    verdicts = Counter()
    for u in lists:
        least = literal_least(u)
        if least is None:
            continue
        pairs = least.pairs
        equivalence = (
            all((x, x) in pairs for x in u.carrier.elements)
            and all((y, x) in pairs for x, y in pairs)
            and all((x, z) in pairs for x, y in pairs
                    for w, z in pairs if y == w))
        assert validate_basis(u).ok() == equivalence, u.basis
        verdicts[equivalence] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("lists", [SMALL, SEEDED], ids=["all", "seeded"])
def test_from_uniformity_is_every_member_meeting(lists):
    # A list without a least member is refused, as `refines` refuses it.
    refused = 0
    for u in lists:
        if literal_least(u) is None:
            with pytest.raises(PreconditionFailure,
                               match="^the basis has no member inside all "
                                     "others$"):
                from_uniformity(u)
            refused += 1
            continue
        assert from_uniformity(u).rows == literal_rows(u), u.basis
    assert 0 < refused < len(lists)


def assert_readers_match_reference(u1, partners):
    """`induced_topology(u1)` and `refines(u1, u2)` for u2 in partners
    against the earlier bodies, or PreconditionFailure when u1 has no
    least member."""
    if least_entourage(u1) is None:
        with pytest.raises(PreconditionFailure, match="no member inside"):
            induced_topology(u1)
        for u2 in partners:
            with pytest.raises(PreconditionFailure, match="no member inside"):
                refines(u1, u2)
        return
    assert induced_topology(u1) == induced_topology_reference(u1), u1.basis
    for u2 in partners:
        assert refines(u1, u2) == refines_reference(u1, u2), \
            (u1.basis, u2.basis)


@pytest.mark.parametrize("lists", [SMALL, SEEDED], ids=["all", "seeded"])
def test_refines_and_topology_match_the_reference(lists):
    rng = random.Random(11)
    by_carrier = {}
    for u in lists:
        by_carrier.setdefault(u.carrier, []).append(u)
    for group in by_carrier.values():
        singles = [u for u in group if len(u.basis) == 1]
        for u1 in group:
            assert_readers_match_reference(
                u1, singles[:16] + rng.sample(group, 8))


def fixture_bases():
    """The basis of every fixture that loads, and the metric uniformity of
    every fixture metric, with the germ or None."""
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            inst = load_instance(str(path))
        except DocumentError:
            continue
        if inst.uniformity is not None:
            yield path.name, inst.germ, inst.uniformity
        if inst.metric is not None:
            yield path.name + "/metric", inst.germ, \
                metric_uniformity(inst.metric)


def lopsided_settings():
    """(label, germ, basis): Z_k rotating k points, k = 4 and 5, over the
    chain {e, g} > {e}, with every basis of a seeded pool.  The upper
    level is not closed under inverses, so its inverse point masks are
    not its forward ones; the suite's chains are all subgroups."""
    for k in (4, 5):
        group = FiniteGroup.cyclic(k)
        carrier = Carrier(range(k))
        act = [tuple((x + g) % k for x in range(k)) for g in range(k)]
        germ = GActionGerm(group, NeighborhoodBase(
            group, [frozenset({0, 1}), frozenset({0})]), carrier, act)
        for u in basis_pool(carrier, random.Random(k)):
            yield f"Z{k}/lopsided", germ, u


def differential_settings():
    """(label, germ, basis): every setting of iter_family(max_n=5,
    seed=0), then the lopsided chains, then every fixture basis."""
    yield from iter_family(max_n=5, seed=0)
    yield from lopsided_settings()
    yield from fixture_bases()


def assert_same_nu_levels(a, u, handed):
    """Each level's one map, as `nu_proximity` hands them to
    `check_descending` (recorded in handed) on a germ with an empty cache,
    against the earlier list of maps, one per member: the same table, or
    the same precondition message."""
    fresh = GActionGerm(a.group, a.ne, a.carrier, a.act)
    try:
        earlier = nu_maps_reference(a, u)
    except PreconditionFailure as err:
        with pytest.raises(PreconditionFailure) as got:
            nu_proximity(fresh, u)
        assert str(got.value) == str(err)
        return
    handed.clear()
    nu_proximity(fresh, u)
    (maps,) = handed
    assert len(maps) == len(earlier) == len(a.masks)
    for f, level in zip(maps, earlier):
        assert meets_table(a.carrier, f).rows == \
            meets_table_reference(a.carrier, level).rows, (a, u.basis)


def assert_basis_matches_reference(u, partners):
    """The table of u, and when u is valid its least member, topology and
    refinement both ways against each partner, against the earlier
    bodies; returns whether u is valid."""
    assert from_uniformity(u).rows == from_uniformity_reference(u).rows
    if not validate_basis(u).ok():
        return False
    assert least_entourage(u) is not None, u.basis
    assert_readers_match_reference(u, partners)
    for other in partners:
        assert_readers_match_reference(other, [u])
        assert refinement_equivalent(u, other) == (
            refines_reference(u, other) and refines_reference(other, u))
    return True


def test_rewritten_readers_match_the_reference_on_suite_and_fixture_bases(
        monkeypatch):
    checked = {}  # id -> basis, kept alive so that no id is reused
    valid = []
    handed = []
    real = equivariant.check_descending
    monkeypatch.setattr(equivariant, "check_descending",
                        lambda maps: real(handed.append(maps) or maps))
    for _label, germ, u in differential_settings():
        if germ is not None:
            assert_same_nu_levels(germ, u, handed)
        if id(u) not in checked:
            checked[id(u)] = u
            if assert_basis_matches_reference(
                    u, [discrete_basis(u.carrier),
                        indiscrete_basis(u.carrier)]):
                valid.append(u)
        if germ is None or not validate_basis(u).ok():
            continue
        try:
            ug = compute_ug(germ, u)
        except PreconditionFailure:
            continue
        if id(ug) not in checked:
            checked[id(ug)] = ug
            assert assert_basis_matches_reference(ug, [u])
            valid.append(ug)
    # Not vacuous: most bases list more than their least member.
    assert len(valid) > 1000
    assert sum(len(set(u.basis)) > 1 for u in valid) > len(valid) // 2


def test_every_valid_suite_basis_is_decided_by_the_fast_pass(monkeypatch):
    # Every list the suite and the CLI requests validate is valid, so each
    # must be decided by the three tests on θ, one converse and one square,
    # and never reach the witness scan, which takes a converse and a square
    # per member.  Each basis is copied, so no kept report answers.
    bases = []
    for _label, germ, u in iter_family(max_n=5, seed=0):
        bases += [u, saturate_uniformity(germ, u)]
        try:
            bases.append(compute_ug(germ, u))
        except PreconditionFailure:
            pass
    calls = Counter()
    for name in ("invert", "compose"):
        real = getattr(setrel, name)
        monkeypatch.setattr(setrel, name, lambda *rels, name=name, real=real:
                            calls.update([name]) or real(*rels))
    for u in bases:
        calls.clear()
        assert validate_basis(UnifBase(u.carrier, u.basis)).ok(), u.basis
        assert calls == {"invert": 1, "compose": 1}, u.basis
    # Not vacuous: most bases list more than one member.
    assert len(bases) > 1000
    assert sum(len(set(u.basis)) > 1 for u in bases) > len(bases) // 2


def test_nu_maps_traps_a_valid_basis_without_a_least_member(monkeypatch):
    germ = load_instance(str(FIXTURES / "z3_rotation.json")).germ
    monkeypatch.setattr("eqprox.setrel.least_entourage", lambda u: None)
    with pytest.raises(InternalCheckFailure, match="without a least entourage"):
        nu_proximity(germ, discrete_basis(germ.carrier))


def test_least_entourage_is_computed_once_per_basis_object(monkeypatch):
    # θ is kept on the basis object: a suite run that reads it through the
    # basis checks of ν and the derived basis, the induced proximity and
    # the uniformity readers computes it once per basis object.  Every
    # basis is kept alive, so no id is reused.
    calls = Counter()
    bases = []
    real = least_entourage

    def counted(u):
        calls[id(u)] += 1
        bases.append(u)
        return real(u)
    monkeypatch.setattr("eqprox.setrel.least_entourage", counted)
    assert run_suite(max_n=3, seed=0).ok
    assert len(calls) > 2000
    assert set(calls.values()) == {1}
