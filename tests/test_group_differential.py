"""Group, action and chain validation against the full scans.

`FiniteGroup` decides associativity by Light's test on a generating set,
`GActionGerm` checks the action law on the generators only, and
`NeighborhoodBase` tests the deepest level alone as the witness of every
level; each must give the verdict and the message of the k^3 triple
scan, the (g, h) pair scan and the every-witness-level scan kept in
`group_reference.py`.  The action law message is
also compared with the law read literally (`law_failure`) on renumbered
groups, where the generators are not the first indices.
"""

import random
import time
from collections import Counter
from functools import partial
from itertools import permutations

import pytest
from group_reference import action_reference, finite_group_reference, \
    neighborhood_base_reference, permutation_closure_reference

from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, \
    _generators, _light_test
from eqprox.setrel import Carrier
from eqprox.suite import germ_chains, suite_groups


def perm_table(perms):
    return FiniteGroup.from_permutations(perms)[0].mul


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


# Groups of order 1-8 and associative tables that are not groups.
GROUPS = [cyclic_table(k) for k in range(1, 9)] + [
    perm_table([(1, 0, 2, 3), (0, 1, 3, 2)]),              # Z2 x Z2
    perm_table([(1, 0, 2), (1, 2, 0)]),                    # S3
    perm_table([(1, 2, 3, 0), (3, 2, 1, 0)]),              # D4
    perm_table([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]),  # Z2 x Z4
    perm_table([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                (0, 1, 2, 3, 5, 4)]),                      # Z2^3
]
SEMIGROUPS = [
    [[i * j % k for j in range(k)] for i in range(k)] for k in range(2, 9)
] + [
    [[max(i, j) for j in range(k)] for i in range(k)] for k in range(2, 9)
] + [
    [[i for _ in range(k)] for i in range(k)] for k in range(1, 9)
]


def relabel(rng, mul):
    k = len(mul)
    s = list(range(k))
    rng.shuffle(s)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[s[a]][s[b]] = s[mul[a][b]]
    return out


def perturb(rng, mul, flips):
    k = len(mul)
    out = [list(row) for row in mul]
    for _ in range(flips):
        out[rng.randrange(k)][rng.randrange(k)] = rng.randrange(k)
    return out


def random_tables(rng, count):
    for _ in range(count):
        pick = rng.random()
        if pick < 0.6:
            base = rng.choice(GROUPS)
        elif pick < 0.85:
            base = rng.choice(SEMIGROUPS)
        else:
            k = rng.randint(1, 8)
            base = [[rng.randrange(k) for _ in range(k)] for _ in range(k)]
        yield perturb(rng, relabel(rng, base), rng.choice((0, 0, 1, 1, 2, 3)))


def verdict(build, *args):
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", str(exc)


def group_verdict(names, mul):
    ok, out = verdict(FiniteGroup, names, mul)
    if ok == "ok":
        out = (out.names, out.mul, out.inv, out.e)
    return ok, out


def closure(mul, elems):
    out = set(elems)
    while True:
        more = {mul[a][b] for a in out for b in out} - out
        if not more:
            return out
        out |= more


def is_associative(mul):
    k = len(mul)
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in range(k) for b in range(k) for c in range(k))


REJECTIONS = ("no identity", "not associative", "no inverse")


def test_group_tables_match_full_scan():
    rng = random.Random(21)
    kinds = Counter()
    for mul in random_tables(rng, 1500):
        names = [f"x{i}" for i in range(len(mul))]
        want = verdict(finite_group_reference, names, mul)
        assert group_verdict(names, mul) == want, mul
        kinds[next((kind for kind in REJECTIONS if kind in want[1]), "ok")
              if want[0] == "error" else "ok"] += 1
    assert all(kinds[kind] >= 50 for kind in ("ok",) + REJECTIONS), kinds


def test_out_of_range_entries_match_full_scan():
    # Entries just past either end of 0..k-1, anywhere in the table.
    rng = random.Random(25)
    for _ in range(200):
        mul = [list(row) for row in relabel(rng, rng.choice(GROUPS))]
        k = len(mul)
        mul[rng.randrange(k)][rng.randrange(k)] = rng.choice((-1, k, k + 3))
        names = [f"x{i}" for i in range(k)]
        want = verdict(finite_group_reference, names, mul)
        assert want == ("error", "multiplication table entry out of range")
        assert group_verdict(names, mul) == want, mul


def identity(mul):
    """The two-sided identity of a table, or None."""
    k = len(mul)
    return next((i for i in range(k) if all(
        mul[i][j] == j and mul[j][i] == j for j in range(k))), None)


def tables_with_identity(rng, count):
    """(mul, e) for the random tables that have an identity e, the only
    tables `FiniteGroup` takes on to `_generators` and Light's test."""
    for mul in random_tables(rng, count):
        e = identity(mul)
        if e is not None:
            yield tuple(map(tuple, mul)), e


def test_generators_close_to_the_whole_table():
    rng = random.Random(22)
    seen = 0
    for mul, e in tables_with_identity(rng, 600):
        gens = _generators(mul, e)
        assert e not in gens
        assert closure(mul, gens) | {e} == set(range(len(mul)))
        # Greedy in index order over the indices other than the identity:
        # each is a generator exactly when the identity and the earlier
        # generators do not reach it.
        for g in range(len(mul)):
            earlier = [x for x in gens if x < g]
            assert (g in gens) == (g not in closure(mul, [e] + earlier))
        seen += 1
    assert seen >= 300, seen


def dihedral(m):
    """The rotation and the reflection of an m-gon, as permutations."""
    return [tuple((i + 1) % m for i in range(m)),
            tuple(-i % m for i in range(m))]


# S4 x Z2 on twelve points as in `twelve_points_order48_generators.json`:
# r and s act as S4 on 0-3 and on 4-7 alike, w swaps the two blocks and
# the points of the pairs 8, 9 and 10, 11.
S4_Z2_ON_12 = [(1, 2, 3, 0, 5, 6, 7, 4, 8, 9, 10, 11),
               (1, 0, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11),
               (4, 5, 6, 7, 0, 1, 2, 3, 9, 8, 11, 10)]

# Groups of order 48, the cap.
CAP_GROUPS = [cyclic_table(48)] + [perm_table(perms) for perms in (
    S4_Z2_ON_12,
    dihedral(24),                                          # D24
    [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5),
     (0, 1, 2, 3, 5, 4)],                                  # S4 x Z2
    [(1, 0) + tuple(range(2, 26)),
     (0, 1) + tuple(range(3, 26)) + (2,)],                 # Z2 x Z24
    [(1, 2, 0, 3, 4, 5, 6, 7), (1, 0, 3, 2, 4, 5, 6, 7),
     (0, 1, 2, 3, 5, 6, 7, 4)],                            # A4 x Z4
    [(1, 0, 2) + tuple(range(3, 11)),
     (1, 2, 0) + tuple(range(3, 11)),
     (0, 1, 2) + tuple(range(4, 11)) + (3,)],              # S3 x Z8
)]


def test_light_test_decides_associativity():
    rng = random.Random(23)
    seen = Counter()
    for mul, e in tables_with_identity(rng, 600):
        associative = is_associative(mul)
        assert _light_test(mul, _generators(mul, e)) == associative
        seen[associative] += 1
    assert seen[True] >= 100 and seen[False] >= 50, seen
    # At the order cap: each group renumbered, then with one entry other
    # than in the identity's row and column changed, so that Light's test
    # is reached; the verdict and the triple named are the k^3 scan's.
    seen.clear()
    for base in CAP_GROUPS:
        assert len(base) == 48
        for flips in (0, 1, 1, 1):
            mul = relabel(rng, base)
            e = identity(mul)
            if flips:
                a, b = rng.choice([(a, b) for a in range(48)
                                   for b in range(48) if e not in (a, b)])
                mul[a][b] = rng.choice([c for c in range(48)
                                        if c != mul[a][b]])
            mul = tuple(map(tuple, mul))
            associative = is_associative(mul)
            assert _light_test(mul, _generators(mul, e)) == associative
            names = [f"x{i}" for i in range(48)]
            want = verdict(finite_group_reference, names, mul)
            assert group_verdict(names, mul) == want, mul
            seen[want[1].split(" at ")[0] if not associative
                 else want[0]] += 1
    assert seen == {"ok": 7, "table is not associative": 21}, seen


def block_action(gen_perms, degree, n_points):
    """The group generated by `gen_perms` (of 0..degree-1), acting the same
    way on each block of `degree` points."""
    group, perms = FiniteGroup.from_permutations(gen_perms)
    act = []
    for p in perms:
        img = list(range(n_points))
        for base in range(0, n_points - degree + 1, degree):
            for i in range(degree):
                img[base + i] = base + p[i]
        act.append(tuple(img))
    return group, act


def folded_action(gen_perms, n_points):
    """The group generated by `gen_perms`, acting on 0..n_points-1 by
    x -> p(x) mod n_points: an action when every generator maps residues
    mod n_points to residues, and not faithful when the degree is larger."""
    group, perms = FiniteGroup.from_permutations(gen_perms)
    return group, [tuple(p[x] % n_points for x in range(n_points))
                   for p in perms]


ACTIONS = {
    "Z2": partial(block_action, [(1, 0)], 2),
    "Z4": partial(block_action, [(1, 2, 3, 0)], 4),
    "S3": partial(block_action, [(1, 0, 2), (1, 2, 0)], 3),
    "S4": partial(block_action, [(1, 0, 2, 3), (1, 2, 3, 0)], 4),
    # Order 48 on twelve points: S4 x Z2 as in the fixture, and D24
    # through the 12-gon, with the kernel {e, r^12}.
    "S4xZ2": partial(block_action, S4_Z2_ON_12, 12),
    "D24": partial(folded_action, dihedral(24)),
}


@pytest.mark.parametrize("kind,n_points", [
    ("Z2", 3), ("Z4", 5), ("S3", 3), ("S3", 7), ("S4", 4), ("S4", 9),
    ("S4xZ2", 12), ("D24", 12)])
def test_actions_match_full_scan(kind, n_points):
    rng = random.Random(f"{kind}/{n_points}")
    group, act = ACTIONS[kind](n_points)
    carrier = Carrier(range(n_points))
    ne = NeighborhoodBase(group, [frozenset(range(group.order))])
    kinds = Counter()
    for _ in range(150):
        bad = [list(p) for p in act]
        for _ in range(rng.choice((0, 1, 1, 2))):
            g = rng.randrange(group.order)
            pick = rng.random()
            if pick < 0.4:
                x, y = rng.sample(range(n_points), 2)
                bad[g][x], bad[g][y] = bad[g][y], bad[g][x]
            elif pick < 0.7:
                bad[g] = list(bad[rng.randrange(group.order)])
            else:
                rng.shuffle(bad[g])
        want = verdict(action_reference, group, ne, carrier, bad)
        got = verdict(GActionGerm, group, ne, carrier, bad)
        if got[0] == "ok":
            got = ("ok", got[1].act)
        assert got == want, bad
        kinds[want[0] if want[0] == "ok" else want[1].split(" ")[0]] += 1
    assert kinds["ok"] >= 10 and kinds["action"] >= 10, kinds


def law_failure(group, act):
    """The action law read literally: the message naming the first (g, h)
    in index order with act[gh] != act[g] o act[h], or None."""
    for g in range(group.order):
        for h in range(group.order):
            composed = tuple(act[g][x] for x in act[h])
            if composed != tuple(act[group.mul[g][h]]):
                return ("action law fails at pair "
                        f"({group.names[g]!r}, {group.names[h]!r})")
    return None


def test_action_law_message_matches_the_pair_oracle():
    # Valid actions of Z2-Z6 (regular, h -> gh), S3 and S4 (on 3 and 4
    # points) and of the order-48 groups S4 x Z2 and D24 (on 12 points)
    # with their elements renumbered at random, so that the identity and
    # the generators sit anywhere; then one or two elements other than
    # the identity are moved off the law.
    rng = random.Random(24)
    actions = [(cyclic_table(k), cyclic_table(k)) for k in range(2, 7)]
    for perms in ([(1, 0, 2), (1, 2, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]):
        group, elems = FiniteGroup.from_permutations(perms)
        actions.append((group.mul, elems))
    for kind in ("S4xZ2", "D24"):
        group, act = ACTIONS[kind](12)
        actions.append((group.mul, act))
    kinds = Counter()
    for _ in range(400):
        mul, elems = rng.choice(actions)
        k = len(mul)
        s = rng.sample(range(k), k)
        table = [[0] * k for _ in range(k)]
        act = [None] * k
        for a in range(k):
            act[s[a]] = list(elems[a])
            for b in range(k):
                table[s[a]][s[b]] = s[mul[a][b]]
        group = FiniteGroup([f"x{i}" for i in range(k)], table)
        n = len(act[0])
        others = [g for g in range(k) if g != group.e]
        for _ in range(rng.choice((0, 1, 1, 2))):
            g = rng.choice(others)
            pick = rng.random()
            if pick < 0.4:
                x, y = rng.sample(range(n), 2)
                act[g][x], act[g][y] = act[g][y], act[g][x]
            elif pick < 0.7:
                act[g] = list(act[rng.randrange(k)])
            else:
                rng.shuffle(act[g])
        want = law_failure(group, act)
        got = verdict(GActionGerm, group,
                      NeighborhoodBase(group, [frozenset(range(k))]),
                      Carrier(range(n)), act)
        assert got[1] == want if want else got[0] == "ok", (table, act)
        kinds["law" if want else "ok"] += 1
        kinds["cap"] += k == 48
    assert kinds["ok"] >= 50 and kinds["law"] >= 200, kinds
    assert kinds["cap"] >= 50, kinds


def test_groups_at_the_cap():
    for group in (FiniteGroup.cyclic(48), FiniteGroup.symmetric(4)):
        ref = finite_group_reference(group.names, group.mul)
        assert (group.names, group.mul, group.inv, group.e) == ref
        assert closure(group.mul, group.gens) == set(range(group.order))
    assert FiniteGroup.cyclic(48).gens == (1,)
    with pytest.raises(ValueError, match="exceeds the cap 48"):
        FiniteGroup.cyclic(49)


def test_renamed_keeps_the_validated_table():
    group = FiniteGroup.symmetric(3)
    names = [f"n{i}" for i in range(group.order)]
    other = group.renamed(names)
    assert other.names == tuple(names)
    assert (other.mul, other.inv, other.e, other.gens) == \
        (group.mul, group.inv, group.e, group.gens)
    assert other.name_index["n1"] == 1
    with pytest.raises(ValueError, match="distinct"):
        group.renamed(["a"] * group.order)


def random_generators(rng, d):
    """One to four permutations of 0..d-1, each moving at most four
    points, with an identity or a repeated generator now and then."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.15:
            gens.append(tuple(range(d)))
        elif roll < 0.3 and gens:
            gens.append(rng.choice(gens))
        else:
            moved = rng.sample(range(d), min(d, rng.randint(2, 4)))
            images = list(range(d))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                images[x] = y
            gens.append(tuple(images))
    return gens


def closure_outcome(perms):
    """"cap" or "closed", after comparing `from_permutations` with the
    frontier-by-frontier closure (element order, names, cap error) and
    its product table with composition."""
    try:
        want = permutation_closure_reference(perms)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            FiniteGroup.from_permutations(perms)
        assert str(got.value) == str(err), perms
        return "cap"
    group, elems = FiniteGroup.from_permutations(perms)
    assert (group.names, elems) == want, perms
    index = {p: i for i, p in enumerate(elems)}
    d = len(perms[0])
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            assert group.mul[i][j] == \
                index[tuple(p[q[x]] for x in range(d))], (perms, i, j)
    return "closed"


def test_from_permutations_products_match_composition():
    # S4, then random generator sets of degree at most 12, some of them
    # past the cap of 48.
    perms = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert closure_outcome(perms) == "closed"
    assert sorted(FiniteGroup.from_permutations(perms)[1]) == \
        sorted(permutations(range(4)))
    rng = random.Random(41)
    outcomes = Counter(
        closure_outcome(random_generators(rng, rng.randint(1, 12)))
        for _ in range(500))
    assert outcomes["cap"] >= 30 and outcomes["closed"] >= 100, outcomes


def test_from_permutations_refuses_degree_above_256():
    # Elements are byte rows while the closure runs: degree 256 is the
    # largest taken, and a larger one is refused before the permutations
    # are checked.
    swap = (1, 0) + tuple(range(2, 256))
    group, elems = FiniteGroup.from_permutations([swap])
    assert group.order == 2 and elems == (tuple(range(256)), swap)
    assert group.names[1] == "p" + ".".join(map(str, swap))
    for perms in ([swap + (256,)], [(0,) * 257]):
        with pytest.raises(ValueError) as err:
            FiniteGroup.from_permutations(perms)
        assert str(err.value) == ("permutation degree 257 exceeds the limit "
                                  "256 (one byte per image)")


def chain_verdict(group, levels):
    ok, out = verdict(NeighborhoodBase, group, levels)
    return (ok, out.levels) if ok == "ok" else (ok, out)


def random_chain(rng, group):
    """Levels that hold the identity, mostly descending: each level adds
    random elements to the one below it, or, now and then, to a random
    subgroup, and a few chains are shuffled or get a stray element."""
    k = group.order
    subs = group.subgroups()
    deep = set(rng.choice(subs)) if rng.random() < 0.5 else {group.e}
    deep |= {g for g in range(k) if rng.random() < 0.15}
    levels = [frozenset(deep)]
    for _ in range(rng.randrange(4)):
        up = set(levels[0]) | {g for g in range(k) if rng.random() < 0.3}
        if rng.random() < 0.3:
            up |= rng.choice(subs)
        levels.insert(0, frozenset(up))
    if rng.random() < 0.1:
        rng.shuffle(levels)
    if rng.random() < 0.05:
        levels[rng.randrange(len(levels))] -= {group.e}
    return levels


CHAIN_FAILURES = ("identity", "descending", "square/inverse", "conjugation")


def test_chain_messages_match_every_witness_level_scan():
    # Every suite chain, repeated and padded with the whole group above
    # it, and seeded chains, which are valid or fail each check in turn.
    groups = [group for _name, group, _gens in suite_groups()]
    groups.append(FiniteGroup.from_permutations([(1, 2, 3, 0),
                                                  (3, 2, 1, 0)])[0])  # D4
    rng = random.Random(46)
    kinds = Counter()
    for group in groups:
        whole = frozenset(range(group.order))
        chains = [list(levels) for levels in germ_chains(group)]
        chains += [[whole] + levels + levels[-1:] for levels in chains]
        chains += [random_chain(rng, group) for _ in range(300)]
        for levels in chains:
            want = verdict(neighborhood_base_reference, group, levels)
            assert chain_verdict(group, levels) == want, levels
            kinds[want[0] if want[0] == "ok" else next(
                word for word in CHAIN_FAILURES if word in want[1])] += 1
    assert kinds["ok"] >= 100, kinds
    assert kinds["square/inverse"] >= 100 and kinds["conjugation"] >= 20, \
        kinds
    assert kinds["descending"] >= 10 and kinds["identity"] >= 10, kinds


def test_a_long_chain_is_validated_in_linear_time():
    # The two levels of S3 and A3, each repeated 1,000 times: the
    # every-witness-level scan takes L**2 * |G| conjugations, the deepest
    # level L * |G|.
    s3 = suite_groups()[-1][1]
    a3 = next(h for h in s3.subgroups() if len(h) == 3)
    start = time.perf_counter()
    ne = NeighborhoodBase(s3, [range(6)] * 1000 + [a3] * 1000)
    assert time.perf_counter() - start < 1.0
    assert ne.levels[-1] == a3
    flip = next(h for h in s3.subgroups() if len(h) == 2)
    with pytest.raises(ValueError, match="^chain level 1000 has no "
                       "conjugation witness for element"):
        NeighborhoodBase(s3, [range(6)] * 1000 + [flip] * 1000)
