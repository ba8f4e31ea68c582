import random
from collections import Counter
from itertools import product
from operator import xor
from types import SimpleNamespace

import pytest
from axioms_reference import check_axioms_reference
from equivariant_reference import beta_g_map, nu_maps
from proximity_reference import RowsTable, _point_block, _reverse_bits, \
    _transpose, and_intersectors, check_rows, first_row_pair, meets, \
    meets_points, meets_table_reference

from eqprox.equivariant import beta_g_proximity, \
    enumerate_partition_proximities, nu_proximity
from eqprox.errors import CarrierMismatch, PreconditionFailure, \
    ResourceCap
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase
from eqprox.metricprox import FiniteMetric, metric_g_proximity
from eqprox.proximity import P1_P5, Prox, _first_near_points, _join_table, \
    _point_rows, and_not, check_axioms, dominates, first_pair, \
    from_uniformity, is_separated, meets_hex, meets_table
from eqprox.setrel import Carrier, Rel, _join_mask, diagonal, full_relation
from eqprox.suite import _random_valid_basis, iter_family
from eqprox.uniformity import UnifBase, discrete_basis, indiscrete_basis, \
    refines, validate_basis


def brute_near_from_basis(u, a, b):
    """Oracle for the induced proximity: every entourage meets A x B."""
    return all(any((x, y) in eps.pairs for x in a for y in b)
               for eps in u.basis)


def test_overlap_passes_all_axioms():
    c = Carrier(range(3))
    rep = check_axioms(Prox.overlap(c))
    assert rep.ok()


def test_nonempty_pairs_fails_only_p6():
    c = Carrier(range(2))
    rep = check_axioms(Prox.nonempty_pairs(c))
    assert rep.ok(P1_P5)
    assert rep.passed("P5prime")
    assert not rep.passed("P6")
    a, b = rep.counterexample("P6")
    assert a != b and len(a) == len(b) == 1


def scanned_like_reference(p):
    """The frozen row scan's report on a table given by rows, checked
    against the scalar reference."""
    rep = check_rows(p)
    assert rep._results == check_axioms_reference(p)._results
    return rep


def test_corrupted_symmetry_is_caught_with_counterexample():
    # Rows that break P4 are no table of one map: the row scan, the
    # oracle of the closed forms, must still name every failure.
    c = Carrier(range(3))
    p = Prox.overlap(c)
    rows = list(p.rows)
    am = c.subset_mask({0})
    bm = c.subset_mask({0, 1})
    rows[am] &= ~(1 << bm)  # delete one direction of a symmetric pair
    broken = RowsTable(c, rows)
    rep = scanned_like_reference(broken)
    assert not rep.passed("P2") or not rep.passed("P1")
    for name in rep.failures():
        assert rep.counterexample(name) is not None


def test_p3_violation_needs_raw_rows():
    c = Carrier(range(2))
    rows = [0] * 4
    rows[0] = 0b10  # empty set near {0}
    rep = scanned_like_reference(RowsTable(c, rows))
    assert not rep.passed("P3")
    assert rep.counterexample("P3") == (frozenset(), frozenset({0}))


def seeded_germs(rng, n):
    """Germs of a group of one or two random permutations of n points:
    the indiscrete chain [G] and the discrete chain [G, {e}]."""
    gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.choice((1, 2)))]
    try:
        group, perms = FiniteGroup.from_permutations(gens)
    except ValueError:  # past the cap of 48
        group = None
    if group is None or group.order > 24:
        group, perms = FiniteGroup.from_permutations(gens[:1])
    whole = frozenset(range(group.order))
    return [GActionGerm(group, NeighborhoodBase(group, levels),
                        Carrier(range(n)), perms)
            for levels in ([whole], [whole, frozenset({group.e})])]


def invariant_metrics(a, rng):
    """A metric with one off-diagonal value and a pseudometric vanishing
    exactly on the orbits; every permutation of the group preserves both."""
    n = a.carrier.n
    orbit = [frozenset(p[x] for p in a.act) for x in range(n)]
    far = rng.randint(1, 5)
    return [FiniteMetric(a.carrier, [[0 if x == y else far for y in range(n)]
                                     for x in range(n)]),
            FiniteMetric(a.carrier, [[0 if y in orbit[x] else far
                                      for y in range(n)] for x in range(n)],
                         pseudo=True)]


def test_tables_keep_the_empty_row_clear():
    # Every builder gives the table of one map, whose image of the empty
    # set is empty: nothing is near the empty set.
    rng = random.Random(41)
    for n in range(1, 7):
        c = Carrier(range(n))
        tables = [Prox.overlap(c), Prox.nonempty_pairs(c)]
        tables += [p for _blocks, p in enumerate_partition_proximities(c)]
        for _ in range(3):
            u = _random_valid_basis(c, rng)
            tables.append(from_uniformity(u))
            for a in seeded_germs(rng, n):
                tables += [nu_proximity(a, u), beta_g_proximity(a)]
                tables += [metric_g_proximity(m, a)
                           for m in invariant_metrics(a, rng)]
        assert [p for p in tables if p.rows[0]] == [], n


def test_p4_violation_counterexample_is_concrete():
    c = Carrier(range(2))
    p = Prox.overlap(c)
    rows = list(p.rows)
    am = c.subset_mask({0})
    rows[am] &= ~(1 << c.subset_mask({0, 1}))  # near singletons, far union
    broken = RowsTable(c, rows)
    rep = scanned_like_reference(broken)
    assert not rep.passed("P4")
    a, b, cc = rep.counterexample("P4")
    assert broken.near(a, b | cc) != (broken.near(a, b) or broken.near(a, cc))


def graph_table(c, adj):
    """The table of the point graph adj, near(A, B) iff an edge joins
    them: the map of its neighbourhoods, whose rows must be those of the
    predicate read literally."""
    p = meets_table(c, [c.subset_mask(adj[x]) for x in c.elements])
    assert p.rows == RowsTable.from_predicate(
        c, lambda a, b: any(y in adj[x] for x in a for y in b)).rows
    return p


def test_transitivity_failure_breaks_p5_and_p5prime_alike():
    # Point graph 0-1-2 without 0-2: P1..P4 hold, P5 and P5' both fail.
    c = Carrier(range(3))
    adj = {0: {0, 1}, 1: {0, 1, 2}, 2: {1, 2}}
    p = graph_table(c, adj)
    rep = check_axioms(p)
    assert rep.ok(("P1", "P2", "P3", "P4"))
    assert not rep.passed("P5")
    assert not rep.passed("P5prime")
    assert rep.passed("P5") == rep.passed("P5prime")


def test_p5_p5prime_agree_on_random_graph_relations():
    rng = random.Random(2)
    for n in (2, 3, 4):
        c = Carrier(range(n))
        for _ in range(25):
            adj = {i: {i} for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        adj[i].add(j)
                        adj[j].add(i)
            p = graph_table(c, adj)
            rep = check_axioms(p)
            assert rep.ok(("P1", "P2", "P3", "P4"))
            assert rep.passed("P5") == rep.passed("P5prime")


def test_dominates_examples_and_partial_order():
    c = Carrier(range(2))
    ov = Prox.overlap(c)
    ne = Prox.nonempty_pairs(c)
    assert dominates(ov, ov)
    assert dominates(ov, ne)
    assert not dominates(ne, ov)
    # Antisymmetry under extensional equality.
    assert not (dominates(ov, ne) and dominates(ne, ov))


def first_pair_double_loop(p1, p2, op):
    """The first (A, B) with op(near_1, near_2), read literally: every A
    in index order, then every B."""
    c = p1.carrier
    for am in range(1 << c.n):
        for bm in range(1 << c.n):
            if op(p1.rows[am] >> bm & 1, p2.rows[am] >> bm & 1):
                return c.mask_subset(am), c.mask_subset(bm)
    return None


def map_pairs():
    """Every pair of maps on n <= 2 points, then seeded pairs at n = 3-8:
    independent maps, a map against itself with one point value changed,
    and a map against one that contains it point by point."""
    for n in (1, 2):
        maps = list(product(range(1 << n), repeat=n))
        yield from ((n, f, g) for f in maps for g in maps)
    rng = random.Random(41)
    for n in range(3, 9):
        for _ in range(4):
            f = [rng.getrandbits(n) for _ in range(n)]
            g = [rng.getrandbits(n) for _ in range(n)]
            changed = list(f)
            changed[rng.randrange(n)] ^= 1 << rng.randrange(n)
            yield n, f, g
            yield n, f, changed
            yield n, f, [v | w for v, w in zip(f, g)]
            yield n, f, f


@pytest.mark.parametrize("op", [and_not, xor])
def test_first_pair_of_two_maps_matches_rows_and_double_loop(op):
    outcomes = Counter()
    for n, f, g in map_pairs():
        c = Carrier(range(n))
        p, q = meets_table(c, f), meets_table(c, g)
        got = first_pair(p, q, op)
        assert p._rows is None and q._rows is None
        rows_p, rows_q = RowsTable(c, p.rows), RowsTable(c, q.rows)
        assert got == first_row_pair(rows_p, rows_q, op) == \
            first_pair_double_loop(p, q, op), (n, f, g)
        if got is not None:
            assert len(got[0]) == len(got[1]) == 1
        outcomes[got is None] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 100, outcomes


@pytest.mark.parametrize("op", [and_not, xor])
def test_first_pair_of_rows_matches_double_loop(op):
    # The frozen rows branch, the oracle of the map search above.
    rng = random.Random(42)
    for n in range(1, 5):
        c = Carrier(range(n))
        N = 1 << n
        for density in (0.1, 0.5, 0.9):
            p = RowsTable(c, [sum(1 << b for b in range(N)
                                  if rng.random() < density)
                              for _ in range(N)])
            for q in (p, RowsTable(c, [r | rng.getrandbits(N)
                                       for r in p.rows]),
                      RowsTable(c, [rng.getrandbits(N) for _ in range(N)])):
                assert first_row_pair(p, q, op) == \
                    first_pair_double_loop(p, q, op), (p.rows, q.rows)
    with pytest.raises(CarrierMismatch):
        first_pair(Prox.overlap(Carrier(range(2))),
                   Prox.overlap(Carrier(range(3))), op)


def test_from_uniformity_examples():
    c = Carrier(range(3))
    assert from_uniformity(discrete_basis(c)) == Prox.overlap(c)
    assert from_uniformity(indiscrete_basis(c)) == Prox.nonempty_pairs(c)


def test_from_uniformity_matches_brute_force():
    c = Carrier(range(3))
    rng = random.Random(17)
    els = c.elements
    for _ in range(25):
        theta = Rel(c, [(x, y) for x in els for y in els
                        if x == y or rng.random() < 0.4])
        u = UnifBase(c, [diagonal(c), theta])
        p = from_uniformity(u)
        for am in range(8):
            for bm in range(8):
                a, b = c.mask_subset(am), c.mask_subset(bm)
                expected = bool(a) and bool(b) and brute_near_from_basis(u, a, b)
                assert p.near(a, b) == expected


def test_from_uniformity_refuses_a_list_without_a_least_member():
    # Two entourages, neither inside the other: the induced nearness is
    # no table of one map, and the list is refused as `refines` refuses
    # it, each time it is asked.
    c = Carrier(range(2))
    u = UnifBase(c, [Rel(c, [(0, 0), (1, 1), (0, 1)]),
                     Rel(c, [(0, 0), (1, 1), (1, 0)])])
    for call in (from_uniformity, from_uniformity,
                 lambda u: refines(u, u)):
        with pytest.raises(PreconditionFailure, match="^the basis has no "
                                                      "member inside all "
                                                      "others$"):
            call(u)


def test_refinement_invariance_of_induced_proximity():
    c = Carrier(range(3))
    u1 = UnifBase(c, [diagonal(c)])
    u2 = UnifBase(c, [diagonal(c), full_relation(c)])
    assert from_uniformity(u1) == from_uniformity(u2)


def test_axiom_check_resource_cap(monkeypatch):
    monkeypatch.setattr("eqprox.proximity.AXIOM_CHECK_CAP", 3)
    with pytest.raises(ResourceCap,
                       match="^axiom check needs carrier size <= 3, got 4$"):
        check_axioms(Prox.overlap(Carrier(range(4))))


def test_join_table_matches_per_subset_union():
    rng = random.Random(20)
    for n in range(0, 9):
        for _ in range(3):
            points = [rng.getrandbits(12) for _ in range(n)]
            expected = []
            for m in range(1 << n):
                out = 0
                for x in range(n):
                    if m >> x & 1:
                        out |= points[x]
                expected.append(out)
            assert _join_table(points) == expected


def test_point_rows_and_their_join_table_match_the_literal_sets():
    # Row j holds the sets that contain point j, and entry m of the join
    # table the sets that meet m.
    for n in range(1, 7):
        N = 1 << n
        rows = _point_rows(n)
        assert rows == [sum(1 << b for b in range(N) if b >> j & 1)
                        for j in range(n)]
        meeting = _join_table(rows)
        for m in range(N):
            assert meeting[m] == sum(1 << b for b in range(N) if b & m)


def test_rows_must_be_two_to_the_n_bit_integers():
    # A bit above 2**n, or a negative row, would make the row scan name
    # pairs that are no counterexamples (P1 at ({0}, {}) and at
    # ({0, 1}, {})).
    c = Carrier(range(2))
    rows = list(Prox.overlap(c).rows)
    for a, bad in ((1, rows[1] | 1 << 20), (3, -1)):
        broken = rows[:a] + [bad] + rows[a + 1:]
        with pytest.raises(ValueError, match="^a row must be a 2\\*\\*n-bit "
                                             "integer$"):
            RowsTable(c, broken)
    assert scanned_like_reference(RowsTable(c, rows)).ok()


def test_near_on_a_one_map_table_reads_the_map():
    # Every pair at n <= 4 against the rows-given copy; no row is built.
    rng = random.Random(41)
    for n in range(1, 5):
        c = Carrier(range(n))
        subsets = [c.mask_subset(m) for m in range(1 << n)]
        for _ in range(6):
            p = meets_table(c, [rng.getrandbits(n) for _ in range(n)])
            given = RowsTable(c, meets_table(c, p.map).rows)
            for a, b in product(subsets, repeat=2):
                assert p.near(a, b) == given.near(a, b)
            assert p._rows is None


def test_and_intersectors_matches_per_bit_meets():
    rng = random.Random(19)
    for n in range(0, 7):
        N = 1 << n
        rows = [rng.getrandbits(N) for _ in range(N)]
        masks = [rng.getrandbits(n) for _ in range(N)]
        expected = [sum(1 << b for b in range(N)
                        if rows[a] >> b & 1 and b & masks[a])
                    for a in range(N)]
        and_intersectors(rows, masks, n)
        assert rows == expected


def assert_rows_shared(rows):
    """Equal rows are one object: one row is built per distinct image."""
    assert len({id(r) for r in rows}) == len(set(rows))


def test_meets_table_matches_the_in_place_builder():
    # The row-per-image builder against the in-place pass it replaced, on
    # random maps at n = 0..8, some with repeated point values.  Distinct
    # subsets often have one image, whose row must then be one object.
    rng = random.Random(23)
    shared = 0
    for n in range(0, 9):
        carrier = Carrier(range(n)) if n else SimpleNamespace(n=0)
        for trial in range(12):
            f = [rng.getrandbits(n) for _ in range(n)]
            if n > 1 and trial % 3 == 0:
                f[-1] = f[0]
            p = meets_table(carrier, f)
            assert p.rows == meets_table_reference(carrier, [f]).rows, \
                (n, f)
            assert_rows_shared(p.rows)
            shared += len(set(p.rows)) < len(p.rows)
    assert shared > 10


def literal_hex(n, y):
    """The "%x" text of the row {b : b & y}, built bit by bit."""
    return format(sum(1 << b for b in range(1 << n) if b & y), "x")


def test_meets_hex_matches_the_literal_rows():
    # Every image at n = 0..10 against the literal row; the empty image is
    # "0".  All images distinct: every level is a full list.
    for n in range(0, 11):
        N = 1 << n
        assert meets_hex(n, range(N)) == [literal_hex(n, y)
                                          for y in range(N)], n
        assert meets_hex(n, [0]) == ["0"]


def test_meets_hex_on_sets_of_images_of_every_size():
    # Seeded image lists of 1 to 2**n distinct values, with repeats, at
    # n = 1..8 and, a few values each, at the cap: the levels switch from
    # full lists to the images' low parts at the number of distinct
    # images.  Equal images share one text object.
    rng = random.Random(26)
    for n in list(range(1, 9)) + [11, 12]:
        N = 1 << n
        sizes = ([1, 2, 3, 5, 17] if n > 8 else
                 {1, 2, 3, N // 4 + 1, N // 2, N // 2 + 1, N})
        for size in sorted(s for s in sizes if s <= N):
            distinct = rng.sample(range(N), size)
            images = [rng.choice(distinct) for _ in range(2 * size)]
            text = meets_hex(n, images)
            assert text == [literal_hex(n, y) for y in images], (n, size)
            assert len({id(t) for t in text}) == len(set(images))


def test_derived_rows_match_the_reference_on_suite_tables():
    # Every table of the main family at n <= 5: ν, β_G and the proximity
    # of each valid basis hold their map and derive their rows on first
    # read; the rows must be those of the literal AND over every level's
    # map (ν) or every member's (the basis), and the map the point block.
    checked = {}
    for _label, germ, u in iter_family(max_n=5, seed=0):
        c = germ.carrier
        tables = [(beta_g_proximity(germ), [beta_g_map(germ)])]
        if validate_basis(u).ok():
            tables.append((nu_proximity(germ, u), nu_maps(germ, u)))
            tables.append((from_uniformity(u),
                           [eps.image_masks for eps in u.basis]))
        for p, maps in tables:
            if id(p) in checked:
                continue
            checked[id(p)] = p
            assert p.map is not None
            assert p.rows == meets_table_reference(c, maps).rows, _label
            assert list(p.map) == _point_block(p.rows, c.n)
    assert len(checked) > 900


def test_fixture_tables_match_the_in_place_builder():
    for n in range(1, 9):
        c = Carrier(range(n))
        for build, maps in (
                (Prox.overlap, [[1 << x for x in range(n)]]),
                (Prox.nonempty_pairs, [[c.full_mask] * n])):
            p = build(c)
            assert p.rows == meets_table_reference(c, maps).rows
            assert_rows_shared(p.rows)


def test_meets_table_matches_per_pair_meets():
    # Carrier refuses the empty set; the table reads only carrier.n, so a
    # stand-in covers n = 0.  The table of one map has that map as its
    # point block, and one entry is one join of its point values, as the
    # `nu` and `betag` queries read them.  The reference readers of a list
    # of maps must read the AND over the list.
    rng = random.Random(22)
    for n in range(0, 7):
        carrier = Carrier(range(n)) if n else SimpleNamespace(n=0)
        N = 1 << n
        for count in range(4):
            maps = [[rng.getrandbits(n) for _ in range(n)]
                    for _ in range(count)]

            def image(f, a):
                out = 0
                for x in range(n):
                    if a >> x & 1:
                        out |= f[x]
                return out

            def table_of(fs):
                return [sum(1 << b for b in range(N)
                            if all(b & image(f, a) for f in fs))
                        for a in range(N)]
            expected = table_of(maps)
            for a in range(N):
                for b in range(N):
                    assert meets(maps, a, b) == bool(expected[a] >> b & 1), \
                        (n, maps, a, b)
            assert meets_points(maps, n) == _point_block(expected, n), \
                (n, maps)
            for f in maps:
                expected = table_of([f])
                p = meets_table(carrier, f)
                assert p.carrier is carrier
                assert list(p.rows) == expected, (n, f)
                assert _point_block(p.rows, n) == f
                for a in range(N):
                    for b in range(N):
                        assert bool(b & _join_mask(f, a)) == \
                            bool(expected[a] >> b & 1), (n, f, a, b)


def test_transpose_matches_per_bit_transpose():
    # Bit i of column k is bit k of row i.
    rng = random.Random(21)
    for n in range(9):
        N = 1 << n
        for _ in range(3):
            rows = [rng.getrandbits(N) for _ in range(N)]
            expected = [sum((rows[i] >> k & 1) << i for i in range(N))
                        for k in range(N)]
            assert _transpose(rows, n) == expected, n


def union_of_classes_table(rng, n, k, symmetric):
    """A table with exactly k distinct rows, unions of k nonempty random
    index classes: the rows of class i hold class l iff entry (i, l) of a
    random k x k bit matrix with distinct rows is set, a symmetric matrix
    if asked."""
    N = 1 << n
    cls = list(range(k)) + [rng.randrange(k) for _ in range(N - k)]
    rng.shuffle(cls)
    while True:
        bits = [[rng.random() < 0.5 for _ in range(k)] for _ in range(k)]
        if symmetric:
            bits = [[bits[min(i, l)][max(i, l)] for l in range(k)]
                    for i in range(k)]
        if len(set(map(tuple, bits))) == k:
            break
    members = [0] * k
    for b, c in enumerate(cls):
        members[c] |= 1 << b
    values = [sum(members[l] for l in range(k) if bits[i][l])
              for i in range(k)]
    return [values[c] for c in cls]


def test_reverse_bits_matches_string_reversal():
    rng = random.Random(22)
    for n in range(1, 9):
        N = 1 << n
        values = [0, (1 << N) - 1, 1, 1 << (N - 1)]
        values += [rng.getrandbits(N) for _ in range(20)]
        for x in values:
            assert _reverse_bits(x, N) == int(format(x, f"0{N}b")[::-1], 2)


def first_near_points_per_bit(rows, n):
    """The P6 double loop: the first i, then the first j != i, with {i}
    near {j}."""
    for i in range(n):
        for j in range(n):
            if i != j and rows[1 << i] >> (1 << j) & 1:
                return i, j
    return None


def test_first_near_points_matches_double_loop():
    rng = random.Random(24)
    for n in range(1, 7):
        N = 1 << n
        for _ in range(60):
            rows = [rng.getrandbits(N) for _ in range(N)]
            # Clear most singleton bits so that the first near pair, if any,
            # falls anywhere in the (i, j) order.
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.85:
                        rows[1 << i] &= ~(1 << (1 << j))
            want = first_near_points_per_bit(rows, n)
            points = _point_block(rows, n)
            assert _first_near_points(points) == want, (n, rows)
            p = meets_table(Carrier(range(n)), points)
            assert is_separated(p) == (want is None)


def test_is_separated_reads_the_map_of_a_one_map_table():
    # The identity map with one more pair (i, j): separated exactly when
    # i == j, read from the map without deriving a row, as from the rows.
    for n in range(1, 7):
        c = Carrier(range(n))
        for i in range(n):
            for j in range(n):
                f = [1 << x for x in range(n)]
                f[i] |= 1 << j
                p = meets_table(c, f)
                assert is_separated(p) == (i == j), (n, i, j)
                assert p._rows is None
                assert (first_near_points_per_bit(p.rows, n) is None) == \
                    (i == j)
