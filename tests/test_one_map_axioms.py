"""The closed forms of check_axioms and dominates against the row scan.

A table of one map (near(A, B) iff B meets f(A)) is decided, and its
counterexamples named, on its n point values.  Every report must equal
the frozen row scan's on the same table given by its rows
(`proximity_reference.check_rows`), and, at n <= 5, the scalar
reference's; no row of the table is read.
"""

import random
from itertools import product

from axioms_reference import check_axioms_reference
from proximity_reference import RowsTable, check_rows

from eqprox.proximity import check_axioms, dominates, meets_table
from eqprox.setrel import Carrier

MAP_AXIOMS = ("P1", "P2", "P5", "P5prime")


def seeded_map(rng, n):
    """A random map, made reflexive, symmetric and transitively closed
    each with chance 1/2, so that every map axiom passes on some maps and
    fails on others."""
    f = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
    if rng.random() < 0.5:
        f = [fx | 1 << x for x, fx in enumerate(f)]
    if rng.random() < 0.5:
        f = [fx | sum(1 << y for y in range(n) if f[y] >> x & 1)
             for x, fx in enumerate(f)]
    if rng.random() < 0.5:
        for k in range(n):  # Warshall: close through point k
            f = [fx | f[k] if fx >> k & 1 else fx for fx in f]
    return f


def map_failures(carrier, f):
    """Check the one-map table of f against the row scan of its rows (and
    the reference at n <= 5); the set of map axioms it fails."""
    p = meets_table(carrier, f)
    got = list(check_axioms(p)._results.items())
    assert p._rows is None, (carrier.n, f)
    rows = RowsTable(carrier, meets_table(carrier, f).rows)
    want = check_rows(rows)._results
    assert got == list(want.items()), (carrier.n, f)
    if carrier.n <= 5:
        ref = check_axioms_reference(rows)._results
        assert got == list(ref.items()), (carrier.n, f)
    return frozenset(name for name in MAP_AXIOMS if not want[name][0])


def test_every_small_map_matches_the_row_scan():
    seen = set()
    for n in range(1, 4):
        carrier = Carrier(range(n))
        for f in product(range(1 << n), repeat=n):
            seen.add(map_failures(carrier, f))
    # Under P1, P5' implies P2, and with P2 it is P5, so P2, P5 and P5'
    # cannot fail alone; each still fails with the others passing where
    # it can, and P5 and P5' each fail without the other.
    assert {frozenset(), frozenset({"P1"}), frozenset({"P2", "P5prime"}),
            frozenset({"P5", "P5prime"}),
            frozenset({"P1", "P2", "P5"})} <= seen, seen


def test_seeded_maps_match_the_row_scan():
    rng = random.Random(36)
    for n in range(4, 9):
        carrier = Carrier(range(n))
        seen = {name: 0 for name in MAP_AXIOMS}
        passed = 0
        for _ in range(60):
            failed = map_failures(carrier, seeded_map(rng, n))
            passed += not failed
            for name in failed:
                seen[name] += 1
        assert passed >= 5 and min(seen.values()) >= 5, (n, passed, seen)


def test_failing_maps_at_the_cap_match_the_row_scan():
    # At n = 12 the row scan reads 4,096 rows of 4,096 bits; seeded maps
    # that fail, and the neighbour cycle, which fails P2, P5 and P5'.
    rng = random.Random(38)
    carrier = Carrier(range(12))
    cycle = [1 << x | 1 << (x + 1) % 12 for x in range(12)]
    assert map_failures(carrier, cycle) == {"P2", "P5", "P5prime"}
    failing = 0
    while failing < 4:
        failing += bool(map_failures(carrier, seeded_map(rng, 12)))


def rows_dominate(rows1, rows2):
    """near_1(A, B) implies near_2(A, B), row by row."""
    return all(r1 & ~r2 == 0 for r1, r2 in zip(rows1, rows2))


def test_dominates_on_maps_matches_the_rows():
    rng = random.Random(37)
    held = 0
    for n in range(1, 6):
        carrier = Carrier(range(n))
        sample = []
        for _ in range(6):
            f = seeded_map(rng, n)
            sample += [f, [fx & rng.getrandbits(n) for fx in f],
                       [fx | rng.getrandbits(n) for fx in f]]
        rows = [meets_table(carrier, f).rows for f in sample]
        for (f, rf), (g, rg) in product(zip(sample, rows), repeat=2):
            want = rows_dominate(rf, rg)
            p, q = meets_table(carrier, f), meets_table(carrier, g)
            assert dominates(p, q) == want, (n, f, g)
            assert p._rows is None and q._rows is None
            held += want
    assert held >= 200, held
