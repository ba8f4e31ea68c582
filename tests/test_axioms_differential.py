"""The frozen bit-matrix row scan against the scalar reference, and the
closed forms of `check_axioms` against both on tables of one map.

Every report must match the reference verdict for verdict and
counterexample for counterexample, in the same axiom order.  Tables given
by rows that break P4 are no proximity the library builds; the row scan
(`proximity_reference.check_rows`) is kept for them as the oracle of the
closed forms, so it is held to the scalar reference here.
"""

import random

from axioms_reference import check_axioms_reference
import proximity_reference
from proximity_reference import RowsTable, _first_unmet_far_pair, \
    _intersectors, _transpose, check_rows
from test_proximity import union_of_classes_table

from eqprox.proximity import Prox, check_axioms, from_uniformity, \
    meets_table
from eqprox.setrel import Carrier
from eqprox.suite import _graph_proximity, _random_valid_basis, basis_pool


def assert_same_report(p):
    """The row scan against the reference, and on a table of one map
    (`Prox`) also check_axioms against the same report."""
    want = list(check_axioms_reference(p)._results.items())
    assert list(check_rows(p)._results.items()) == want, (p.carrier.n, p.rows)
    if isinstance(p, Prox):
        got = check_axioms(p)._results
        assert list(got.items()) == want, (p.carrier.n, p.map)


def valid_tables(rng, sizes):
    for n in sizes:
        carrier = Carrier(range(n))
        for u in basis_pool(carrier, rng):
            yield from_uniformity(u)


def test_basis_pool_tables_match_reference():
    rng = random.Random(11)
    for p in valid_tables(rng, range(1, 6)):
        assert_same_report(p)


def test_random_valid_bases_match_reference():
    rng = random.Random(12)
    for n in (6, 7):
        carrier = Carrier(range(n))
        for _ in range(12):
            assert_same_report(from_uniformity(_random_valid_basis(carrier, rng)))


def test_graph_proximities_match_reference():
    # These satisfy P1-P4 and routinely fail P5 and P5'.
    rng = random.Random(13)
    for n in range(3, 7):
        carrier = Carrier(range(n))
        for _ in range(15):
            assert_same_report(_graph_proximity(carrier, rng))


def test_random_row_tables_match_reference():
    rng = random.Random(14)
    for n in range(1, 7):
        carrier = Carrier(range(n))
        N = 1 << n
        for _ in range(40):
            rows = [rng.getrandbits(N) for _ in range(N)]
            # Keep some rows in the P4 shapes that pass: all-near rows and
            # rows with the empty bit clear.
            for a in range(N):
                roll = rng.random()
                if roll < 0.2:
                    rows[a] = (1 << N) - 1
                elif roll < 0.6:
                    rows[a] &= ~1
            assert_same_report(RowsTable(carrier, rows))


def test_single_bit_flips_match_reference():
    rng = random.Random(15)
    for p in valid_tables(rng, range(1, 6)):
        N = len(p.rows)
        cells = [(a, b) for a in range(N) for b in range(N)]
        if len(cells) > 64:
            cells = rng.sample(cells, 64)
        for a, b in cells:
            rows = list(p.rows)
            rows[a] ^= 1 << b
            assert_same_report(RowsTable(p.carrier, rows))


def class_map_table(rng, n, k):
    """A table whose N rows take at most k values, assigned to the indices
    by a random class map.  Values are P4-shaped rows (the intersectors of a
    random mask, sometimes with a few bits flipped), all-near rows or random
    rows, so every axiom gets both passing and failing tables."""
    N = 1 << n
    full_bits = (1 << N) - 1
    values = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.6:
            row = _intersectors(rng.getrandbits(n), n)
            if rng.random() < 0.3:
                row ^= 1 << rng.randrange(1, N)
        elif roll < 0.75:
            row = full_bits
        else:
            row = rng.getrandbits(N)
        values.append(row)
    return [values[rng.randrange(k)] for _ in range(N)]


def repeated_value_indices(rows):
    """Index lists of the row values that occur more than once."""
    where = {}
    for a, row in enumerate(rows):
        where.setdefault(row, []).append(a)
    return [idx for idx in where.values() if len(idx) > 1]


def flipped(rows, a, rng):
    rows = list(rows)
    rows[a] ^= 1 << rng.randrange(len(rows))
    return rows


def repeated_row_tables(rng, sizes, per_size):
    """Class-map tables and valid tables, each also with one bit flipped in
    the first and in the last copy of a repeated row value."""
    for n in sizes:
        carrier = Carrier(range(n))
        bases = basis_pool(carrier, rng)
        for t in range(per_size):
            rows = (class_map_table(rng, n, rng.randint(1, 6)) if t % 2 else
                    list(from_uniformity(bases[t % len(bases)]).rows))
            yield carrier, rows
            for idx in repeated_value_indices(rows)[:3]:
                yield carrier, flipped(rows, idx[-1], rng)
                yield carrier, flipped(rows, idx[0], rng)


def test_repeated_rows_match_reference():
    rng = random.Random(16)
    for carrier, rows in repeated_row_tables(rng, range(1, 8), 16):
        assert_same_report(RowsTable(carrier, rows))


def test_one_repeated_value_matches_reference():
    rng = random.Random(17)
    for n in range(1, 8):
        carrier = Carrier(range(n))
        N = 1 << n
        values = [0, (1 << N) - 1, (1 << N) - 2, rng.getrandbits(N),
                  _intersectors(rng.getrandbits(n), n)]
        for value in values:
            rows = [value] * N
            assert_same_report(RowsTable(carrier, rows))
            for a in (0, N - 1):
                assert_same_report(
                    RowsTable(carrier, flipped(rows, a, rng)))


def block_relation_table(rng, carrier, k):
    """near(A, B) iff B meets the blocks related to a block A meets, for
    a random partition into at most k blocks and a random reflexive block
    relation, symmetric or not.  P1, P3 and P4 hold, and the table has at
    most 2**k distinct rows."""
    n = carrier.n
    block = [rng.randrange(k) for _ in range(n)]
    members = [sum(1 << x for x in range(n) if block[x] == c)
               for c in range(k)]
    related = [[c == d or rng.random() < 0.4 for d in range(k)]
               for c in range(k)]
    point_masks = [sum(members[d] for d in range(k) if related[block[x]][d])
                   for x in range(n)]
    return meets_table(carrier, point_masks)


def test_asymmetric_repeated_rows_match_reference():
    # The transposed table gives the P2 witness and the columns of the P5
    # and P5' searches.
    rng = random.Random(18)
    seen = 0
    for n in range(2, 8):
        carrier = Carrier(range(n))
        N = 1 << n
        for _ in range(25):
            p = block_relation_table(rng, carrier, rng.randint(1, n - 1))
            for rows in (list(p.rows), flipped(p.rows, rng.randrange(N), rng),
                         class_map_table(rng, n, rng.randint(2, 6))):
                if 2 * len(set(rows)) > N or rows == _transpose(rows, n):
                    continue
                assert_same_report(RowsTable(carrier, rows))
                seen += 1
    assert seen > 200, seen


def test_half_and_one_more_distinct_rows_match_reference():
    # Half of the rows distinct, and one more, symmetric or not.
    rng = random.Random(19)
    for n in range(1, 8):
        carrier = Carrier(range(n))
        N = 1 << n
        for r in (N // 2, N // 2 + 1):
            for t in range(6):
                rows = union_of_classes_table(rng, n, r, t % 3 != 2)
                assert len(set(rows)) == r
                assert_same_report(RowsTable(carrier, rows))
                assert_same_report(
                    RowsTable(carrier, flipped(rows, rng.randrange(N), rng)))


def test_asymmetric_tables_with_few_distinct_rows_match_reference():
    # A valid table repeats its rows; one off-diagonal flip makes it
    # asymmetric while its rows stay few, so columns of equal value sit
    # under rows of different value and the searches run over every far
    # pair.
    rng = random.Random(20)
    seen = 0
    for n in range(3, 8):
        carrier = Carrier(range(n))
        N = 1 << n
        for u in basis_pool(carrier, rng):
            rows = list(from_uniformity(u).rows)
            if 2 * len(set(rows)) > N:
                continue
            for _ in range(3):
                a, b = rng.sample(range(1, N), 2)
                bad = list(rows)
                bad[a] ^= 1 << b
                assert bad != _transpose(bad, n)
                assert_same_report(RowsTable(carrier, bad))
                seen += 1
    assert seen >= 100, seen


def first_unmet_far_pair_per_bit(rows, firsts, searched, need, table):
    """The literal double loop over a in firsts and b in index order."""
    for a in firsts:
        for b in range(len(rows)):
            if (searched >> b & 1 and not rows[a] >> b & 1
                    and not need[a] & table[b]):
                return a, b
    return None


def test_first_unmet_far_pair_matches_double_loop():
    rng = random.Random(21)
    found = 0
    for n in range(1, 6):
        N = 1 << n
        for _ in range(200):
            rows = [rng.getrandbits(N) for _ in range(N)]
            firsts = rng.sample(range(N), rng.randint(1, N))
            searched = rng.getrandbits(N)
            need = {a: rng.getrandbits(N) for a in firsts}
            table = [rng.getrandbits(N) & rng.getrandbits(N)
                     for _ in range(N)]
            want = first_unmet_far_pair_per_bit(rows, firsts, searched,
                                                need, table)
            assert _first_unmet_far_pair(rows, firsts, searched, need,
                                         table) == want
            found += want is not None
    assert 100 <= found <= 900, found


def test_symmetric_table_reverses_each_distinct_row_once(monkeypatch):
    # The 64 rows of the finest proximity on six points are all distinct
    # and symmetric: the columns are the rows, so no column is reversed.
    # Its one-map table is decided on the map and reverses nothing.
    calls = []
    real = proximity_reference._reverse_bits

    def counted(x, width):
        calls.append(x)
        return real(x, width)

    monkeypatch.setattr(proximity_reference, "_reverse_bits", counted)
    finest = Prox.overlap(Carrier(range(6)))
    assert check_axioms(finest).ok()
    assert calls == []
    assert check_rows(RowsTable(finest.carrier, finest.rows)).ok()
    assert len(calls) == 64


def later_copy_p1_tables(rng, sizes):
    """Valid tables with one set b taken out of every copy of one repeated
    row value, where b misses the value's first copy and meets a later
    one: P1 then fails only at later copies, which a check of first copies
    alone would pass."""
    for n in sizes:
        carrier = Carrier(range(n))
        for u in basis_pool(carrier, rng):
            rows = list(from_uniformity(u).rows)
            for idx in repeated_value_indices(rows):
                f, later = idx[0], idx[1:]
                choices = [b for b in range(1, 1 << n) if not b & f
                           and rows[f] >> b & 1
                           and any(b & a for a in later)]
                if choices:
                    b = rng.choice(choices)
                    v = rows[f]
                    yield carrier, [row ^ (1 << b) if row == v else row
                                    for row in rows], later
                    break


def test_p1_violation_at_a_later_copy_matches_reference():
    rng = random.Random(22)
    seen = 0
    for carrier, rows, later in later_copy_p1_tables(rng, range(2, 8)):
        p = RowsTable(carrier, rows)
        want = check_axioms_reference(p)
        assert carrier.subset_mask(want.counterexample("P1")[0]) in later
        assert_same_report(p)
        seen += 1
    assert seen >= 40, seen


def distinct_objects(rows):
    """The rows as new int objects, equal rows no longer shared (but for
    the small ints, which CPython keeps one object each)."""
    out = [int(str(row)) for row in rows]
    big = [row for row in out if row > 256]
    assert len(set(map(id, big))) == len(big)
    return out


def test_equal_rows_held_by_distinct_objects_match_reference():
    # A one-map table shares one int object per distinct row; the same
    # rows given one object each are matched to their first copies by
    # value and must report the same.
    rng = random.Random(23)
    seen = 0
    for carrier, rows in repeated_row_tables(rng, range(1, 8), 8):
        p = RowsTable(carrier, distinct_objects(rows))
        assert_same_report(p)
        seen += 1
    for p in valid_tables(rng, range(3, 8)):
        q = RowsTable(p.carrier, distinct_objects(p.rows))
        assert check_rows(q)._results == check_axioms(p)._results
        assert_same_report(q)
        seen += 1
    assert seen >= 200, seen


def partition_table(rng, n, blocks):
    """near(A, B) iff B meets a block that A meets, for a random partition
    of n points into `blocks` blocks: 2**blocks distinct rows."""
    cells = list(range(blocks)) + [rng.randrange(blocks)
                                   for _ in range(n - blocks)]
    rng.shuffle(cells)
    return meets_table(Carrier(range(n)), [
        sum(1 << y for y in range(n) if cells[y] == cells[x])
        for x in range(n)])


def test_partition_tables_at_the_cap_match_reference():
    # The cap-checks shape: partition tables at n = 9-11 with 2 to 64
    # distinct rows, as they are or with one bit flipped at a later copy
    # of a row.  Bit a of row a breaks P1 and keeps the table symmetric,
    # with one more distinct row; any other bit breaks P2.
    rng = random.Random(24)
    for n, blocks, flip in ((9, 1, None), (9, 3, "diagonal"),
                            (9, 5, "other"), (9, 6, None),
                            (10, 4, "diagonal"), (10, 6, "diagonal"),
                            (11, 5, "diagonal")):
        p = partition_table(rng, n, blocks)
        assert len(set(p.rows)) == 1 << blocks
        if flip:
            rows = list(p.rows)
            a = rng.choice(repeated_value_indices(rows)[-1][1:])
            b = a if flip == "diagonal" else rng.randrange(1, 1 << n)
            rows[a] ^= 1 << b
            p = RowsTable(p.carrier, rows)
            assert (rows == _transpose(rows, n)) == (flip == "diagonal")
        assert_same_report(p)
