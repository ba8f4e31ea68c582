"""The nearness table builder of `eqprox.proximity` before it shared rows
and took one map, the readers of single entries that went with it, the
submask table it was built on, and the bit-matrix row scan that decided
tables given by their rows, kept as references.

``_submask_table`` and ``_intersectors`` are the subset-lattice tables
that the builder, the P1 and P4 row scans and the action continuity test
read before the library built its rows from one join table of the point
rows; the axiom, action and setting references read them from here, so
no reference shares the primitive it checks.
``and_intersectors`` is the in-place row pass that ``meets_table`` ran
once per distinct map, ANDing every row with the intersectors of its
image, and ``meets_table_reference`` is ``meets_table`` over a list of
maps through it, as they were before the builder made one row per
distinct image and let equal rows share one int object.  ``meets`` and
``meets_points`` read one entry and the point block of that several-map
table from the point values, as the ``nu`` and ``betag`` queries did
before a table became one map.

``RowsTable`` holds a table given by its 2**n rows, defects included, as
``Prox(carrier, rows)`` did before a table became its map.  ``_scan_rows``
(with ``_transpose``, ``_reverse_bits``, ``_first_unmet_far_pair``,
``_point_bits`` and ``_point_block``) is the row scan that named the
counterexamples of such a table, ``check_rows`` the report that
``check_axioms`` made from it, and ``first_row_pair`` the rows branch of
``first_pair``; ``test_axioms_differential.py`` and
``test_one_map_axioms.py`` compare the closed forms of ``check_axioms``
with them.  The bodies are kept unchanged apart from the names, so that
``test_proximity.py`` compares the production builder with the original,
``test_equivariant_differential.py`` the queries with the old entry
readers, and ``equivariant_reference.py`` and ``setrel_reference.py``
build their tables through the original pass.
This is test-only code: nothing under ``src/`` may import it.
"""

from functools import lru_cache

from eqprox.proximity import AxiomReport, _first_near_points, _join_table, \
    _low_half_masks, _point_rows
from eqprox.setrel import _join_mask


@lru_cache(maxsize=None)
def _submask_table(n):
    """table[c] = integer with bit s set for every submask s of c.

    Built by doubling: adjoining bit i to c shifts every submask pattern up
    by 2**i.  Entry c is a 2**n-bit integer.  Kept per process, not per
    carrier: each CLI request would rebuild it, 1.5-1.7 ms at n = 12.
    """
    table = [1] * (1 << n)
    for c in range(1, 1 << n):
        low = c & -c
        table[c] = table[c ^ low] | (table[c ^ low] << low)
    return tuple(table)


def _intersectors(mask, n):
    """Bitmask over subset indices b with b & mask != 0."""
    full_bits = (1 << (1 << n)) - 1
    return full_bits ^ _submask_table(n)[((1 << n) - 1) ^ mask]


def and_intersectors(rows, masks, n):
    """rows[m] &= _intersectors(masks[m], n) for every subset mask m, in
    place: afterwards B is near A only if B meets masks[A]."""
    N = 1 << n
    full_bits = (1 << N) - 1
    table = _submask_table(n)
    for m in range(N):
        rows[m] &= full_bits ^ table[(N - 1) ^ masks[m]]


def meets_table_reference(carrier, maps):
    """The table with near(A, B) iff B meets f(A) for every f in maps,
    each f a union-preserving map given by its n point values: one join
    table and one AND per row for each distinct map, Theta(|maps| * 2**n)
    operations on 2**n-bit integers.  `meets` and `meets_points` read
    entries of the same table from the point values, without it."""
    n = carrier.n
    N = 1 << n
    rows = [(1 << N) - 1] * N
    for values in dict.fromkeys(map(tuple, maps)):
        and_intersectors(rows, _join_table(values), n)
    return RowsTable(carrier, rows)


def meets(maps, a, b):
    """near(A, B) in `meets_table` over the same maps, for subset masks a
    and b: one table entry, read from the point values directly."""
    return all(b & _join_mask(f, a) for f in maps)


def meets_points(maps, n):
    """The point block of `meets_table` over the same maps: bit j of entry
    i says whether {x_i} is near {x_j}, the AND of f[i] over the maps."""
    points = [(1 << n) - 1] * n
    for f in maps:
        points = [p & v for p, v in zip(points, f)]
    return points


class RowsTable:
    """A nearness table given by its 2**n rows: bit b of rows[a] is
    near(A, B).  The rows are stored as given, defects included, so that
    deliberately broken relations can serve as negative fixtures for the
    row scan; each must be a 2**n-bit integer."""

    __slots__ = ("carrier", "rows")

    def __init__(self, carrier, rows):
        rows = tuple(rows)
        if len(rows) != 1 << carrier.n:
            raise ValueError("row count must be 2**n")
        if min(rows) < 0 or max(rows) >> len(rows):
            raise ValueError("a row must be a 2**n-bit integer")
        self.carrier = carrier
        self.rows = rows

    @classmethod
    def from_predicate(cls, carrier, pred):
        """Materialize near(A, B) from a predicate on frozensets."""
        subsets = [carrier.mask_subset(m) for m in range(1 << carrier.n)]
        rows = []
        for a in subsets:
            row = 0
            for bm, b in enumerate(subsets):
                if pred(a, b):
                    row |= 1 << bm
            rows.append(row)
        return cls(carrier, rows)

    def near(self, a, b):
        return bool(self.rows[self.carrier.subset_mask(a)]
                    >> self.carrier.subset_mask(b) & 1)

    def __eq__(self, other):
        return (isinstance(other, RowsTable) and self.carrier == other.carrier
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.carrier, self.rows))


def check_rows(p):
    """The report of `check_axioms` on a table given by its rows: the row
    scan, and P6 from the point block."""
    results = _scan_rows(p)
    near_points = _first_near_points(_point_block(p.rows, p.carrier.n))
    results["P6"] = ((True, None) if near_points is None else
                     (False, tuple(p.carrier.mask_subset(1 << i)
                                   for i in near_points)))
    return AxiomReport(results)


def _scan_rows(p):
    """The verdicts and first counterexamples of P1-P5 and P5' from the
    rows of the table, every counterexample named.

    The table is handled as a bit matrix whose rows are 2**n-bit integers,
    so each quantifier over subsets becomes a whole-integer operation
    (Warren, *Hacker's Delight*, ch. 7):

    * P1 compares each row, in index order, with the sets that meet its
      index, one row of the join table of `_point_rows`; the row passes
      when it holds them all.
    * P2 compares the rows with the columns of the full transpose, n
      rounds of block swaps, which also gives the first asymmetric pair.
      A symmetric table is its own transpose.
    * P4 compares each row with the sets that meet the points it is
      near, a row of the same join table; the lowest differing bit is the
      first violation.
    * The strong-neighborhood tables of P5 and P5' are bit reversals of
      complemented rows and columns, done a byte at a time through a
      256-entry table (``_reverse_bits``).
    * P5' reads, for each row A, the OR of the submasks of X \\ C over the
      strong neighborhoods C of A.  C is one iff X \\ C is far from A, so
      the OR is the down-closure of the far sets of A: n shift-ORs.

    P4, P5 and P5' read row A only through its value, so they run once
    per distinct row value, at its first copy, where their first violation
    in index order falls.  On a symmetric table the far-pair verdict reads
    B only through its row too, so B is searched at first copies only.
    With r distinct rows, on 2**n-bit integers: P1 costs Theta(2**n) row
    ORs and ANDs, P2 Theta(n * 2**n) operations, the P5 and P5' tables
    Theta(n * r), and the searches at most r**2 far-pair tests (r * 2**n
    if asymmetric).
    """
    carrier = p.carrier
    n = carrier.n
    N = 1 << n
    full_bits = (1 << N) - 1
    rows = p.rows
    subset = carrier.mask_subset

    results = {}

    # P4, P5 and P5' read row a only through its value rows[a] and tables
    # indexed by b, so a later copy of a row value passes exactly when its
    # first copy does: they run over first copies only.  rep[a] is the
    # first index holding rows[a].
    first = {}
    rep = [first.setdefault(row, a) for a, row in enumerate(rows)]
    firsts = list(first.values())

    # P1: intersecting pairs must be near.  meeting[a] holds the sets that
    # meet a, so row a passes when it holds them all.
    meeting = _join_table(_point_rows(n))
    results["P1"] = (True, None)
    for a, row in enumerate(rows):
        viol = meeting[a] & ~row
        if viol:
            b = (viol & -viol).bit_length() - 1
            results["P1"] = (False, (subset(a), subset(b)))
            break

    # P2: symmetry.  A symmetric table's rows are its columns; the
    # transpose replaces them only on an asymmetric table.
    results["P2"] = (True, None)
    cols = rows
    transposed = _transpose(rows, n)
    for a in range(N):
        viol = rows[a] & ~transposed[a] & full_bits
        if viol:
            b = (viol & -viol).bit_length() - 1
            results["P2"] = (False, (subset(a), subset(b)))
            cols = transposed
            break

    # P3: the empty set is near nothing.
    if rows[0]:
        b = (rows[0] & -rows[0]).bit_length() - 1
        results["P3"] = (False, (frozenset(), subset(b)))
    else:
        results["P3"] = (True, None)

    # P4: near(A, BuC) iff near(A,B) or near(A,C).  Equivalent to: the row is
    # determined by its singleton bits (all-near if the empty bit is set).
    # With the empty bit clear, the row must be the sets that meet the
    # points it is near; the lowest differing bit s is the first subset at
    # which the union law breaks, split as (s minus its lowest point, that
    # point).
    results["P4"] = (True, None)
    for a in firsts:
        row = rows[a]
        if row & 1:
            if row != full_bits:
                miss = (~row & full_bits)
                b = (miss & -miss).bit_length() - 1
                results["P4"] = (False, (subset(a), subset(b), frozenset()))
                break
            continue
        diff = row ^ meeting[_point_bits(row, n)]
        if diff:
            s = (diff & -diff).bit_length() - 1
            low = s & -s
            results["P4"] = (False, (subset(a), subset(s ^ low), subset(low)))
            break

    # The criterion tables of P5 and P5', built for first copies (sn and
    # reach are lists indexed by the first copies, 0 elsewhere):
    #   far[a]   = the sets far from A, the complement of row a
    #   sn[a]    = {a1 : A is far from X \ A1}, the reversal of far[a]
    #   cutb[b]  = {c  : X \ C is far from B}, the reversed complement of column b
    #   reach[b] = the down-closure of the sets far from B: every submask
    #              of the complement of one of B's strong neighborhoods
    # On a symmetric table column b is row b, and the verdict for (a, b)
    # reads b only through rows[b], so B is searched at first copies.
    far = {a: ~rows[a] & full_bits for a in firsts}
    sn, reach = [0] * N, [0] * N
    low_halves = list(enumerate(_low_half_masks(n)))
    for a, down in far.items():
        sn[a] = _reverse_bits(down, N)
        for j, lo in low_halves:
            down |= down >> (1 << j) & lo
        reach[a] = down
    if cols is rows:
        cutb = sn
        searched = sum(1 << a for a in firsts)
    else:
        cutb = [_reverse_bits(~col & full_bits, N) for col in cols]
        reach = [reach[a] for a in rep]
        searched = full_bits

    # P5: every far pair admits a cut set C with A far C and X\C far B.
    # P5': every far pair has disjoint strong neighborhoods.
    for name, need, table in (("P5", far, cutb), ("P5prime", sn, reach)):
        unmet = _first_unmet_far_pair(rows, firsts, searched, need, table)
        results[name] = ((True, None) if unmet is None else
                         (False, tuple(map(subset, unmet))))
    return results


def _first_unmet_far_pair(rows, firsts, searched, need, table):
    """The first pair (a, b), a in `firsts` in order and b a bit of
    `searched` in index order with B far from A (bit b of rows[a] clear),
    for which need[a] & table[b] is empty; None if there is none."""
    for a in firsts:
        need_a = need[a]
        todo = ~rows[a] & searched
        while todo:
            low = todo & -todo
            b = low.bit_length() - 1
            if not need_a & table[b]:
                return a, b
            todo ^= low
    return None


def _point_bits(row, n):
    """The row at the singletons: bit j is bit 2**j, nearness to {x_j}."""
    return sum((row >> (1 << j) & 1) << j for j in range(n))


def _point_block(rows, n):
    """The point block of a table: bit j of entry i is bit 2**j of row
    2**i, whether {x_i} is near {x_j}."""
    return [_point_bits(rows[1 << i], n) for i in range(n)]


def _transpose(rows, n):
    """The columns of a 2**n x 2**n bit matrix given by its 2**n row
    integers: bit i of column k is bit k of row i.

    Round j swaps, between rows r and r | 2**j (bit j of r clear), the
    bits whose column has bit j clear in the lower row with their partners
    2**j higher in the upper row; after n rounds every bit has had its row
    and column indices exchanged.
    """
    cols = list(rows)
    for j, lo in enumerate(_low_half_masks(n)):
        s = 1 << j
        for r in range(1 << n):
            if r & s:
                continue
            t = ((cols[r] >> s) ^ cols[r | s]) & lo
            cols[r | s] ^= t
            cols[r] ^= t << s
    return cols


# _REVERSED_BYTES[b] is the byte b with its 8 bits in reverse order.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(x, width):
    """The bits of x (0 <= x < 2**width, width a power of two) reversed.

    Whole bytes are reversed through a table and read back in the opposite
    byte order; widths below 8 take the top bits of one reversed byte.
    """
    if width < 8:
        return _REVERSED_BYTES[x] >> (8 - width)
    return int.from_bytes(
        x.to_bytes(width // 8, "big").translate(_REVERSED_BYTES), "little")


def first_row_pair(p1, p2, op):
    """The rows branch of `first_pair`: the first subset pair (A, B), A
    then B in index order, with op(near_1(A, B), near_2(A, B)), or None,
    scanned row by row over any two tables with rows."""
    carrier = p1.carrier
    for a, (r1, r2) in enumerate(zip(p1.rows, p2.rows)):
        bad = op(r1, r2)
        if bad:
            b = (bad & -bad).bit_length() - 1
            return carrier.mask_subset(a), carrier.mask_subset(b)
    return None
