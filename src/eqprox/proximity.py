"""Proximity relations on a finite carrier.

A proximity is a "nearness" relation between subsets.  Here it is
materialized as a table: ``rows[a]`` is a ``2**n``-bit integer whose bit b
says whether subset a is near subset b (subsets indexed by their bitmask).
This makes extensional equality, domination and the exhaustive axiom
checks cheap integer algebra even when the quantifiers range over all
``8**n`` subset triples.  The axiom oracle treats the table as a bit
matrix: it transposes it by block swaps and reverses rows and columns a
byte at a time (Warren, *Hacker's Delight*, ch. 7), so its table work is
at most Theta(n * 4**n) bit operations carried out on whole 2**n-bit
integers.  Every table built from an action, a metric or a valid basis is
that of one union-preserving map f, near(A, B) iff B meets f(A)
(`meets_table`); a list without a least member ANDs its members' tables.
A table of one map holds f and derives its rows when they are first read,
so a reader of f alone (the point block, one entry, the hex text of the
rows through `meets_hex`, the axiom verdicts or domination) never builds
them.
Tables repeat rows: one induced by a basis often holds only a few dozen
distinct rows among its 2**n.  The row scan tests every row for P1
against the sets that meet its index, a row of the join table of the
point rows (`_point_rows`), Theta(2**n) row operations, and compares the
rows with one full transpose for P2; it decides P4, P5 and P5', which
read a row only through its value, once per distinct row, and on a
symmetric table the far-pair searches visit B only at the first copy of
its row.

The axioms checked are the classical ones, and on a one-map table each
is a property of the relation x R y iff y in f(x) (proved at
`check_axioms`):

  P1  overlapping sets are near                       R reflexive
  P2  symmetry                                        R symmetric
  P3  nothing is near the empty set                   always
  P4  near(A, B u C) iff near(A, B) or near(A, C)     always
  P5  a far pair is separated by a cut set C          R o R inside R
      (A far C and X\\C far B)
  P5' a far pair has disjoint strong neighborhoods    f(a) misses f(b) if
                                                      b is not in f(a)
  P6  distinct points are far (separatedness;         f(x) inside {x}
      optional)

P5 and P5' are checked by independent criteria, run through one far-pair
search on rows and by their own map criterion, and must agree on any
relation satisfying P1-P4.  Domination and equality, and every verdict
that compares two tables, ask `first_pair` for the first pair on which
they compare badly; on two one-map tables it is a pair of points read
off the maps.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_

from .errors import CarrierMismatch, ResourceCap
from .setrel import _join_mask, kept_least_entourage

AXIOM_CHECK_CAP = 12

P1_P5 = ("P1", "P2", "P3", "P4", "P5")


def _join_table(point_masks):
    """table[m] = OR of point_masks[x] over the points x of m, for every
    subset mask m of the n = len(point_masks) points.

    A union-preserving map of the subset lattice is fixed by its n point
    values.  The table is built by doubling: adjoining point i appends a
    copy of the table so far with that point's mask ORed in, one OR per
    subset.
    """
    table = [0]
    for p in point_masks:
        table += [m | p for m in table]
    return table


def meets_table(carrier, f):
    """The table with near(A, B) iff B meets f(A), for a union-preserving
    map f given by its n point values.  The table holds f, which is its
    point block, and derives its rows on first read (`Prox.rows`)."""
    f = tuple(f)
    if len(f) != carrier.n:
        raise ValueError("a map needs one point value per point")
    p = Prox.__new__(Prox)
    p.carrier, p.map, p._rows = carrier, f, None
    return p


def _meets_rows(n, f):
    """The rows of `meets_table` of f: row A is {B : B meets f(A)}, the
    entry of f(A) in the join table of `_point_rows`, so equal rows are
    one int object."""
    meeting = _join_table(_point_rows(n))
    return tuple(map(meeting.__getitem__, _join_table(f)))


def meets_hex(n, images):
    """The "%x" text of the row {B : B meets y} over the 2**n subsets B of
    n points, for each image y of the list `images` in order, built
    without the 2**n-bit rows; equal images get one string object.

    The text doubles: over k + 1 points the subsets holding point k are
    the high half of the row, all of them in it if y holds point k, and
    otherwise the same pattern as the low half.  So for k >= 2 the text
    over k + 1 points is "f" * 2**(k-2) or the text over k points,
    followed by the text over k points; texts below the top keep their
    leading zeros.  At the top none is stripped, since the full set meets
    every nonempty y, and the empty image is "0".  The levels are built
    from the lowest: a list over every subset of the low k points while
    those are no more than the distinct images, then a dict over the low
    parts of the images alone.  Each level holds at most one string per
    distinct image, so d distinct images copy at most d * 2**(n-1)
    characters, and nothing is kept between calls.
    """
    distinct = set(images)
    k = min(n, 2)
    text = ["%x" % sum(1 << b for b in range(1 << k) if b & y)
            for y in range(1 << k)]
    while k < n and 2 << k <= len(distinct):
        ones = "f" * (1 << k - 2)
        text = [t + t for t in text] + [ones + t for t in text]
        k += 1
    need = [distinct]
    for j in range(n - 1, k, -1):
        need.append({y & ((1 << j) - 1) for y in need[-1]})
    for j in range(k, n):
        ones, low = "f" * (1 << j - 2), (1 << j) - 1
        text = {y: (ones if y >> j & 1 else text[y & low]) + text[y & low]
                for y in need.pop()}
    text[0] = "0"
    return list(map(text.__getitem__, images))


@lru_cache(maxsize=None)
def _low_half_masks(n):
    """masks[j] = 2**n-bit integer with bit p set iff bit j of p is clear."""
    full_bits = (1 << (1 << n)) - 1
    return tuple(full_bits // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1)
                 for j in range(n))


def _point_rows(n):
    """rows[j] = 2**n-bit integer with bit b set iff subset b holds point
    j; their join table gives, for every subset m, the sets that meet m."""
    full_bits = (1 << (1 << n)) - 1
    return [full_bits ^ low for low in _low_half_masks(n)]


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


class Prox:
    """A materialized proximity table over all subset pairs of a carrier.

    The rows are stored as given, defects included, so that deliberately
    broken relations can serve as negative fixtures for check_axioms;
    each must be a 2**n-bit integer.  A
    table of one union-preserving map (`meets_table`) holds the map as
    `map`, its point block, and builds its rows when they are first read;
    a table given by its rows has no map (None).
    """

    __slots__ = ("carrier", "map", "_rows")

    def __init__(self, carrier, rows):
        rows = tuple(rows)
        if len(rows) != 1 << carrier.n:
            raise ValueError("row count must be 2**n")
        if min(rows) < 0 or max(rows) >> len(rows):
            raise ValueError("a row must be a 2**n-bit integer")
        self.carrier = carrier
        self.map = None
        self._rows = rows

    @property
    def rows(self):
        """The 2**n row integers: bit b of rows[a] is near(A, B)."""
        if self._rows is None:
            self._rows = _meets_rows(self.carrier.n, self.map)
        return self._rows

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

    @classmethod
    def overlap(cls, carrier):
        """near(A, B) iff A and B intersect (the discrete/finest proximity)."""
        return meets_table(carrier, [1 << x for x in range(carrier.n)])

    @classmethod
    def nonempty_pairs(cls, carrier):
        """near(A, B) iff both are nonempty (the indiscrete/coarsest proximity)."""
        return meets_table(carrier, [carrier.full_mask] * carrier.n)

    def near(self, a, b):
        am = self.carrier.subset_mask(a)
        bm = self.carrier.subset_mask(b)
        if self.map is not None:
            return bool(bm & _join_mask(self.map, am))
        return bool(self.rows[am] >> bm & 1)

    def __eq__(self, other):
        return (isinstance(other, Prox) and self.carrier == other.carrier
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.carrier, self.rows))

    def __repr__(self):
        return f"Prox(n={self.carrier.n})"


class AxiomReport:
    """Pass/fail verdicts per axiom, with a concrete counterexample on failure."""

    def __init__(self, results):
        self._results = dict(results)

    @property
    def names(self):
        return tuple(self._results)

    def passed(self, name):
        return self._results[name][0]

    def counterexample(self, name):
        return self._results[name][1]

    def ok(self, names=None):
        names = self.names if names is None else names
        return all(self._results[n][0] for n in names)

    def failures(self):
        return tuple(n for n in self.names if not self._results[n][0])

    def lines(self):
        out = []
        for name, (good, cex) in self._results.items():
            if good:
                out.append(f"{name}: pass")
            else:
                out.append(f"{name}: FAIL  counterexample={_fmt_cex(cex)}")
        return out

    def __str__(self):
        return "\n".join(self.lines())

    def __repr__(self):
        bad = self.failures()
        return f"AxiomReport(failures={list(bad)!r})" if bad else "AxiomReport(all pass)"


def _fmt_cex(cex):
    if isinstance(cex, tuple):
        return "(" + ", ".join(_fmt_cex(c) for c in cex) + ")"
    if isinstance(cex, frozenset):
        return "{" + ", ".join(map(repr, sorted(cex, key=repr))) + "}"
    return repr(cex)


def check_axioms(p):
    """Exhaustively check P1-P6 and P5' over every subset pair.

    Counterexamples are the first violations in the fixed subset
    enumeration order, so reports are reproducible.  A table given by its
    rows is scanned as a bit matrix (`_scan_rows`), at most
    Theta(n * 4**n) bit operations on whole 2**n-bit integers, hence the
    cap.

    A one-map table (`meets_table`: near(A, B) iff B meets f(A)) is
    decided on its map first.  Write x R y for y in f(x): B meets f(A)
    iff x R y for some x in A and y in B, so each axiom is a property of
    R, and A = {x}, B = {y} shows each condition below is necessary:

    * P1 iff R is reflexive: if A and B share x, then x is in f(x),
      inside f(A).
    * P2 iff R is symmetric: then x R y iff y R x for x in A and y in
      B, which is B meets f(A) iff A meets f(B).
    * P3 and P4 always hold: f(empty) is empty, and B u C meets f(A) iff
      B or C does.
    * P5 iff R o R is inside R, f(f(x)) inside f(x): C is far from A iff
      C misses f(A), so the best cut for a far pair is X \\ f(A), and it
      works iff B misses f(f(A)); every B that misses f(A) does so iff
      f(f(A)) is inside f(A).
    * P5' iff f(a) misses f(b) whenever b is not in f(a): A1 is a strong
      neighborhood of A iff it holds f(A), so a far pair has disjoint
      ones iff f(A) misses f(B), and for a far pair every a in A and b
      in B are a far pair of points.
    * P6 iff f(x) is inside {x}: the point block of the table is f.

    P1 and P5' imply P2 and P5 (`_map_passes`), so the check is O(n**2)
    mask operations.  When P1, P2, P5 and P5' pass, the report is made
    without a row; when one fails, the row scan runs and names every
    counterexample, so the report is that of the same table given by its
    rows.
    """
    n = p.carrier.n
    if n > AXIOM_CHECK_CAP:
        raise ResourceCap(f"axiom check needs carrier size <= "
                          f"{AXIOM_CHECK_CAP}, got {n}")
    if p.map is not None and _map_passes(p.map):
        results = dict.fromkeys(P1_P5 + ("P5prime",), (True, None))
    else:
        results = _scan_rows(p)

    # P6: distinct points are far.
    near_points = _first_near_points(_points(p))
    results["P6"] = ((True, None) if near_points is None else
                     (False, tuple(p.carrier.mask_subset(1 << i)
                                   for i in near_points)))
    return AxiomReport(results)


def _map_passes(f):
    """Whether the table of the union-preserving map with point values f
    passes P1, P2, P5 and P5' (see `check_axioms`), which is whether R is
    reflexive (P1) and f(a) misses f(b) whenever b is not in f(a) (P5'):
    these two give the others.  If x R y but not y R x, then y is in f(y)
    and in f(x) while x is not in f(y); if x R y R z but not x R z, then
    y is in f(x) and, by symmetry, in f(z) while z is not in f(x).
    Either breaks P5'.  So R is
    an equivalence relation: the table is a partition proximity."""
    full = (1 << len(f)) - 1
    return (all(fx >> x & 1 for x, fx in enumerate(f))
            and all(not _join_mask(f, full ^ fx) & fx for fx in f))


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


def and_not(a, b):
    """The `first_pair` op of domination: near in the first table and far
    in the second."""
    return a & ~b


def first_pair(p1, p2, op):
    """The first subset pair (A, B), A then B in index order, with
    op(near_1(A, B), near_2(A, B)), or None; op is `and_not` (a pair that
    breaks domination) or `operator.xor` (a pair where the tables differ).

    On two one-map tables, of maps f and g, it is ({x}, {y}) for the first
    point x with op(f(x), g(x)) nonempty and y its lowest point, found
    without a row.  For both ops a bad pair (A, B) has in B a point of
    op(f(A), g(A)), which lies inside the union of op(f(x), g(x)) over x
    in A.  So a bad row holds a bad point, which no row below 2**x holds,
    and in row {x} every B below 2**y misses op(f(x), g(x)); ({x}, {y}) is
    bad, as near_i({x}, {y}) is bit y of f(x) or g(x).  Any other pair of
    tables is scanned row by row.
    """
    carrier = p1.carrier
    if carrier != p2.carrier:
        raise CarrierMismatch("proximities live on different carriers")
    one_map = p1.map is not None and p2.map is not None
    pairs = zip(p1.map, p2.map) if one_map else zip(p1.rows, p2.rows)
    for a, (r1, r2) in enumerate(pairs):
        bad = op(r1, r2)
        if bad:
            b = (bad & -bad).bit_length() - 1
            if one_map:
                a, b = 1 << a, 1 << b
            return carrier.mask_subset(a), carrier.mask_subset(b)
    return None


def dominates(p1, p2):
    """True iff near_1(A, B) implies near_2(A, B) for all subset pairs.

    This is the domination order: p1 dominates p2 (p2 is coarser, having at
    least the near pairs of p1).
    """
    return first_pair(p1, p2, and_not) is None


def from_uniformity(u):
    """The proximity induced by an entourage basis.

    near(A, B) iff every basis entourage meets A x B.  A basis suffices:
    any filter element contains a basis element, which then also meets
    A x B, so the generated filter gives the same verdict, and so does a
    member inside all others (`least_entourage`), tabulated alone when the
    list has one, as every valid list does.  Otherwise the member tables
    are ANDed row by row, the definition read literally.  The table is
    kept on the basis object.
    """
    def build():
        least = kept_least_entourage(u)
        if least is not None:
            return meets_table(u.carrier, least.image_masks)
        tables = [meets_table(u.carrier, eps.image_masks).rows
                  for eps in u.basis]
        return Prox(u.carrier, [reduce(and_, row) for row in zip(*tables)])
    return u._cached(("prox",), build)


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


def _first_near_points(points):
    """The first pair (i, j) of distinct points with {i} near {j}, i before
    j in index order, or None, from a point block (`_point_block`, or the
    map of a `meets_table` table)."""
    for i, row in enumerate(points):
        near = row & ~(1 << i)
        if near:
            return i, (near & -near).bit_length() - 1
    return None


def _points(p):
    """The point block of a table: the map of a one-map table, no row
    derived."""
    return p.map if p.map is not None else _point_block(p.rows, p.carrier.n)


def is_separated(p):
    """Whether distinct points are always far (axiom P6 alone), read from
    the point block."""
    return _first_near_points(_points(p)) is None
