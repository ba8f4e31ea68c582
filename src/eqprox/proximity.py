"""Proximity relations on a finite carrier.

A proximity is a "nearness" relation between subsets.  On a finite
carrier every table the library builds is that of one union-preserving
map f of subsets, near(A, B) iff B meets f(A) (`meets_table`), fixed by
its n point values: the map is the table's point block, and x R y iff
y in f(x) is its point relation.  Finite proximities are exactly the
partition ones (Naimpally and Warrack, *Proximity Spaces*, Cambridge
Tracts 59, 1970), the tables whose R is an equivalence relation.  A
`Prox` holds its carrier and its map; equality, domination, the axiom
verdicts and their counterexamples are read off the map.  Its 2**n rows
(bit b of row a is near(A, B), subsets indexed by their bitmask) are
derived only when `Prox.rows` is read, which no verdict does; `--json`
writes their hex text from the map (`meets_hex`).

The axioms checked are the classical ones, and each is a property of R
(proved at `check_axioms`):

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

P5 and P5' are checked by independent criteria and must agree on any
relation satisfying P1-P4.  Domination and equality, and every verdict
that compares two tables, ask `first_pair` for the first pair on which
they compare badly, a pair of points read off the two maps.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CarrierMismatch, ResourceCap
from .setrel import _join_mask, required_least_entourage

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


class Prox:
    """The nearness table of one union-preserving map over a carrier,
    near(A, B) iff B meets map(A); built by `meets_table`.  `map` holds
    the n point values, which are the table's point block, and decides
    equality and hashing."""

    __slots__ = ("carrier", "map", "_rows")

    @property
    def rows(self):
        """The 2**n row integers, bit b of rows[a] is near(A, B), derived
        from the map when first read and kept; no verdict reads them."""
        if self._rows is None:
            self._rows = _meets_rows(self.carrier.n, self.map)
        return self._rows

    @classmethod
    def overlap(cls, carrier):
        """near(A, B) iff A and B intersect (the discrete/finest proximity)."""
        return meets_table(carrier, [1 << x for x in range(carrier.n)])

    @classmethod
    def nonempty_pairs(cls, carrier):
        """near(A, B) iff both are nonempty (the indiscrete/coarsest proximity)."""
        return meets_table(carrier, [carrier.full_mask] * carrier.n)

    def near(self, a, b):
        return bool(self.carrier.subset_mask(b)
                    & _join_mask(self.map, self.carrier.subset_mask(a)))

    def __eq__(self, other):
        return (isinstance(other, Prox) and self.carrier == other.carrier
                and self.map == other.map)

    def __hash__(self):
        return hash((self.carrier, self.map))

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
    """Exhaustively check P1-P6 and P5' over every subset pair, with the
    first counterexample of each failing axiom in the fixed subset
    enumeration order (A, then B, by index), so reports are reproducible.

    The table is near(A, B) iff B meets f(A) for its map f.  Write x R y
    for y in f(x): B meets f(A) iff x R y for some x in A and y in B, so
    each axiom is a property of R, and A = {x}, B = {y} shows each
    condition below is necessary:

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

    The same splitting names the counterexamples.  With fT the transposed
    map (fT(y) = {x : y in f(x)}), the bad partners of a point x are
    {x} \\ f(x) for P1, f(x) \\ fT(x) for P2, f(f(x)) \\ f(x) for P5,
    fT(f(x)) \\ f(x) (the y outside f(x) whose f(y) meets it) for P5' and
    f(x) \\ {x} for P6.  A pair (A, B) that breaks one of these axioms
    holds x in A and y in B with y a bad partner of x, since f(A) is the
    union of the f(x); as 2**x <= A and 2**y <= B, the first
    counterexample is ({x}, {y}) for the first point x with a bad partner
    and y its lowest.  P1 and P5' imply P2 and P5 (`_map_passes`), so a
    table that passes both is reported without the transposed map.  The
    check is O(n**2) mask operations.
    """
    n = p.carrier.n
    if n > AXIOM_CHECK_CAP:
        raise ResourceCap(f"axiom check needs carrier size <= "
                          f"{AXIOM_CHECK_CAP}, got {n}")
    f = p.map
    partners = {"P6": [fx & ~(1 << x) for x, fx in enumerate(f)]}
    if not _map_passes(f):
        ft = [sum((fx >> y & 1) << x for x, fx in enumerate(f))
              for y in range(n)]
        partners.update({
            "P1": [1 << x & ~fx for x, fx in enumerate(f)],
            "P2": [fx & ~gx for fx, gx in zip(f, ft)],
            "P5": [_join_mask(f, fx) & ~fx for fx in f],
            "P5prime": [_join_mask(ft, fx) & ~fx for fx in f],
        })
    results = dict.fromkeys(P1_P5 + ("P5prime", "P6"), (True, None))
    for name, bad in partners.items():
        pair = _first_bad_point(bad)
        if pair is not None:
            results[name] = (False, _point_pair(p.carrier, pair))
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


def _first_bad_point(bad):
    """The first (x, y) with y the lowest point of the mask bad[x], x in
    index order, or None if every mask is empty."""
    for x, b in enumerate(bad):
        if b:
            return x, (b & -b).bit_length() - 1
    return None


def _point_pair(carrier, pair):
    """({x}, {y}) as subsets, for a pair of point indices."""
    return tuple(carrier.mask_subset(1 << i) for i in pair)


def and_not(a, b):
    """The `first_pair` op of domination: near in the first table and far
    in the second."""
    return a & ~b


def first_pair(p1, p2, op):
    """The first subset pair (A, B), A then B in index order, with
    op(near_1(A, B), near_2(A, B)), or None; op is `and_not` (a pair that
    breaks domination) or `operator.xor` (a pair where the tables differ).

    For the maps f and g of the tables it is ({x}, {y}) for the first
    point x with op(f(x), g(x)) nonempty and y its lowest point.  For both
    ops a bad pair (A, B) has in B a point of op(f(A), g(A)), which lies
    inside the union of op(f(x), g(x)) over x in A.  So a bad row holds a
    bad point, which no row below 2**x holds, and in row {x} every B below
    2**y misses op(f(x), g(x)); ({x}, {y}) is bad, as near_i({x}, {y}) is
    bit y of f(x) or g(x).
    """
    carrier = p1.carrier
    if carrier != p2.carrier:
        raise CarrierMismatch("proximities live on different carriers")
    pair = _first_bad_point(map(op, p1.map, p2.map))
    return None if pair is None else _point_pair(carrier, pair)


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
    member inside all others (`least_entourage`), whose image masks are
    the table's map.  Every valid basis has one; a list without one is
    refused (`setrel.required_least_entourage`), as `uniformity.refines`
    refuses it.  The table is kept on the basis object.
    """
    return u._kept(_induced_table)


def _induced_table(u):
    """The table that `from_uniformity` keeps."""
    return meets_table(u.carrier, required_least_entourage(u).image_masks)


def _first_near_points(points):
    """The first pair (i, j) of distinct points with {i} near {j}, i before
    j in index order, or None, from a point block (the map of a table)."""
    return _first_bad_point(row & ~(1 << i) for i, row in enumerate(points))


def is_separated(p):
    """Whether distinct points are always far (axiom P6 alone), read from
    the map."""
    return _first_near_points(p.map) is None
