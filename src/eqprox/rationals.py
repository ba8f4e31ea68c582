"""Symbolic model of the ordered rationals under order automorphisms.

Points of the carrier are exact rationals; sets are finite unions of
rational points and open intervals, whose endpoints may be infinite.  The
stabilizer of a finite chain F = {t1 < ... < tm} acts with exactly the
2m+1 obvious orbits

    (-inf, t1), {t1}, (t1, t2), ..., {tm}, (tm, +inf)

(ultrahomogeneity: an order automorphism fixing F can move a point to any
other point of the same cell).  Saturating a set under the stabilizer
therefore means taking the union of the cells it meets.  Farness of two
sets in the maximal group proximity, and a saturation of A inside a convex
O (farness of A from the complement of O), become one finite search for a
chain no cell of which meets both sets; saturate re-verifies its witness.
`intersects`, `issubset` and `saturate` each merge two sorted lists.

All arithmetic is exact (fractions.Fraction).  The only floats are the
two infinite endpoints NEG_INF = -math.inf and POS_INF = math.inf: Fraction
compares with them exactly, and they are compared and never used in
arithmetic.  An endpoint is tested for infinity by equality with them, or,
in a normalized atom, by being a float; never by math.isinf or float(),
which overflow on a Fraction of more than about 308 digits.

The witness search space is the chains drawn from the endpoint set of
the two inputs.  Any witness found is sound because saturations shrink as
chains grow.  The restriction is complete by a lemma: every set is a union
of cells of the chain of its own endpoints, so the chain of all endpoints
of A and B saturates each of them to itself and separates them whenever
they are disjoint.  The search is one pass down the cells of that chain,
cutting wherever the run of cells since the last cut would meet both sets.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocumentError, InternalCheckFailure, \
    PreconditionFailure, ResourceCap

# The union closure of k chains can have 2**k - 1 levels, and the bonding
# maps grow with the square of the level count.
TOWER_LEVEL_CAP = 64

NEG_INF = -math.inf
POS_INF = math.inf


def _pt(q):
    return ("pt", q)


def _iv(lo, hi):
    return ("iv", lo, hi)


def fmt_atom(atom):
    if atom[0] == "pt":
        return "{" + str(atom[1]) + "}"
    return f"({atom[1]},{atom[2]})"


def _below(x, y):
    """Whether atom x lies wholly below atom y: x's top end is under y's
    bottom end, or equal to it with either end open, which it is when
    either atom is an interval; so one comparison decides.  Two atoms are
    convex, so they meet iff neither lies wholly below the other."""
    if x[0] == "iv" or y[0] == "iv":
        return x[-1] <= y[1]
    return x[-1] < y[1]


class RatSet:
    """A finite union of rational points and open rational intervals.

    Atoms are normalized (overlapping intervals merged, swallowed points
    dropped) but a point adjacent to an open interval stays its own atom:
    the stabilizer cells are exactly such alternations and fusing them
    would force a re-split at every saturation.  Comparisons that must not
    care about the split (equality, subset, convexity) go through the
    fused convex components instead.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        self.atoms = _normalize(atoms)

    @classmethod
    def point(cls, q):
        return cls([_pt(Fraction(q))])

    @classmethod
    def interval(cls, lo, hi):
        lo = lo if lo == NEG_INF else Fraction(lo)
        hi = hi if hi == POS_INF else Fraction(hi)
        return cls([_iv(lo, hi)])

    @property
    def is_empty(self):
        return not self.atoms

    def intersects(self, other):
        """One merge of the sorted atoms: step past the one wholly below."""
        xs, ys = self.atoms, other.atoms
        i = j = 0
        while i < len(xs) and j < len(ys):
            if _below(xs[i], ys[j]):
                i += 1
            elif _below(ys[j], xs[i]):
                j += 1
            else:
                return True
        return False

    def components(self):
        """Fused maximal convex pieces as (lo, lo_closed, hi, hi_closed),
        read off the disjoint atoms in order: an atom extends the last piece
        iff it starts where that ends and one of the two holds that point."""
        fused = []
        for a in self.atoms:
            pt = a[0] == "pt"
            if fused and fused[-1][2] == a[1] and (pt or fused[-1][3]):
                fused[-1][2:] = a[-1], pt
            else:
                fused.append([a[1], pt, a[-1], pt])
        return tuple(map(tuple, fused))

    @property
    def is_convex(self):
        return len(self.components()) <= 1

    def issubset(self, other):
        """One merge of the sorted components: each lies inside the first
        of other's that does not end before it, or in none.  Ends compare
        as (value, closed) and starts as (value, open)."""
        theirs, j = other.components(), 0
        for lo, lo_in, hi, hi_in in self.components():
            while j < len(theirs) and theirs[j][2:] < (hi, hi_in):
                j += 1
            if j == len(theirs) or (theirs[j][0], not theirs[j][1]) > (
                    lo, not lo_in):
                return False
        return True

    def endpoints(self):
        """The finite endpoint values of all atoms, sorted."""
        return tuple(sorted({v for a in self.atoms for v in a[1:]
                             if not isinstance(v, float)}))

    def __eq__(self, other):
        return isinstance(other, RatSet) and self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __str__(self):
        if not self.atoms:
            return "{}"
        return ",".join(fmt_atom(a) for a in self.atoms)

    def __repr__(self):
        return f"RatSet({self})"


def _normalize(atoms):
    """One pass by start, a point before an interval opening at it (the
    order components() fuses in): an atom can only overlap the last atom
    kept, and then that one is an interval, which it extends or lies in."""
    out = []
    for a in sorted(atoms, key=lambda a: (a[1], a[0] == "iv")):
        if (a[0] == "iv" and not a[1] < a[2]) or (out and a == out[-1]):
            continue
        if out and a[1] < out[-1][-1]:
            out[-1] = _iv(out[-1][1], max(out[-1][2], a[-1]))
        else:
            out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class Chain:
    """A finite strictly increasing chain of rationals (possibly empty)."""

    points: tuple

    def __post_init__(self):
        pts = tuple(p if type(p) is Fraction else Fraction(p)
                    for p in self.points)
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("chain points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, values):
        return cls(tuple(sorted({Fraction(v) for v in values})))

    def __len__(self):
        return len(self.points)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.points) + "}"

    def __repr__(self):
        return f"Chain({self})"


@dataclass(frozen=True)
class OrbitSpace:
    """The 2m+1 alternating stabilizer cells of a chain, in order."""

    cells: tuple

    def labels(self):
        return tuple(fmt_atom(c) for c in self.cells)


def orbit_space(chain):
    """Cells of the chain stabilizer: rays, points and gaps in order."""
    pts = chain.points
    if not pts:
        return OrbitSpace((_iv(NEG_INF, POS_INF),))
    cells = [_iv(NEG_INF, pts[0])]
    for i, t in enumerate(pts):
        cells.append(_pt(t))
        hi = pts[i + 1] if i + 1 < len(pts) else POS_INF
        cells.append(_iv(t, hi))
    return OrbitSpace(tuple(cells))


def bonding_map(fbig, fsmall):
    """Index map sending each cell of the finer orbit space to the unique
    cell of the coarser one containing it.

    Cell 2k of a chain is the gap below its point k and cell 2k+1 that
    point, so a point t of the finer chain with k coarser points below it
    lies in cell 2k + hit, and the gap above t in cell 2(k + hit), where
    hit says whether t is itself a coarser point."""
    small = fsmall.points
    out = [0]
    hits = 0
    for t in fbig.points:
        k = bisect_left(small, t)
        hit = small[k:k + 1] == (t,)
        hits += hit
        out += (2 * k + hit, 2 * (k + hit))
    if hits != len(small):
        raise PreconditionFailure(
            f"chain {fsmall} is not included in {fbig}")
    return tuple(out)


def saturate(chain, ratset):
    """Union of the stabilizer cells that meet the set, by one merge that
    shares no code with _cells_hit: a cell is kept iff the first atom not
    wholly below it is not wholly above it.  The kept cells are in normal
    form, so the set is built from them as they are."""
    atoms, kept, i = ratset.atoms, [], 0
    for c in orbit_space(chain).cells:
        while i < len(atoms) and _below(atoms[i], c):
            i += 1
        if i < len(atoms) and not _below(c, atoms[i]):
            kept.append(c)
    out = RatSet()
    out.atoms = tuple(kept)
    return out


def _cells_hit(points, s):
    """Indices of the cells of the chain with these points that meet s.

    A point q with k chain points below it lies in cell 2k + hit (as in
    bonding_map), and an open interval (lo, hi) meets the cells from the
    gap above the chain points <= lo to the gap below the first point
    >= hi."""
    hit = set()
    for atom in s.atoms:
        if atom[0] == "pt":
            k = bisect_left(points, atom[1])
            hit.add(2 * k + (points[k:k + 1] == (atom[1],)))
        else:
            hit.update(range(2 * bisect_right(points, atom[1]),
                             2 * bisect_left(points, atom[2]) + 1))
    return hit


def _separating_chain(a, b):
    """The first chain over the endpoints of a and b, by size and then
    lexicographically, no cell of which meets both sets, or None.

    Each gap of a chain (rays included) is a run of cells of the chain of
    all endpoints, and must meet at most one set.  The pass walks those
    cells down from +inf and cuts at the lowest endpoint it can: at the
    point cell that spoils the run, or just above a spoiling gap.  Each
    cut is then at or below the point of the same rank from the top in
    any separating chain, so the chain is the shortest and, among those,
    the lexicographically first."""
    pool = tuple(sorted(set(a.endpoints()) | set(b.endpoints())))
    hits = (_cells_hit(pool, a), _cells_hit(pool, b))
    cuts, run = [], set()
    for c in reversed(range(2 * len(pool) + 1)):
        met = {k for k, hit in enumerate(hits) if c in hit}
        if len(run | met) < 2:
            run |= met
        elif len(met) == 2:
            return None
        else:
            cuts.append(pool[c // 2])
            run = set() if c % 2 else met
    return Chain(tuple(reversed(cuts)))


@dataclass(frozen=True)
class FarVerdict:
    far: bool
    witness: Chain | None

    def __str__(self):
        if not self.far:
            return "near"
        return f"far, witness F={self.witness}"


def decide_far(a, b):
    """Decide farness in the maximal group proximity of the model.

    Intersecting sets are near.  Disjoint sets are far, since the chain of
    all their endpoints separates them; the witness is the first chain
    over those endpoints, by size and then lexicographically, no cell of
    which meets both sets (saturate re-verifies it).  The search raises
    InternalCheckFailure if no endpoint chain separates.
    """
    if a.intersects(b):
        return FarVerdict(False, None)
    chain = _separating_chain(a, b)
    if chain is None:
        raise InternalCheckFailure(
            f"the endpoint chain does not separate disjoint sets {a} and {b}")
    if saturate(chain, a).intersects(saturate(chain, b)):
        raise InternalCheckFailure("witness re-verification failed")
    return FarVerdict(True, chain)


@dataclass(frozen=True)
class Tower:
    """A directed family of chains with all bonding maps between
    comparable levels.  Levels are sorted by (size, points); maps[(i, j)]
    is the cell map from level i down to level j."""

    levels: tuple
    maps: dict

    def top_index(self):
        n = len(self.levels)
        for i in range(n):
            if all((i, j) in self.maps for j in range(n)):
                return i
        raise InternalCheckFailure("directed tower has no top level")

    def threads(self):
        """Compatible cell choices, one per level.  The top level (which
        exists after directed closure) determines every thread."""
        top = self.top_index()
        return tuple(zip(*(self.maps[(top, j)]
                           for j in range(len(self.levels)))))


def build_tower(chains):
    """Close a family of chains under union, build all bonding maps, and
    validate surjectivity, monotonicity and functoriality.

    Chains are bit masks over the sorted input points: union is OR and
    inclusion g & ~f == 0.  The closure takes one input chain at a time: a
    union-closed family stays union-closed after adding c and every union
    with c.  The validations guard the construction itself; a failure is
    an internal error.  A closure of more than TOWER_LEVEL_CAP levels raises
    ResourceCap before any bonding map is built.
    """
    chains = [Chain.of(getattr(c, "points", c)) for c in chains]
    top = sorted({t for c in chains for t in c.points})
    bit = {t: 1 << k for k, t in enumerate(top)}
    family = set()
    for c in chains:
        m = sum(bit[t] for t in c.points)
        family |= {m} | {f | m for f in family}
        if len(family) > TOWER_LEVEL_CAP:
            raise ResourceCap(
                f"tower needs more than {TOWER_LEVEL_CAP} levels")
    masks = sorted(family or {0}, key=lambda f: (
        f.bit_count(), [k for k in range(len(top)) if f >> k & 1]))
    levels = tuple(Chain(tuple(t for t in top if f & bit[t])) for f in masks)
    maps = {}
    for i, f in enumerate(masks):
        for j, g in enumerate(masks):
            if not g & ~f:
                maps[(i, j)] = bonding_map(levels[i], levels[j])
    _validate_tower(levels, maps)
    return Tower(levels, maps)


def _validate_tower(levels, maps):
    """Each map is onto and monotone, and each map (i, j) composed with a
    map (j, k) out of its target equals the map (i, k)."""
    for (i, j), m in maps.items():
        if set(m) != set(range(2 * len(levels[j]) + 1)):
            raise InternalCheckFailure(
                f"bonding {levels[i]} -> {levels[j]} is not surjective")
        if any(m[k] > m[k + 1] for k in range(len(m) - 1)):
            raise InternalCheckFailure(
                f"bonding {levels[i]} -> {levels[j]} is not monotone")
    outs = {}
    for j, k in maps:
        outs.setdefault(j, []).append(k)
    for (i, j), m in maps.items():
        for k in outs.get(j, ()):
            if (i, k) in maps and \
                    maps[(i, k)] != tuple(maps[(j, k)][c] for c in m):
                raise InternalCheckFailure(
                    f"bonding maps do not compose through {levels[j]}")


def tower_dot(tower):
    """Graphviz rendering: one subgraph per level, nodes labeled by cell
    notation, bonding edges (along covering pairs) labeled by the source
    chain."""
    lines = ["digraph tower {"]
    spaces = [orbit_space(f) for f in tower.levels]
    for i, space in enumerate(spaces):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="F={tower.levels[i]}";')
        for c, lab in enumerate(space.labels()):
            lines.append(f'    "L{i}_{c}" [label="{lab}"];')
        lines.append("  }")
    for (i, j), m in sorted(tower.maps.items()):
        if i == j or not _covers(tower, i, j):
            continue
        label = str(tower.levels[i])
        for c, target in enumerate(m):
            lines.append(f'  "L{i}_{c}" -> "L{j}_{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _covers(tower, i, j):
    """Whether level i covers level j in the inclusion order (no level
    strictly between), read from which bonding maps exist."""
    maps = tower.maps
    return (i != j and (i, j) in maps
            and not any((i, k) in maps and (k, j) in maps
                        for k in range(len(tower.levels)) if k not in (i, j)))


@dataclass(frozen=True)
class ClaimResult:
    witness: Chain | None

    @property
    def alarm(self):
        return self.witness is None

    def __str__(self):
        if self.alarm:
            return "ALARM: no chain keeps the saturation inside the target"
        return f"witness F={self.witness}"


def check_ordcomp_claim(a, o):
    """Find a chain whose stabilizer saturation of A stays inside the
    convex set O containing A.

    It is the far search of A and the complement of O.  The chain of O's
    endpoints always works (its cells at or inside them lie in O), so no
    witness is a model-level alarm rather than a normal outcome.
    """
    if not o.is_convex:
        raise PreconditionFailure(f"target set {o} is not convex")
    if not a.issubset(o):
        raise PreconditionFailure(f"{a} is not contained in {o}")
    chain = _separating_chain(a, _outside(o))
    if chain is not None and not saturate(chain, a).issubset(o):
        raise InternalCheckFailure("witness re-verification failed")
    return ClaimResult(chain)


def _outside(o):
    """The complement of a convex set: the rays below and above its one
    component and each end point it leaves out; the whole line if it is
    empty."""
    if o.is_empty:
        return RatSet([_iv(NEG_INF, POS_INF)])
    (lo, lo_in, hi, hi_in), = o.components()
    atoms = [_iv(NEG_INF, lo), _iv(hi, POS_INF)]
    atoms += [_pt(t) for t, t_in in ((lo, lo_in), (hi, hi_in))
              if not (t_in or isinstance(t, float))]
    return RatSet(atoms)


# ---------------------------------------------------------------------------
# Command-line grammar


# ASCII digits only: `Fraction` would also take other Unicode digits, and
# digit-group underscores or spaces around "/" on some Python versions.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_fraction(text):
    """A rational "p/q", "p" or decimal "d.d" in ASCII digits with an
    optional sign, between optional ASCII whitespace.  Exponent notation
    is refused by name, before `Fraction` could build a huge integer from
    it; the document reader takes the same grammar."""
    text = text.strip(" \t\n\r\f\v")
    if "e" in text or "E" in text:
        raise DocumentError(f"bad rational {text!r}: exponents are not "
                            "supported, write p/q")
    if not _RATIONAL.fullmatch(text):
        raise DocumentError(f"bad rational {text!r}: write p/q, p or a "
                            "decimal in ASCII digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {text!r}: {exc}") from None


def _split_atoms(text):
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise DocumentError(f"unbalanced bracket at position {pos}")
        elif ch == "," and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    if depth != 0:
        raise DocumentError("unbalanced brackets")
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def _parse_endpoint(text):
    text = text.strip()
    if text == "-inf":
        return NEG_INF
    if text == "inf":
        return POS_INF
    return parse_fraction(text)


def parse_ratset(text):
    """Grammar: comma-separated atoms; "{p/q}" a point, "(lo,hi)" an open
    interval with "inf"/"-inf" sentinels; "{}" or "" the empty set."""
    text = text.strip()
    if text in ("", "{}"):
        return RatSet()
    atoms = []
    for part in _split_atoms(text):
        if part.startswith("{") and part.endswith("}"):
            atoms.append(_pt(parse_fraction(part[1:-1])))
        elif part.startswith("(") and part.endswith(")"):
            inner = part[1:-1].split(",")
            if len(inner) != 2:
                raise DocumentError(f"interval needs two endpoints: {part!r}")
            lo = _parse_endpoint(inner[0])
            hi = _parse_endpoint(inner[1])
            if not lo < hi:
                raise DocumentError(f"empty or inverted interval: {part!r}")
            atoms.append(_iv(lo, hi))
        else:
            raise DocumentError(f"bad atom {part!r}")
    return RatSet(atoms)


def parse_chain(text):
    """Grammar: "{t1,t2,...}" with rationals in any order, sorted and with
    repeats dropped ("{1,0,1}" is the chain {0,1}); "{}" empty."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise DocumentError(f"chain must be braced: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Chain(())
    return Chain.of(parse_fraction(p) for p in inner.split(","))
