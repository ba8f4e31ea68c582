"""Finite groups acting on a carrier, with a neighborhood germ at the identity.

The germ of a group topology is modeled by a finite descending chain
V1 >= V2 >= ... >= Vk of subsets of the group, each containing the identity
and satisfying the usual square/inverse/conjugation witness conditions
within the chain.  On a finite chain those conditions force the deepest
level to be a normal subgroup; a chain ending at {e} models a discrete
group, one ending at a bigger subgroup a non-Hausdorff germ.  The
degenerate germs are deliberately representable: they produce the
instructive failure cases for continuity and separatedness.

Group elements are handled by index internally; names only appear at the
I/O edge.

The chain is validated as descending, so its deepest level generates the
identity neighbourhoods and decides every "for some V" quantifier that a
smaller V can only help.  A germ binds its chain once: `deepest` is that
level, and `masks[i]` holds the point masks of V.x for level i, deepest
last.  The point masks of V^{-1}.x, which pull sets back through V, are
a separate route (`inverse_masks(i)`).  The translate V.m or the
pullback V^{-1}.m of one subset mask is the OR of the point masks over m
(`setrel._join_mask`).
"""

from __future__ import annotations

from copy import copy
from functools import reduce
from itertools import combinations
from operator import and_, or_

from . import setrel
from .errors import CarrierMismatch
from .setrel import _join_mask
from .uniformity import UnifBase, _first_uncovered

DEFAULT_MAX_GROUP = 48


class FiniteGroup:
    """A finite group given by its multiplication table.

    Associativity, identity and inverses are validated at construction;
    errors name the offending triple.

    `gens` is a generating set of the table: greedy in index order, each
    index other than the identity not yet in the closure of the earlier
    ones under the product (no group law is assumed).  The identity is
    checked first and is never in `gens`: every test that scans `gens`
    (Light's test, the action law, `is_g_invariant`) holds at it anyway.
    Associativity is decided by Light's test (Clifford & Preston, The
    Algebraic Theory of Semigroups, vol. 1): the middle elements b with
    (ab)c = a(bc) for all a, c hold the identity and are closed under the
    product, so checking b over `gens` decides the table in k * |gens|
    byte translates of k bytes (`_light_test`).  Only when that test fails
    does the full k^3 scan run, so the reported triple is the first one in
    (a, b, c) order.  `mul`, `inv` and `gens` are tuples of ints; byte
    rows live only inside the checks.
    """

    __slots__ = ("names", "mul", "inv", "e", "name_index", "gens")

    def __init__(self, names, mul):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("group element names must be distinct")
        if len(names) > DEFAULT_MAX_GROUP:
            raise ValueError(
                f"group order {len(names)} exceeds the cap {DEFAULT_MAX_GROUP}")
        k = len(names)
        mul = tuple(tuple(row) for row in mul)
        if len(mul) != k or any(len(row) != k for row in mul):
            raise ValueError("multiplication table must be k x k")
        if k and (min(map(min, mul)) < 0 or max(map(max, mul)) >= k):
            raise ValueError("multiplication table entry out of range")
        ident = tuple(range(k))
        e = next((i for i, row in enumerate(mul) if row == ident
                  and tuple(col[i] for col in mul) == ident), None)
        if e is None:
            raise ValueError("table has no identity element")
        gens = _generators(mul, e)
        if not _light_test(mul, gens):
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                            raise ValueError(
                                "table is not associative at triple "
                                f"({names[a]!r}, {names[b]!r}, {names[c]!r})")
        # In a finite associative table with an identity, ab = e forces
        # ba = e, so the first b with ab = e is a's inverse.
        inv = []
        for a, row in enumerate(mul):
            if e not in row:
                raise ValueError(f"element {names[a]!r} has no inverse")
            inv.append(row.index(e))
        self.names = names
        self.mul = mul
        self.inv = tuple(inv)
        self.e = e
        self.name_index = {nm: i for i, nm in enumerate(names)}
        self.gens = gens

    def renamed(self, names):
        """The same validated group with new element names."""
        names = tuple(names)
        if len(names) != self.order or len(set(names)) != len(names):
            raise ValueError("group element names must be distinct")
        out = copy(self)
        out.names = names
        out.name_index = {nm: i for i, nm in enumerate(names)}
        return out

    @property
    def order(self):
        return len(self.names)

    @classmethod
    def cyclic(cls, m):
        names = tuple("e" if i == 0 else f"g{i}" if i > 1 else "g" for i in range(m))
        mul = [[(i + j) % m for j in range(m)] for i in range(m)]
        return cls(names, mul)

    @classmethod
    def from_permutations(cls, perms):
        """Close a set of permutations (tuples of images on 0..d-1) under
        composition and return (group, permutation per element index).

        Elements are discovered breadth-first from the identity, so the
        numbering is deterministic.  Each element is held as a byte row
        while the closure runs, so a composition is one `bytes.translate`
        of d bytes, and the degree d is refused above 256.  The product
        table is filled along the edges the search finds, a column at a
        time: k * len(perms) byte translates of d bytes, then one of k
        bytes per column for a closure of k elements, and one `zip` turns
        the columns into rows.  Names are "p" followed by the one-line
        images, the identity being "e"; above degree 10 the images are
        joined with "." so that no two names coincide.
        """
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("need at least one permutation")
        d = len(perms[0])
        if d > 256:
            raise ValueError(
                f"permutation degree {d} exceeds the limit 256 (one byte "
                "per image)")
        for p in perms:
            if sorted(p) != list(range(d)):
                raise ValueError(f"not a permutation of 0..{d - 1}: {p!r}")
        ident = bytes(range(d))
        found = {ident: 0}
        order = [ident]
        # `order` is also the search queue.  right[i][s] is the element
        # i*perms[s]; each element j > 0 is first found from parent[j] by
        # the generator gen[j], so j = parent[j]*perms[gen[j]].
        right = []
        parent, gen = [0], [0]
        perms = [bytes(p) for p in perms]
        for i, q in enumerate(order):
            table = _translate_table(q)
            row = []
            for s, p in enumerate(perms):
                r = p.translate(table)
                if r not in found:
                    if len(found) >= DEFAULT_MAX_GROUP:
                        raise ValueError("permutation closure exceeds the "
                                         f"cap {DEFAULT_MAX_GROUP}")
                    found[r] = len(order)
                    order.append(r)
                    parent.append(i)
                    gen.append(s)
                row.append(found[r])
            right.append(row)
        # p then q as functions acting on the left: (p*q)(x) = p(q(x)), and
        # i*j = (i*parent[j])*perms[gen[j]] along the tree of first finds:
        # column j is column parent[j] moved by right multiplication with
        # perms[gen[j]], whose column of `right` is by_gen[gen[j]].
        by_gen = list(map(_translate_table, zip(*right)))
        cols = [bytes(range(len(order)))]
        for j in range(1, len(order)):
            cols.append(cols[parent[j]].translate(by_gen[gen[j]]))
        mul = zip(*cols)

        sep = "." if d > 10 else ""

        def name(p):
            return "e" if p == ident else "p" + sep.join(map(str, p))

        return (cls(tuple(name(p) for p in order), mul),
                tuple(map(tuple, order)))

    @classmethod
    def symmetric(cls, m):
        if m > 4:
            raise ValueError("symmetric group constructor capped at degree 4")
        swap = tuple([1, 0] + list(range(2, m))) if m >= 2 else (0,)
        cyc = tuple(list(range(1, m)) + [0])
        group, _ = cls.from_permutations([swap, cyc])
        return group

    def conjugate_set(self, g, subset):
        """g V g^{ -1} for a frozenset of element indices."""
        gi = self.inv[g]
        return frozenset(self.mul[self.mul[g][v]][gi] for v in subset)

    def product_set(self, a, b):
        return frozenset(self.mul[x][y] for x in a for y in b)

    def inverse_set(self, a):
        return frozenset(self.inv[x] for x in a)

    def subgroups(self):
        """All subgroups, as frozensets of indices, smallest first.

        Exponential in the order; intended for the small groups used by the
        verification families.
        """
        if self.order > 12:
            raise ValueError("subgroup enumeration capped at order 12")
        k = self.order
        rest = [i for i in range(k) if i != self.e]
        out = set()
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                s = frozenset((self.e,) + extra)
                if self.product_set(s, s) == s and self.inverse_set(s) == s:
                    out.add(s)
        return sorted(out, key=lambda s: (len(s), sorted(s)))

    def is_normal(self, subset):
        return all(self.conjugate_set(g, subset) == subset
                   for g in range(self.order))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _generators(mul, e):
    """A generating set of the table `mul` with two-sided identity e,
    greedy in index order: each index other than e not yet in the closure
    of e and the earlier ones.

    The closure is built as for any groupoid: every member is multiplied
    on both sides with every member found up to it, so no group law is
    assumed.
    """
    inside = [False] * len(mul)
    inside[e] = True
    closed = []
    gens = []
    for g in range(len(mul)):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        closed.append(g)
        i = len(closed) - 1
        while i < len(closed):
            x = closed[i]
            row = mul[x]
            for y in closed[:i + 1]:
                for z in (row[y], mul[y][x]):
                    if not inside[z]:
                        inside[z] = True
                        closed.append(z)
            i += 1
    return tuple(gens)


def _light_test(mul, gens):
    """Whether (a.b).c == a.(b.c) for every b in gens and all a, c: per
    (a, b), the row of b translated through the row of a as bytes, which
    is the row c -> a.(b.c), against the row of a.b.  k * |gens| byte
    translates of k bytes; every entry is below the order cap 48."""
    rows = [bytes(row) for row in mul]
    tables = list(map(_translate_table, mul))
    for b in gens:
        right = rows[b]
        for row, table in zip(mul, tables):
            if rows[row[b]] != right.translate(table):
                return False
    return True


def _translate_table(row):
    """The 256-byte `bytes.translate` table of a row of indices below 256,
    padded with zeros: p.translate(_translate_table(q)) is the row
    x -> q[p[x]], the composition q o p."""
    return bytes(row).ljust(256, b"\0")


class NeighborhoodBase:
    """A descending chain of identity neighborhoods in a finite group.

    Validation errors name the offending level(s).
    """

    __slots__ = ("group", "levels")

    def __init__(self, group, levels):
        levels = tuple(frozenset(v) for v in levels)
        if not levels:
            raise ValueError("neighborhood chain must be nonempty")
        for li, v in enumerate(levels):
            for g in v:
                if not 0 <= g < group.order:
                    raise ValueError(f"chain level {li} contains a non-element")
            if group.e not in v:
                raise ValueError(f"chain level {li} does not contain the identity")
        for li in range(len(levels) - 1):
            if not levels[li] >= levels[li + 1]:
                raise ValueError(
                    f"chain is not descending between levels {li} and {li + 1}")
        for li, v in enumerate(levels):
            if not any(group.product_set(w, w) <= v and group.inverse_set(w) <= v
                       for w in levels):
                raise ValueError(
                    f"chain level {li} has no square/inverse witness level")
            for g in range(group.order):
                if not any(group.conjugate_set(g, w) <= v for w in levels):
                    raise ValueError(
                        f"chain level {li} has no conjugation witness for "
                        f"element {group.names[g]!r}")
        self.group = group
        self.levels = levels

    def __repr__(self):
        return f"NeighborhoodBase({[sorted(v) for v in self.levels]!r})"


class GActionGerm(setrel.Memo):
    """A finite group acting on a carrier, together with an identity germ.

    `act` maps each group element index to a permutation of carrier
    indices; the homomorphism law and bijectivity are validated.  The law
    act[gh] = act[g] o act[h] is checked for g in the group's generating
    set `gens` and every h: the g it holds for (for all h) are closed
    under the product, by associativity, and hold the identity, which is
    checked to act as the identity first.  Each other index outside `gens`
    lies in the closure of the indices before it, so the first g in index
    order that breaks the law is a generator, and the first failing pair
    of the `gens` scan is the first one of the full (g, h) scan.  Each
    composed row act[g] o act[h] is one `bytes.translate` of n bytes, so
    the law costs k * |gens| byte translates for a group of order k; `act`
    stays a tuple of int tuples.

    The cache of tables and verdicts (`_kept`) belongs to the action, not
    to the chain: a function kept here reads no chain field of the germ
    and takes what it reads of the chain as arguments, which are its key,
    so `on_chain` rebinds the chain and keeps the cache.
    """

    __slots__ = ("group", "ne", "carrier", "act", "deepest", "masks")

    def __init__(self, group, ne, carrier, act):
        act = tuple(tuple(p) for p in act)
        if len(act) != group.order:
            raise ValueError("need one permutation per group element")
        n = carrier.n
        for g, p in enumerate(act):
            if sorted(p) != list(range(n)):
                raise ValueError(
                    f"action of {group.names[g]!r} is not a carrier permutation")
        if act[group.e] != tuple(range(n)):
            raise ValueError("identity must act as the identity permutation")
        rows = [bytes(p) for p in act]
        for g in group.gens:
            table = _translate_table(act[g])
            for h, gh in enumerate(group.mul[g]):
                if rows[h].translate(table) != rows[gh]:
                    raise ValueError(
                        "action law fails at pair "
                        f"({group.names[g]!r}, {group.names[h]!r})")
        self.group = group
        self.carrier = carrier
        self.act = act
        super().__init__()
        self._bind(ne)

    def on_chain(self, ne):
        """This action with the chain ne of the same group in place of its
        own, sharing this germ's cache.  The action law is not checked
        again; a chain of another group raises as the constructor does."""
        out = copy(self)
        out._bind(ne)
        return out

    def _bind(self, ne):
        """Take ne as the chain: `deepest` is its deepest level and
        `masks[i]` the point masks {v.x : v in level i} of every level,
        deepest last, each built once per level value in the cache."""
        if ne.group is not self.group:
            raise ValueError("neighborhood chain belongs to a different group")
        self.ne = ne
        self.deepest = ne.levels[-1]
        self.masks = tuple(self._kept(_level_masks, level)
                           for level in ne.levels)

    def inverse_masks(self, level_index):
        """Masks of {v^{-1}.x : v in V} for chain level V, used to pull sets
        back through V: the transpose of `masks[level_index]`."""
        return self._kept(_inverse_level_masks, self.ne.levels[level_index])

    def _point_masks(self, elems):
        n = self.carrier.n
        masks = [0] * n
        for v in elems:
            p = self.act[v]
            for x in range(n):
                masks[x] |= 1 << p[x]
        return tuple(masks)

    def push_table(self, u):
        """push[g][k] = g.eps_k as pair bits (`Rel.pair_bits`), for every
        group element g and entourage eps_k of the basis u.

        Theta(|G| * |basis| * n**2) bit operations, once per action and
        basis value: each g moves the n*n pair cells, and each pushed
        entourage is the OR of its moved cells.  The table does not read
        the chain.
        """
        return self._kept(_push_table, u)

    def __repr__(self):
        return (f"GActionGerm(group={self.group.order}, n={self.carrier.n}, "
                f"chain={[len(v) for v in self.ne.levels]})")


def _level_masks(a, level):
    """The point masks {v.x : v in level} that `masks` holds."""
    return a._point_masks(level)


def _inverse_level_masks(a, level):
    """The point masks {v^{-1}.x : v in level} of `inverse_masks`."""
    inv = a.group.inv
    return a._point_masks(inv[v] for v in level)


def _push_table(a, u):
    """The table that `GActionGerm.push_table` keeps."""
    n = a.carrier.n
    cells = [[c for c in range(n * n) if eps.pair_bits >> c & 1]
             for eps in u.basis]
    table = []
    for p in a.act:
        moved = [1 << p[c // n] * n + p[c % n] for c in range(n * n)]
        table.append(tuple(sum(map(moved.__getitem__, cs)) for cs in cells))
    return tuple(table)


def _group_indices(group, subset):
    out = []
    for v in subset:
        if isinstance(v, int) and not isinstance(v, bool) and 0 <= v < group.order:
            out.append(v)
        elif v in group.name_index:
            out.append(group.name_index[v])
        else:
            raise ValueError(f"not a group element: {v!r}")
    return frozenset(out)


# The verdicts of `classify`, in report order.
VERDICTS = ("saturated", "bounded", "quasibounded", "equicontinuous",
            "uniformly_equicontinuous", "action_continuous")


def _verdict(name):
    """The report property that reads verdict `name`."""
    return property(lambda self: self.witness(name) is None)


class ClassificationReport:
    """Verdicts for how a uniformity interacts with the action, each
    decided the first time it is read (see `classify`).

    A verdict holds when its witness is None.  The two composite notions
    are definitional and read only their two parts: equiuniform means
    bounded and saturated, pi_uniform means quasibounded and saturated.
    `witnesses`, `lines` and `==` decide all six verdicts.
    """

    __slots__ = ("germ", "uniformity")

    def __init__(self, germ, uniformity):
        self.germ = germ
        self.uniformity = uniformity

    saturated = _verdict("saturated")
    bounded = _verdict("bounded")
    quasibounded = _verdict("quasibounded")
    equicontinuous = _verdict("equicontinuous")
    uniformly_equicontinuous = _verdict("uniformly_equicontinuous")
    action_continuous = _verdict("action_continuous")

    def witness(self, name):
        """The first failure witness of verdict `name`, or None when it
        holds; searched once per action and the values its search reads."""
        return _SEARCHES[name](self.germ, self.uniformity)

    @property
    def witnesses(self):
        """The witness of every failing verdict, in verdict order."""
        return {name: wit for name in VERDICTS
                if (wit := self.witness(name)) is not None}

    @property
    def equiuniform(self):
        return self.bounded and self.saturated

    @property
    def pi_uniform(self):
        return self.quasibounded and self.saturated

    def __eq__(self, other):
        if not isinstance(other, ClassificationReport):
            return NotImplemented
        return self.witnesses == other.witnesses

    def __repr__(self):
        return f"ClassificationReport(witnesses={self.witnesses!r})"

    def lines(self):
        names = ("saturated", "bounded", "quasibounded", "equiuniform",
                 "pi_uniform", "equicontinuous", "uniformly_equicontinuous",
                 "action_continuous")
        witnesses = self.witnesses
        out = []
        for name in names:
            good = getattr(self, name)
            mark = "pass" if good else "FAIL"
            wit = witnesses.get(name)
            out.append(f"{name}: {mark}" + (f"  witness={wit}" if wit else ""))
        return out


def classify(a, u):
    """The action/uniformity verdicts, each decided by exhaustive
    quantifier search the first time it is read.

    Failure witnesses are the first violating tuples in the fixed scan
    order (basis index, group index, carrier index), so they are
    reproducible; the chain quantifiers read the deepest level (`deepest`).

    The quantifiers run on the push table of the setting
    (`GActionGerm.push_table`, Theta(|G| * |basis| * n**2) bit operations),
    one AND of packed pair bits per containment test: saturated asks each
    g.eps to contain a basis entourage, quasibounded ORs the table over
    the deepest level, and (uniform) equicontinuity ANDs it over the group
    into the pairs that every translate keeps in eps.

    Each verdict's witness (None when it holds) is kept in the action's
    germ cache, so a verdict is searched once per action and the values
    its search reads, shared by every chain of the action
    (`GActionGerm.on_chain`), and a verdict that is never read is never
    searched.  The report holds only the germ and the basis and is not
    kept in the cache, where it would hold its own germ in a cycle.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    return ClassificationReport(a, u)


def _saturation_witness(a, u):
    """The first (g, k) with no basis entourage inside g.eps_k."""
    bits = [eps.pair_bits for eps in u.basis]
    for g, row in enumerate(a.push_table(u)):
        k = _first_uncovered(row, bits)
        if k is not None:
            return (a.group.names[g], k)
    return None


def _boundedness_witness(a, u, deepest):
    """The first eps_k the deepest level does not bound, with its pair."""
    for k, eps in enumerate(u.basis):
        wit = _unbounded_pair(a, deepest, eps)
        if wit is not None:
            return (k,) + wit
    return None


def _quasiboundedness_witness(a, u, deepest):
    """The first eps_k that no deepest-level spread of a basis entourage
    fits in, with the first pair that moves basis[0] out of it."""
    basis = u.basis
    push = a.push_table(u)
    spread = _fold(or_, (push[v] for v in deepest))
    k = _first_uncovered([eps.pair_bits for eps in basis], spread)
    if k is None:
        return None
    return (k,) + _spread_pair(a, deepest, basis[0], basis[k])


def _group_equicontinuity_witness(a, u):
    """The equicontinuity witness of the whole group."""
    return _equicontinuity_witness(a, u.basis, _kept_pairs(a, u))


def _uniform_equicontinuity_witness(a, u):
    """(k,) for the first eps_k in which no basis entourage is kept by
    every translate."""
    k = _first_uncovered(_kept_pairs(a, u),
                         [eps.pair_bits for eps in u.basis])
    return None if k is None else (k,)


# Each verdict's witness for the germ a and the basis u, kept in the cache.
_SEARCHES = {
    "saturated": lambda a, u: a._kept(_saturation_witness, u),
    "bounded": lambda a, u: a._kept(_boundedness_witness, u, a.deepest),
    "quasibounded": lambda a, u: a._kept(_quasiboundedness_witness, u,
                                         a.deepest),
    "equicontinuous": lambda a, u: a._kept(_group_equicontinuity_witness, u),
    "uniformly_equicontinuous": lambda a, u: a._kept(
        _uniform_equicontinuity_witness, u),
    "action_continuous": lambda a, u: check_action_continuity(a, u)[1],
}


def _kept_pairs(a, u):
    """kept[k]: the pairs of eps_k that every translate keeps in eps_k, as
    pair bits: the AND of the push table over the group."""
    return _fold(and_, a.push_table(u))


def _fold(op, rows):
    """Entrywise op over equal-length rows of integers."""
    return [reduce(op, col) for col in zip(*rows)]


def _equicontinuity_witness(a, basis, kept):
    """The first (x0, k) in index order such that no basis delta has
    {x0} x delta(x0) inside kept[k], or None.

    kept[k] holds, as pair bits, the pairs of eps_k that a set of
    translates keeps in eps_k: the AND of the push-table entries of the
    set's inverses.  None means the set acts equicontinuously.
    """
    n = a.carrier.n
    for x0 in range(n):
        k = _first_uncovered([core >> x0 * n for core in kept],
                             [delta.image_masks[x0] for delta in basis])
        if k is not None:
            return (a.carrier.elements[x0], k)
    return None


def _unbounded_pair(a, deepest, eps):
    """The first (v, x) with (v.x, x) outside eps, v in the deepest level
    and x in index order, or None when that level is eps-bounded."""
    imgs = eps.image_masks
    for v in sorted(deepest):
        p = a.act[v]
        for x in range(a.carrier.n):
            if not imgs[p[x]] >> x & 1:
                return (a.group.names[v], a.carrier.elements[x])
    return None


def _spread_pair(a, deepest, delta, eps):
    """The first (v, x, y) with (v.x, v.y) outside eps, v in the deepest
    level and (x, y) in delta in index order, or None when v.delta lies
    inside eps for every v in that level."""
    n = a.carrier.n
    els = a.carrier.elements
    for v in sorted(deepest):
        p = a.act[v]
        cells = delta.pair_bits
        while cells:
            i, j = divmod((cells & -cells).bit_length() - 1, n)
            if not eps.pair_bits >> p[i] * n + p[j] & 1:
                return (a.group.names[v], els[i], els[j])
            cells &= cells - 1
    return None


def check_action_continuity(a, u):
    """Joint continuity of the action at every (g0, x0), at basis level.

    True iff for all g0, x0 and basis eps there are a chain level V and a
    basis delta with (g0 V) . delta(x0) inside eps(g0 x0).  Returns the
    first violating (g0, x0, eps index) otherwise.  A smaller V only
    helps, so the deepest level decides and is the only one built.

    The inclusion is tested as V . delta(x0) inside g0^{-1} eps(g0 x0),
    whose target t is row x0 of g0^{-1}.eps in the push table
    (`GActionGerm.push_table`, shared with `classify`).  For each x0 the
    parts V . delta(x0) are built once; (g0, x0, eps) fails when every
    part meets the complement of t, one AND per part.  `classify` reads
    the verdict, which is kept in the germ cache.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    return a._kept(_action_continuity, u, a.masks[-1])


def _action_continuity(a, u, lem):
    """The verdict that `check_action_continuity` keeps, V.x being lem[x]."""
    n = a.carrier.n
    push = a.push_table(u)
    parts = [[_join_mask(lem, delta.image_masks[x0]) for delta in u.basis]
             for x0 in range(n)]
    for g0 in range(a.group.order):
        pulled = push[a.group.inv[g0]]
        for x0 in range(n):
            shift = x0 * n
            for k, b in enumerate(pulled):
                outside = ~(b >> shift)
                for part in parts[x0]:
                    if not part & outside:
                        break
                else:
                    return False, (a.group.names[g0], a.carrier.elements[x0],
                                   k)
    return True, None


def saturate_uniformity(a, u):
    """Intersect each entourage over all its group translates.

    The resulting basis generates the coarsest saturated refinement built
    from u: each new entourage is invariant under every translation, and
    the four basis conditions survive the intersection.  The intersections
    are the ANDs of the push table over the group (the table is shared
    with `classify`), cut back into image masks.  The push table reads no
    chain, so every chain of the action gets the same basis object back.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    return a._kept(_saturated_basis, u)


def _saturated_basis(a, u):
    """The basis that `saturate_uniformity` keeps."""
    n = u.carrier.n
    full = u.carrier.full_mask
    return UnifBase(u.carrier, [
        setrel.Rel.from_masks(u.carrier,
                              [bits >> i * n & full for i in range(n)])
        for bits in _kept_pairs(a, u)])
