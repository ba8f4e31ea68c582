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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import setrel
from .errors import CarrierMismatch
from .proximity import _join_table
from .uniformity import UnifBase

DEFAULT_MAX_GROUP = 48


class FiniteGroup:
    """A finite group given by its multiplication table.

    Associativity, identity and inverses are validated at construction;
    errors name the offending triple.
    """

    __slots__ = ("names", "mul", "inv", "e", "name_index")

    def __init__(self, names, mul, max_size=DEFAULT_MAX_GROUP):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("group element names must be distinct")
        if len(names) > max_size:
            raise ValueError(f"group order {len(names)} exceeds the cap {max_size}")
        k = len(names)
        mul = tuple(tuple(row) for row in mul)
        if len(mul) != k or any(len(row) != k for row in mul):
            raise ValueError("multiplication table must be k x k")
        for row in mul:
            for v in row:
                if not 0 <= v < k:
                    raise ValueError("multiplication table entry out of range")
        e = None
        for i in range(k):
            if all(mul[i][j] == j and mul[j][i] == j for j in range(k)):
                e = i
                break
        if e is None:
            raise ValueError("table has no identity element")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ValueError(
                            "table is not associative at triple "
                            f"({names[a]!r}, {names[b]!r}, {names[c]!r})")
        inv = [None] * k
        for a in range(k):
            for b in range(k):
                if mul[a][b] == e and mul[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {names[a]!r} has no inverse")
        self.names = names
        self.mul = mul
        self.inv = tuple(inv)
        self.e = e
        self.name_index = {nm: i for i, nm in enumerate(names)}

    @property
    def order(self):
        return len(self.names)

    @classmethod
    def cyclic(cls, m):
        names = tuple("e" if i == 0 else f"g{i}" if i > 1 else "g" for i in range(m))
        mul = [[(i + j) % m for j in range(m)] for i in range(m)]
        return cls(names, mul)

    @classmethod
    def from_permutations(cls, perms, max_size=DEFAULT_MAX_GROUP):
        """Close a set of permutations (tuples of images on 0..d-1) under
        composition and return (group, permutation per element index).

        Elements are discovered breadth-first from the identity, so the
        numbering is deterministic.  Names are the one-line images joined
        with dots, the identity being "e".
        """
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("need at least one permutation")
        d = len(perms[0])
        for p in perms:
            if sorted(p) != list(range(d)):
                raise ValueError(f"not a permutation of 0..{d - 1}: {p!r}")
        ident = tuple(range(d))
        found = {ident: 0}
        order = [ident]
        frontier = [ident]
        while frontier:
            nxt = []
            for q in frontier:
                for p in perms:
                    r = tuple(q[p[i]] for i in range(d))
                    if r not in found:
                        if len(found) >= max_size:
                            raise ValueError(
                                f"permutation closure exceeds the cap {max_size}")
                        found[r] = len(order)
                        order.append(r)
                        nxt.append(r)
            frontier = nxt
        k = len(order)
        mul = [[0] * k for _ in range(k)]
        for i, p in enumerate(order):
            for j, q in enumerate(order):
                # p then q as functions acting on the left: (p*q)(x) = p(q(x))
                mul[i][j] = found[tuple(p[q[x]] for x in range(d))]

        def name(p):
            return "e" if p == ident else "p" + "".join(str(x) for x in p)

        return cls(tuple(name(p) for p in order), mul), tuple(order)

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

    @property
    def deepest(self):
        return self.levels[-1]

    def __repr__(self):
        return f"NeighborhoodBase({[sorted(v) for v in self.levels]!r})"


class GActionGerm:
    """A finite group acting on a carrier, together with an identity germ.

    `act` maps each group element index to a permutation of carrier
    indices; the homomorphism law and bijectivity are validated.
    """

    __slots__ = ("group", "ne", "carrier", "act", "__dict__")

    def __init__(self, group, ne, carrier, act):
        if ne.group is not group:
            raise ValueError("neighborhood chain belongs to a different group")
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
        for g in range(group.order):
            for h in range(group.order):
                gh = group.mul[g][h]
                composed = tuple(act[g][act[h][x]] for x in range(n))
                if composed != act[gh]:
                    raise ValueError(
                        "action law fails at pair "
                        f"({group.names[g]!r}, {group.names[h]!r})")
        self.group = group
        self.ne = ne
        self.carrier = carrier
        self.act = act

    def level_elem_masks(self, level_index):
        """For chain level V: masks of the point translates {v.x : v in V}."""
        key = ("lem", level_index)
        cache = self.__dict__.setdefault("_masks", {})
        if key not in cache:
            n = self.carrier.n
            masks = [0] * n
            for v in self.ne.levels[level_index]:
                p = self.act[v]
                for x in range(n):
                    masks[x] |= 1 << p[x]
            cache[key] = tuple(masks)
        return cache[key]

    def level_inverse_elem_masks(self, level_index):
        """Masks of {v^{-1}.x : v in V}, used to pull sets back through a level."""
        key = ("ilem", level_index)
        cache = self.__dict__.setdefault("_masks", {})
        if key not in cache:
            n = self.carrier.n
            inv = self.group.inv
            masks = [0] * n
            for v in self.ne.levels[level_index]:
                p = self.act[inv[v]]
                for x in range(n):
                    masks[x] |= 1 << p[x]
            cache[key] = tuple(masks)
        return cache[key]

    def translate_mask(self, level_index, mask):
        out = 0
        masks = self.level_elem_masks(level_index)
        while mask:
            low = mask & -mask
            out |= masks[low.bit_length() - 1]
            mask ^= low
        return out

    def level_translates(self, level_index):
        """For chain level V: trans[m] = mask of V.m for every subset mask m.

        Translation preserves unions, so the table is the join table of the
        point translate masks, one OR per subset.
        """
        key = ("trans", level_index)
        cache = self.__dict__.setdefault("_masks", {})
        if key not in cache:
            cache[key] = tuple(_join_table(self.level_elem_masks(level_index)))
        return cache[key]

    def set_translate_mask(self, subset_indices, mask):
        """Translate a carrier mask by an arbitrary set of group indices."""
        out = 0
        for v in subset_indices:
            p = self.act[v]
            m = mask
            while m:
                low = m & -m
                out |= 1 << p[low.bit_length() - 1]
                m ^= low
        return out

    def push_rel(self, g, rel):
        """The translated entourage g.eps = {(g x, g y) : (x, y) in eps}."""
        p = self.act[g]
        els = self.carrier.elements
        idx = self.carrier.index
        return setrel.Rel(
            self.carrier,
            ((els[p[idx[x]]], els[p[idx[y]]]) for x, y in rel.pairs))

    def __repr__(self):
        return (f"GActionGerm(group={self.group.order}, n={self.carrier.n}, "
                f"chain={[len(v) for v in self.ne.levels]})")


def translate_set(a, group_subset, subset):
    """VA = {v.x : v in V, x in A} with V given by group element names or indices."""
    ids = _group_indices(a.group, group_subset)
    mask = a.carrier.subset_mask(subset)
    return a.carrier.mask_subset(a.set_translate_mask(ids, mask))


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


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts for how a uniformity interacts with the action.

    The two composite notions are definitional: equiuniform means bounded
    and saturated, pi_uniform means quasibounded and saturated.
    """

    saturated: bool
    bounded: bool
    quasibounded: bool
    equicontinuous: bool
    uniformly_equicontinuous: bool
    action_continuous: bool
    witnesses: dict

    @property
    def equiuniform(self):
        return self.bounded and self.saturated

    @property
    def pi_uniform(self):
        return self.quasibounded and self.saturated

    def lines(self):
        names = ("saturated", "bounded", "quasibounded", "equiuniform",
                 "pi_uniform", "equicontinuous", "uniformly_equicontinuous",
                 "action_continuous")
        out = []
        for name in names:
            good = getattr(self, name)
            mark = "pass" if good else "FAIL"
            wit = self.witnesses.get(name)
            out.append(f"{name}: {mark}" + (f"  witness={wit}" if wit else ""))
        return out


def classify(a, u):
    """Decide all action/uniformity verdicts by exhaustive quantifier search.

    Failure witnesses are the first violating tuples in the fixed scan
    order (basis index, chain level, group index, carrier index), so they
    are reproducible.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    group = a.group
    n = a.carrier.n
    basis = u.basis
    levels = a.ne.levels
    witnesses = {}

    saturated = True
    for g in range(group.order):
        for k, eps in enumerate(basis):
            geps = a.push_rel(g, eps)
            if not any(geps.contains(d) for d in basis):
                saturated = False
                witnesses["saturated"] = (group.names[g], k)
                break
        if not saturated:
            break

    # Boundedness at a chain level is antitone in the level, so the deepest
    # level decides; witnesses come from there.
    bounded = True
    for k, eps in enumerate(basis):
        if not _bounded_at(a, len(levels) - 1, eps):
            bounded = False
            witnesses["bounded"] = (k,) + _bounded_witness(a, len(levels) - 1, eps)
            break

    quasibounded = True
    for k, eps in enumerate(basis):
        if not any(_quasibounded_at(a, li, delta, eps)
                   for li in range(len(levels)) for delta in basis):
            quasibounded = False
            witnesses["quasibounded"] = (
                (k,) + _quasibounded_witness(a, len(levels) - 1, basis[0], eps))
            break

    equicontinuous = True
    for x0 in range(n):
        for k, eps in enumerate(basis):
            if not any(_equicontinuous_at(a, x0, delta, eps)
                       for delta in basis):
                equicontinuous = False
                witnesses["equicontinuous"] = (a.carrier.elements[x0], k)
                break
        if not equicontinuous:
            break

    uniformly_equicontinuous = True
    for k, eps in enumerate(basis):
        if not any(_uec_at(a, delta, eps) for delta in basis):
            uniformly_equicontinuous = False
            witnesses["uniformly_equicontinuous"] = (k,)
            break

    continuous, cwit = check_action_continuity(a, u)
    if not continuous:
        witnesses["action_continuous"] = cwit

    return ClassificationReport(
        saturated=saturated,
        bounded=bounded,
        quasibounded=quasibounded,
        equicontinuous=equicontinuous,
        uniformly_equicontinuous=uniformly_equicontinuous,
        action_continuous=continuous,
        witnesses=witnesses,
    )


def _bounded_at(a, level_index, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x in range(a.carrier.n):
            if not imgs[p[x]] >> x & 1:
                return False
    return True


def _bounded_witness(a, level_index, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x in range(a.carrier.n):
            if not imgs[p[x]] >> x & 1:
                return (a.group.names[v], a.carrier.elements[x])
    return ()


def _quasibounded_at(a, level_index, delta, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x, y in delta.pairs:
            i, j = a.carrier.index[x], a.carrier.index[y]
            if not imgs[p[i]] >> p[j] & 1:
                return False
    return True


def _quasibounded_witness(a, level_index, delta, eps):
    imgs = eps.image_masks
    idx = a.carrier.index
    pairs = sorted(delta.pairs, key=delta._pair_key)
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x, y in pairs:
            if not imgs[p[idx[x]]] >> p[idx[y]] & 1:
                return (a.group.names[v], x, y)
    return ()


def _equicontinuous_at(a, x0, delta, eps):
    nbhd = delta.image_masks[x0]
    imgs = eps.image_masks
    for g in range(a.group.order):
        p = a.act[g]
        m = nbhd
        while m:
            low = m & -m
            x = low.bit_length() - 1
            if not imgs[p[x0]] >> p[x] & 1:
                return False
            m ^= low
    return True


def _uec_at(a, delta, eps):
    imgs = eps.image_masks
    idx = a.carrier.index
    for g in range(a.group.order):
        p = a.act[g]
        for x, y in delta.pairs:
            if not imgs[p[idx[x]]] >> p[idx[y]] & 1:
                return False
    return True


def check_action_continuity(a, u):
    """Joint continuity of the action at every (g0, x0), at basis level.

    True iff for all g0, x0 and basis eps there are a chain level V and a
    basis delta with (g0 V) . delta(x0) inside eps(g0 x0).  Returns the
    first violating (g0, x0, eps index) otherwise.

    The inclusion is tested as V . delta(x0) inside g0^{-1} eps(g0 x0), so
    the translates V . delta(x0) are built once per call, and each
    (g0, x0, eps) costs one pulled-back target and at most
    |levels| * |basis| subset tests.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    group = a.group
    n = a.carrier.n
    moved = [[a.translate_mask(li, delta.image_masks[x0])
              for li in range(len(a.ne.levels)) for delta in u.basis]
             for x0 in range(n)]
    for g0 in range(group.order):
        p0 = a.act[g0]
        back = a.act[group.inv[g0]]
        for x0 in range(n):
            for k, eps in enumerate(u.basis):
                target = eps.image_masks[p0[x0]]
                pulled = 0
                while target:
                    low = target & -target
                    pulled |= 1 << back[low.bit_length() - 1]
                    target ^= low
                if not any(m | pulled == pulled for m in moved[x0]):
                    return False, (group.names[g0], a.carrier.elements[x0], k)
    return True, None


def saturate_uniformity(a, u):
    """Intersect each entourage over all its group translates.

    The resulting basis generates the coarsest saturated refinement built
    from u: each new entourage is invariant under every translation, and
    the four basis conditions survive the intersection.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    out = []
    for eps in u.basis:
        pairs = set(eps.pairs)
        for g in range(a.group.order):
            pairs &= a.push_rel(g, eps).pairs
        out.append(setrel.Rel(u.carrier, pairs))
    return UnifBase(u.carrier, out)
