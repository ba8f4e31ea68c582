"""Group-aware proximities derived from a uniformity.

The central construction is the bracket entourage

    [V, eps] = {(x, y) : exists v1, v2 in V with (v1 x, v2 y) in eps}

indexed by a chain level V and a basis entourage eps.  Taken over all
levels and entourages the brackets form the derived basis computed by
compute_ug; its induced proximity must coincide, pair for pair, with the
translate-nearness relation computed by nu_proximity.  The two sides are
computed through independent code paths precisely so that this equality is
a meaningful machine check rather than a tautology of shared code.

Translate nearness and the maximal group proximity are the tables
(`meets_table`) of union-preserving maps of subsets, each fixed by its n
point values, pulled back through V^{-1} by the inverse point masks of
the deepest level (`inverse_masks`); nu reads the basis through its least
entourage θ (`setrel.least_entourage`, tested on its own).  On a
descending chain the deepest level's nu map lies inside every level's,
which `check_descending` asserts point by point.  The bracket side reads
only the forward point masks (`masks`), so the two sides share no
pullback code.

Every group-action verdict compares two tables: it asks
`proximity.first_pair` for the first pair near in one and far in the
other, a pair of points read off their maps.  The tables compared are
pullbacks, q(A, B) = p(VA, VB) for a chain level or one group element V
(`_pullback`), and the pullback of the table of one map is the table of
one map again.  Invariance compares p with its pullback by each
distinct moved generator, compatibility beta_G with p, and the semigroup
upgrade the meet of p's level pullbacks with p.  Equinormality runs the
axiom check on beta_G, and its separation check compares beta_G with the
table of x -> {y : Vy meets Vx} read through the forward point masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor

from . import setrel
from .errors import CarrierMismatch, InternalCheckFailure, PreconditionFailure
from .gaction import FiniteGroup, GActionGerm, NeighborhoodBase, classify, \
    _group_indices
from .proximity import P1_P5, and_not, check_axioms, dominates, \
    first_pair, meets_table
from .setrel import _join_mask
from .uniformity import UnifBase, validate_basis


def bracket_entourage(a, group_subset, eps):
    """The entourage [V, eps] of pairs whose V-translates meet eps."""
    if eps.carrier != a.carrier:
        raise CarrierMismatch("entourage is not over the action's carrier")
    ids = _group_indices(a.group, group_subset)
    return _bracket(a.carrier, a._point_masks(ids), eps)


def _bracket(carrier, vx, eps):
    """[V, eps] from the point translates vx[x] = V.x: row x holds the y
    whose translate V.y meets eps(V.x), one join of eps(V.x) through the
    transpose of vx (z -> {y : z in V.y})."""
    back = setrel._transpose(vx)
    return setrel.Rel.from_masks(
        carrier, [_join_mask(back, eps.image_mask(t)) for t in vx])


def compute_ug(a, u):
    """The derived basis of all bracket entourages [V_i, eps_j].

    Requires a valid basis and a quasibounded uniformity; under those
    hypotheses the output must itself pass the basis conditions (the
    square condition is exactly what quasiboundedness buys), so a failure
    there is an internal error, not an input error.

    The preconditions are checked for each germ, the basis through ν's gate
    (`_valid_theta`), since quasiboundedness reads the group elements.  A
    derived basis that passed its check is kept on u, not in the germ
    cache, since different actions reach the same level point masks, and
    so are each level's brackets, by that level's point masks alone:
    chains share levels, and keyed by the whole chain, suite seed 0 built
    2,289 brackets instead of 995 in the main family and 5,297 instead of
    1,639 in the metric family.
    """
    _valid_theta(a, u)
    require_quasibounded(a, u)
    return u._kept(_checked_brackets, a.masks)


def require_quasibounded(a, u):
    """Raise `PreconditionFailure`, with the classifier's witness, unless
    u is quasibounded under the action, the hypothesis of the identity."""
    cls = classify(a, u)
    if not cls.quasibounded:
        raise PreconditionFailure("uniformity is not quasibounded",
                                  witness=cls.witness("quasibounded"))


def _checked_brackets(u, masks):
    """The derived basis that `compute_ug` keeps once it passes its check."""
    out = UnifBase(u.carrier, [bracket for lem in masks
                               for bracket in u._kept(_level_brackets, lem)])
    check = validate_basis(out)
    if not check.ok():
        name = check.failures()[0]
        raise InternalCheckFailure(
            f"derived bracket basis fails condition {name}: "
            f"{check.counterexample(name)}")
    return out


def _level_brackets(u, lem):
    """The brackets [V, eps] of one level over the basis u, V.x being
    lem[x], kept on u."""
    return tuple(_bracket(u.carrier, lem, eps) for eps in u.basis)


def _valid_theta(a, u):
    """θ of u, once u is checked to be a valid basis over the carrier."""
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    report = validate_basis(u)
    if not report.ok():
        raise PreconditionFailure(
            f"input basis fails condition {report.failures()[0]}",
            witness=report)
    theta = setrel.kept_least_entourage(u)
    if theta is None:
        raise InternalCheckFailure("valid basis without a least entourage")
    return theta


def check_descending(maps):
    """The deepest level's map, once checked to lie inside every level's
    map point by point.  On a descending chain it always does, and then B
    meets every f(A) iff it meets the deepest one; a y in deepest[x] but
    not in f[x] makes ({x}, {y}) a pair on which the whole chain's table
    and the deepest level's differ, so the reduction is asserted rather
    than assumed."""
    deepest = maps[-1]
    for f in maps:
        if any(d & ~v for d, v in zip(deepest, f)):
            raise InternalCheckFailure(
                "translate nearness differs between the full chain and the "
                "deepest level; the chain is not descending")
    return deepest


def nu_proximity(a, u):
    """Translate nearness: A and B are near when at every chain level the
    level translates are near in the proximity induced by u.

    At level V, VA is near VB iff B meets V^{-1} eps(V A) for every
    entourage eps, that is, for the least one θ of the basis, which must
    be valid and over the action's carrier.  That map of A is a composite
    of three union-preserving maps (translate, entourage image, level
    pullback), so it is given by its n point values V^{-1} θ(V x).  The
    table is the deepest level's, once `check_descending` has checked
    its map against every level's.  The basis is checked on every call.
    """
    theta = _valid_theta(a, u)
    return a._kept(_nu_table, theta, a.masks, _inverse_chain(a))


def _inverse_chain(a):
    """The inverse point masks of every level, deepest last."""
    return tuple(map(a.inverse_masks, range(len(a.masks))))


def _nu_table(a, theta, masks, invs):
    """The table that `nu_proximity` keeps."""
    maps = [[_join_mask(v, theta.image_mask(t)) for t in lem]
            for lem, v in zip(masks, invs)]
    return meets_table(a.carrier, check_descending(maps))


def beta_g_proximity(a):
    """The maximal group proximity on a finite discrete carrier:
    A and B are near when their translates overlap at every chain level.

    VA meets VB iff B meets V^{-1}VA, and A -> V^{-1}VA preserves unions,
    so the table has one map, given by its n point pullbacks V^{-1}Vx.
    Overlap at every level is overlap at the deepest, the only level
    read.  The compatibility and separation verdicts read the table too.
    """
    return _betag(a, a.masks[-1], a.inverse_masks(-1))


def _betag(a, lem, inv):
    """β_G of the deepest forward and inverse point masks lem and inv."""
    return a._kept(_betag_table, lem, inv)


def _betag_table(a, lem, inv):
    """The table that `beta_g_proximity` keeps: V.x is lem[x]."""
    return meets_table(a.carrier, [_join_mask(inv, t) for t in lem])


def _check_table(p, a):
    """Refuse a table p that is not over the action's carrier."""
    if p.carrier != a.carrier:
        raise CarrierMismatch("proximity is not over the action's carrier")


def _verdict(pair):
    """(passes, witness) from the first bad pair of `first_pair`."""
    return pair is None, pair


def _pullback(p, fwd, inv):
    """The table q(A, B) = p(VA, VB), where VA is the OR of the forward
    point masks fwd (V.x) over A and inv holds their transpose (V^{-1}.y).

    For the table of one map F, VB meets F(VA) iff B meets V^{-1}F(VA), so
    q is the table of the map x -> V^{-1}F(Vx).
    """
    return meets_table(p.carrier, [_join_mask(inv, _join_mask(p.map, t))
                                   for t in fwd])


def is_g_invariant(p, a):
    """Whether near(A, B) implies near(gA, gB) for every group element.

    The g that keep nearness hold the identity and are closed under the
    product (the action law holds), and each other index outside the
    group's generating set `gens` lies in the closure of the indices
    before it.  So the first g in index order that breaks nearness is a
    generator, and only the generators are scanned, once per distinct
    permutation other than the identity: p must dominate its pullback by
    g, and the witness is the first (g, A, B) in ascending order.
    """
    _check_table(p, a)
    return a._kept(_g_invariant, p.map)


def _g_invariant(a, f):
    """The verdict that `is_g_invariant` keeps for the table of the map f."""
    p = meets_table(a.carrier, f)
    group = a.group
    seen = {tuple(range(a.carrier.n))}
    for g in group.gens:
        if a.act[g] in seen:
            continue
        seen.add(a.act[g])
        pulled = _pullback(p, a._point_masks([g]),
                           a._point_masks([group.inv[g]]))
        pair = first_pair(p, pulled, and_not)
        if pair is not None:
            return False, (group.names[g],) + pair
    return True, None


def is_action_compatible(p, a):
    """Whether every far pair has disjoint translates at some chain level,
    that is, is far in the maximal group proximity: whether beta_G
    dominates p."""
    _check_table(p, a)
    return a._kept(_compatibility, p.map, a.masks[-1], a.inverse_masks(-1))


def _compatibility(a, f, lem, inv):
    """The verdict that `is_action_compatible` keeps for the map f."""
    return _verdict(first_pair(_betag(a, lem, inv),
                               meets_table(a.carrier, f), and_not))


def _candidates(a, lem, inv):
    """Every proximity on the carrier (each a partition one) that is
    invariant and compatible with the action, for a chain whose deepest
    level V has the point masks lem (V.x) and inv (V^{-1}.x), the only
    level compatibility reads.  Kept in the germ cache by those masks, so
    every chain with that deepest level shares the list."""
    return [rho for _blocks, rho in enumerate_partition_proximities(a.carrier)
            if is_g_invariant(rho, a)[0]
            and a._kept(_compatibility, rho.map, lem, inv)[0]]


def semigroup_upgrade(p, a):
    """The strengthened compatibility: every far pair has translates that
    are far (not merely disjoint) at some chain level, so the meet of the
    level pullbacks of p (`_pullback`) must dominate p.

    The pullbacks are nested, the deeper level's map inside the upper's,
    so the meet is the deepest pullback; that is asserted point by point
    (`check_descending`).
    """
    _check_table(p, a)
    return a._kept(_semigroup_upgrade, p.map, a.masks, _inverse_chain(a))


def _semigroup_upgrade(a, f, masks, invs):
    """The verdict that `semigroup_upgrade` keeps for the map f."""
    p = meets_table(a.carrier, f)
    pulled = [_pullback(p, lem, v) for lem, v in zip(masks, invs)]
    meet = meets_table(p.carrier, check_descending([q.map for q in pulled]))
    return _verdict(first_pair(meet, p, and_not))


@dataclass(frozen=True)
class EquinormalReport:
    equinormal: bool
    axioms: object
    separation_ok: bool
    agree: bool

    def lines(self):
        out = [f"equinormal: {'yes' if self.equinormal else 'NO'}"]
        out.extend(self.axioms.lines())
        out.append("pi-disjoint pairs admit pi-disjoint neighborhoods: "
                   + ("pass" if self.separation_ok else "FAIL"))
        return out


def check_equinormal(a):
    """Equinormality of a finite discrete instance.

    The translate-overlap relation is built and run through the full axiom
    check; the verdict is that P1-P5 hold.  The definition is also checked
    directly: every pair of sets with disjoint translates at some level
    (pi-disjoint) must have neighborhoods with the same property.  On a
    discrete carrier every set is an open neighborhood of itself, so the
    pair itself is the canonical witness; _separation_ok re-verifies it
    through the other mask route.  Both read the deepest level only.
    """
    return a._kept(_equinormal, a.masks[-1], a.inverse_masks(-1))


def _equinormal(a, lem, inv):
    """The report that `check_equinormal` keeps."""
    dpi = _betag(a, lem, inv)
    axioms = check_axioms(dpi)
    separation_ok = _separation_ok(dpi, lem)
    equinormal = axioms.ok(P1_P5)
    return EquinormalReport(
        equinormal=equinormal,
        axioms=axioms,
        separation_ok=separation_ok,
        agree=equinormal == separation_ok,
    )


def _separation_ok(dpi, lem):
    """Whether every pi-disjoint pair is witnessed: whether beta_G, the
    table dpi, dominates the table of x -> {y : Vy meets Vx} at the
    deepest level V, V.x being lem[x].

    Disjointness of translates is antitone in V, so (A, B) is pi-disjoint
    exactly when VA misses VB, that is, when it is far in that table, read
    through the forward point masks.  Its canonical neighborhood pair
    (A, B) is disjoint when the pair is far in beta_G, whose map pulls
    back through `inverse_masks`, so the two mask routes stay apart.
    """
    met = [sum(1 << y for y, s in enumerate(lem) if s & t) for t in lem]
    return dominates(dpi, meets_table(dpi.carrier, met))


def is_massive(a, u):
    """Whether the derived bracket basis is totally bounded.

    On a finite carrier every valid basis is: each entourage contains the
    diagonal (B1), so the singletons are a finite cover by small sets.
    compute_ug checks the input basis, quasiboundedness and the derived
    basis, so once it returns the verdict is yes.
    """
    compute_ug(a, u)
    return True


def set_partitions(items):
    """Every partition of the list items into blocks (lists), each once."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield [[head]] + part


def enumerate_partition_proximities(carrier):
    """All proximities on a finite carrier, via set partitions.

    For a relation satisfying P1-P5 on a finite set, nearness of two sets
    is determined by nearness of points (split both sides into singletons
    with P4, then observe that point nearness is transitive thanks to P5).
    So the proximities are exactly: fix a partition, call A and B near when
    their block saturations intersect.  Yields (blocks, prox) pairs.
    """
    els = carrier.elements
    for part in set_partitions(list(els)):
        blocks = tuple(sorted((frozenset(b) for b in part),
                              key=lambda b: min(carrier.index[x] for x in b)))
        block_of = {x: carrier.subset_mask(b) for b in blocks for x in b}
        yield blocks, meets_table(carrier, [block_of[x] for x in els])


def subgroup_germ(a, subgroup):
    """Restrict an action germ to a subgroup, with the subspace chain.

    The chain levels become V_i intersect H; the deepest level stays a
    normal subgroup of H, so the restricted chain is always a valid germ.
    The restricted group and action are checked and built once per action
    and subgroup (`_restricted_action`), and each chain's restriction is
    bound to them by `on_chain`, so the restricted germs of the chains
    share one cache.
    """
    H = _group_indices(a.group, subgroup)
    base = a._kept(_restricted_action, H)
    back = {g: i for i, g in enumerate(sorted(H))}
    levels = [frozenset(back[g] for g in level if g in back)
              for level in a.ne.levels]
    return base.on_chain(NeighborhoodBase(base.group, levels))


def _restricted_action(a, H):
    """The action of the subgroup H (element indices) on the carrier, H's
    elements renumbered in ascending order, over the whole-H chain: the
    germ that `subgroup_germ` keeps.  Refuses an H that misses the
    identity or is not closed under the product."""
    group = a.group
    H = sorted(H)
    if group.e not in H:
        raise ValueError("subgroup must contain the identity")
    back = {g: i for i, g in enumerate(H)}
    for g in H:
        for h in H:
            if group.mul[g][h] not in back:
                raise ValueError(
                    f"not a subgroup: {group.names[g]!r} * {group.names[h]!r} "
                    "falls outside")
    names = tuple(group.names[g] for g in H)
    mul = [[back[group.mul[g][h]] for h in H] for g in H]
    sub = FiniteGroup(names, mul)
    ne = NeighborhoodBase(sub, [range(len(H))])
    return GActionGerm(sub, ne, a.carrier, [a.act[g] for g in H])


def deepest_orbits_coincide(a, subgroup):
    """Whether the subgroup meets every deepest-level orbit relation.

    Compares, point by point, the orbit of the deepest chain level with
    the orbit of its intersection with the subgroup.  When these coincide
    the translate-overlap proximity cannot tell the two groups apart.
    """
    inter = a.deepest & _group_indices(a.group, subgroup)
    return a.masks[-1] == a._point_masks(inter)


def betag_on_subgroup_agrees(a, subgroup):
    """Compare the maximal group proximity with the one computed after
    restricting to a subgroup carrying the subspace germ."""
    full = beta_g_proximity(a)
    restricted = beta_g_proximity(subgroup_germ(a, subgroup))
    return first_pair(full, restricted, xor) is None, full, restricted
