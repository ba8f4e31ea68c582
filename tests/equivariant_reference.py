"""Earlier group-action scans, kept as references for the current ones.

These are the loop-per-bit ``is_g_invariant``, ``check_action_continuity``
and equinormal pair scan that ``eqprox.equivariant`` and ``eqprox.gaction``
used before their scans became whole-row integer operations, and the
``nu_proximity``, ``beta_g_proximity``, ``is_action_compatible`` and
``_separation_ok`` that pulled every subset back through a level one point
at a time before they were built from point-mask join tables, and the
``classify`` (with its helpers) and ``validate_basis`` that tested
containment on ``Rel`` pair sets before they worked on packed pair bits;
``classify_reference`` reads continuity from the scalar
``check_action_continuity_reference`` above and returns its own record,
a dict of (verdict, witness) per verdict name, not the library's report.
The last section keeps the point-at-a-time translates and pullbacks
(``GActionGerm.translate_mask``, ``set_translate_mask`` and ``push_rel``
as functions of the germ, the continuity scan and the ``nu_proximity``
that used them, ``bracket_entourage``, ``deepest_orbits_coincide`` and
the scalar ``_acts_equicontinuously``) from before translates and
pullbacks went through the one mask helper ``setrel._join_mask``.
The closing section keeps the ``nu_proximity`` body that built the table
of every level's map and compared it with the deepest level's table, and
the CLI's ``_entry_reader``, which read an entry over the whole chain and
over the deepest level and compared the two, from before ν became the
table of its deepest level's map, checked point by point, and the
``nu_maps`` and ``beta_g_map`` that gave the maps of the ν and β_G
tables to the CLI and to these references before the tables became
values kept by their call, and the ``subgroup_germ`` that checked and
built the restricted group and action once per chain, before they were
kept once per action and subgroup.
The bodies are kept unchanged, methods taking the germ as ``a``, so
that ``test_equivariant_differential.py`` compares the production code
with the originals, tables, verdicts and witnesses alike.  This is
test-only code: nothing under ``src/`` may import it.
"""

from proximity_reference import RowsTable, _intersectors, _submask_table, \
    and_intersectors, meets_table_reference

from eqprox import setrel
from eqprox.errors import CarrierMismatch, InternalCheckFailure, \
    PreconditionFailure
from eqprox.equivariant import _bracket, _valid_theta
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, \
    _group_indices
from eqprox.proximity import AxiomReport, _join_table
from eqprox.setrel import _join_mask
from eqprox.uniformity import _first_uncovered, validate_basis


def level_translates(a, level_index):
    """trans[m] = mask of V.m for every subset mask m, for chain level V:
    the join table of the level's point masks, the germ method the
    references below read before it was removed."""
    return tuple(_join_table(a.masks[level_index]))


def is_g_invariant_reference(p, a):
    """Whether near(A, B) implies near(gA, gB) for every group element."""
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    rows = p.rows
    for g in range(a.group.order):
        perm = a.act[g]
        maskmap = [0] * N
        for m in range(1, N):
            low = m & -m
            maskmap[m] = maskmap[m ^ low] | (1 << perm[low.bit_length() - 1])
        for am in range(N):
            row = rows[am]
            prow = rows[maskmap[am]]
            bm = row
            while bm:
                low = bm & -bm
                b = low.bit_length() - 1
                if not prow >> maskmap[b] & 1:
                    return False, (a.group.names[g], carrier.mask_subset(am),
                                   carrier.mask_subset(b))
                bm ^= low
    return True, None


def check_action_continuity_reference(a, u):
    """Joint continuity of the action at every (g0, x0), at basis level.

    True iff for all g0, x0 and basis eps there are a chain level V and a
    basis delta with (g0 V) . delta(x0) inside eps(g0 x0).  Returns the
    first violating (g0, x0, eps index) otherwise.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    group = a.group
    n = a.carrier.n
    levels = a.ne.levels
    for g0 in range(group.order):
        p0 = a.act[g0]
        for x0 in range(n):
            for k, eps in enumerate(u.basis):
                target = eps.image_masks[p0[x0]]
                ok = False
                for li in range(len(levels)):
                    v0 = frozenset(group.mul[g0][v] for v in levels[li])
                    for delta in u.basis:
                        moved = set_translate_mask(a, v0, delta.image_masks[x0])
                        if moved | target == target:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
                    return False, (group.names[g0], a.carrier.elements[x0], k)
    return True, None


def equinormal_separation_reference(a):
    """The pair-by-pair separation scan of the old ``check_equinormal``."""
    n = a.carrier.n
    N = 1 << n
    separation_ok = True
    for am in range(N):
        for bm in range(N):
            if not _pi_disjoint(a, am, bm):
                continue
            if _find_pi_disjoint_neighborhoods(a, am, bm) is None:
                separation_ok = False
                break
        if not separation_ok:
            break
    return separation_ok


def _pi_disjoint(a, am, bm):
    for li in range(len(a.ne.levels)):
        if not translate_mask(a, li, am) & translate_mask(a, li, bm):
            return True
    return False


def _find_pi_disjoint_neighborhoods(a, am, bm):
    """Open neighborhoods of the two sets whose translates are disjoint at
    some level.  On a discrete carrier every superset is an open
    neighborhood, and the sets themselves are the smallest candidates."""
    if _pi_disjoint(a, am, bm):
        return am, bm
    return None


# The per-subset pullback versions, before the join tables.

def _level_pullback(a, level_index, mask):
    """V^{-1} m: points whose V-translate meets m."""
    out = 0
    masks = a.inverse_masks(level_index)
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def nu_proximity_reference(a, u):
    """Translate nearness: A and B are near when at every chain level the
    level translates are near in the proximity induced by u.

    All chain levels are evaluated; by monotonicity of translation the
    deepest level alone gives the same table, and that reduction is
    asserted rather than assumed.
    """
    report = validate_basis(u)
    if not report.ok():
        raise PreconditionFailure(
            f"input basis fails condition {report.failures()[0]}",
            witness=report)
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    full_bits = (1 << N) - 1
    levels = range(len(a.ne.levels))

    def rows_for(level_list):
        rows = [full_bits] * N
        for li in level_list:
            trans = level_translates(a, li)
            for eps in u.basis:
                for m in range(N):
                    pull = _level_pullback(a, li, eps.image_mask(trans[m]))
                    rows[m] &= _intersectors(pull, n)
        return rows

    rows = rows_for(list(levels))
    reduced = rows_for([len(a.ne.levels) - 1])
    if rows != reduced:
        raise InternalCheckFailure(
            "translate nearness differs between the full chain and the "
            "deepest level; the chain is not descending")
    return RowsTable(carrier, rows)


def beta_g_proximity_reference(a):
    """The maximal group proximity on a finite discrete carrier:
    A and B are near when their translates overlap at every chain level."""
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    full_bits = (1 << N) - 1
    rows = [full_bits] * N
    for li in range(len(a.ne.levels)):
        trans = level_translates(a, li)
        for m in range(N):
            rows[m] &= _intersectors(_level_pullback(a, li, trans[m]), n)
    return RowsTable(carrier, rows)


def is_action_compatible_reference(p, a):
    """Whether every far pair has disjoint translates at some chain level."""
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    full_bits = (1 << N) - 1
    table = _submask_table(n)
    fulln = N - 1
    disjoint_or = [0] * N
    for li in range(len(a.ne.levels)):
        trans = level_translates(a, li)
        for m in range(N):
            pull = _level_pullback(a, li, trans[m])
            disjoint_or[m] |= table[fulln ^ pull]
    for am in range(N):
        viol = ~p.rows[am] & full_bits & ~disjoint_or[am]
        if viol:
            b = (viol & -viol).bit_length() - 1
            return False, (carrier.mask_subset(am), carrier.mask_subset(b))
    return True, None


def separation_ok_reference(a):
    """Whether every pi-disjoint pair is witnessed, scanned as whole rows.

    For row A and level V, the pi-disjoint partners are the submasks of
    {x : Vx misses VA}, read through the forward point masks; the partners
    whose canonical neighborhood pair (A, B) is disjoint are the submasks
    of the complement of the pullback V^{-1}VA, read through
    inverse_masks.  The scan costs Theta(levels * n * 2**n)
    mask operations and one 2**n-bit OR per row and level, where a pair by
    pair scan costs Theta(levels * n * 4**n).
    """
    n = a.carrier.n
    N = 1 << n
    table = _submask_table(n)
    routes = [(li, level_translates(a, li), lem)
              for li, lem in enumerate(a.masks)]
    for am in range(N):
        disjoint = witnessed = 0
        for li, trans, lem in routes:
            t = trans[am]
            free = 0
            for x in range(n):
                if not lem[x] & t:
                    free |= 1 << x
            disjoint |= table[free]
            witnessed |= table[(N - 1) ^ _level_pullback(a, li, t)]
        if disjoint & ~witnessed:
            return False
    return True


def classify_reference(a, u):
    """Decide all action/uniformity verdicts by exhaustive quantifier search.

    Failure witnesses are the first violating tuples in the fixed scan
    order (basis index, chain level, group index, carrier index), so they
    are reproducible.  Returns, per verdict name, (verdict, witness or
    None).
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
            geps = push_rel(a, g, eps)
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
        if not _bounded_at_reference(a, len(levels) - 1, eps):
            bounded = False
            witnesses["bounded"] = (k,) + _bounded_witness_reference(a, len(levels) - 1, eps)
            break

    quasibounded = True
    for k, eps in enumerate(basis):
        if not any(_quasibounded_at_reference(a, li, delta, eps)
                   for li in range(len(levels)) for delta in basis):
            quasibounded = False
            witnesses["quasibounded"] = (
                (k,) + _quasibounded_witness_reference(a, len(levels) - 1, basis[0], eps))
            break

    equicontinuous = True
    for x0 in range(n):
        for k, eps in enumerate(basis):
            if not any(_equicontinuous_at_reference(a, x0, delta, eps)
                       for delta in basis):
                equicontinuous = False
                witnesses["equicontinuous"] = (a.carrier.elements[x0], k)
                break
        if not equicontinuous:
            break

    uniformly_equicontinuous = True
    for k, eps in enumerate(basis):
        if not any(_uec_at_reference(a, delta, eps) for delta in basis):
            uniformly_equicontinuous = False
            witnesses["uniformly_equicontinuous"] = (k,)
            break

    continuous, cwit = check_action_continuity_reference(a, u)
    if not continuous:
        witnesses["action_continuous"] = cwit

    verdicts = {
        "saturated": saturated,
        "bounded": bounded,
        "quasibounded": quasibounded,
        "equicontinuous": equicontinuous,
        "uniformly_equicontinuous": uniformly_equicontinuous,
        "action_continuous": continuous,
    }
    return {name: (good, witnesses.get(name))
            for name, good in verdicts.items()}


def _bounded_at_reference(a, level_index, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x in range(a.carrier.n):
            if not imgs[p[x]] >> x & 1:
                return False
    return True


def _bounded_witness_reference(a, level_index, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x in range(a.carrier.n):
            if not imgs[p[x]] >> x & 1:
                return (a.group.names[v], a.carrier.elements[x])
    return ()


def _quasibounded_at_reference(a, level_index, delta, eps):
    imgs = eps.image_masks
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x, y in delta.pairs:
            i, j = a.carrier.index[x], a.carrier.index[y]
            if not imgs[p[i]] >> p[j] & 1:
                return False
    return True


def _quasibounded_witness_reference(a, level_index, delta, eps):
    imgs = eps.image_masks
    idx = a.carrier.index
    pairs = sorted(delta.pairs, key=delta._pair_key)
    for v in sorted(a.ne.levels[level_index]):
        p = a.act[v]
        for x, y in pairs:
            if not imgs[p[idx[x]]] >> p[idx[y]] & 1:
                return (a.group.names[v], x, y)
    return ()


def _equicontinuous_at_reference(a, x0, delta, eps):
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


def _uec_at_reference(a, delta, eps):
    imgs = eps.image_masks
    idx = a.carrier.index
    for g in range(a.group.order):
        p = a.act[g]
        for x, y in delta.pairs:
            if not imgs[p[idx[x]]] >> p[idx[y]] & 1:
                return False
    return True


def validate_basis_reference(u):
    """Check the four basis conditions; failures carry the offending entourages."""
    diag = setrel.diagonal(u.carrier).pairs
    basis = u.basis
    results = {}

    results["B1"] = (True, None)
    for k, eps in enumerate(basis):
        missing = diag - eps.pairs
        if missing:
            results["B1"] = (False, (k, min(missing, key=eps._pair_key)))
            break

    results["B2"] = (True, None)
    for k, eps in enumerate(basis):
        inv = setrel.invert(eps)
        if not any(inv.contains(d) for d in basis):
            results["B2"] = (False, (k,))
            break

    results["B3"] = (True, None)
    done = False
    for i, eps in enumerate(basis):
        for j, delta in enumerate(basis):
            meet = eps.pairs & delta.pairs
            if not any(g.pairs <= meet for g in basis):
                results["B3"] = (False, (i, j))
                done = True
                break
        if done:
            break

    results["B4"] = (True, None)
    for k, eps in enumerate(basis):
        if not any(eps.contains(setrel.compose(d, d)) for d in basis):
            results["B4"] = (False, (k,))
            break

    return AxiomReport(results)


# The point-at-a-time translates and pullbacks, before the one mask
# helper.

def translate_mask(a, level_index, mask):
    out = 0
    masks = a.masks[level_index]
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def set_translate_mask(a, subset_indices, mask):
    """Translate a carrier mask by an arbitrary set of group indices."""
    out = 0
    for v in subset_indices:
        p = a.act[v]
        m = mask
        while m:
            low = m & -m
            out |= 1 << p[low.bit_length() - 1]
            m ^= low
    return out


def push_rel(a, g, rel):
    """The translated entourage g.eps = {(g x, g y) : (x, y) in eps}."""
    masks = [0] * a.carrier.n
    for x, m in enumerate(rel.image_masks):
        masks[a.act[g][x]] = set_translate_mask(a, (g,), m)
    return setrel.Rel.from_masks(a.carrier, masks)


def action_continuity_translate_reference(a, u):
    """``check_action_continuity`` with the translates of delta(x0) built
    one mask at a time."""
    n = a.carrier.n
    push = a.push_table(u)
    moved = [[translate_mask(a, li, delta.image_masks[x0])
              for li in range(len(a.ne.levels)) for delta in u.basis]
             for x0 in range(n)]
    for g0 in range(a.group.order):
        pulled = push[a.group.inv[g0]]
        for x0 in range(n):
            k = _first_uncovered([b >> x0 * n for b in pulled], moved[x0])
            if k is not None:
                return False, (a.group.names[g0], a.carrier.elements[x0], k)
    return True, None


def nu_proximity_point_pullback_reference(a, u):
    """Translate nearness: A and B are near when at every chain level the
    level translates are near in the proximity induced by u.

    For level V and entourage eps, VA is near VB iff B meets
    V^{-1} eps(V A).  That map of A is a composite of three
    union-preserving maps (translate, entourage image, level pullback), so
    its table over all 2**n subsets is the join table of its n point
    values.  Each (level, eps) pair costs n pullbacks plus one OR per
    subset and one AND of 2**n-bit integers per row: Theta(levels * |basis|
    * 2**n) operations on 2**n-bit integers in all.

    All chain levels are evaluated; by monotonicity of translation the
    deepest level alone gives the same table, and that reduction is
    asserted rather than assumed: the deepest level's table is kept apart
    and compared with the AND over the whole chain.
    """
    report = validate_basis(u)
    if not report.ok():
        raise PreconditionFailure(
            f"input basis fails condition {report.failures()[0]}",
            witness=report)
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    full_bits = (1 << N) - 1

    def and_level(li, rows):
        lem = a.masks[li]
        for eps in u.basis:
            pull = _join_table([_level_pullback(a, li, eps.image_mask(t))
                                for t in lem])
            and_intersectors(rows, pull, n)
        return rows

    deepest = len(a.ne.levels) - 1
    reduced = and_level(deepest, [full_bits] * N)
    rows = list(reduced)
    for li in range(deepest):
        and_level(li, rows)
    if rows != reduced:
        raise InternalCheckFailure(
            "translate nearness differs between the full chain and the "
            "deepest level; the chain is not descending")
    return RowsTable(carrier, rows)


def bracket_entourage_reference(a, group_subset, eps):
    """The entourage [V, eps] of pairs whose V-translates meet eps."""
    if eps.carrier != a.carrier:
        raise CarrierMismatch("entourage is not over the action's carrier")
    ids = _group_indices(a.group, group_subset)
    return _bracket(a.carrier, [set_translate_mask(a, ids, 1 << x)
                                for x in range(a.carrier.n)], eps)


def deepest_orbits_coincide_reference(a, subgroup):
    """Whether the subgroup meets every deepest-level orbit relation.

    Compares, point by point, the orbit of the deepest chain level with
    the orbit of its intersection with the subgroup.  When these coincide
    the translate-overlap proximity cannot tell the two groups apart.
    """
    group = a.group
    H = _group_indices(group, subgroup)
    deep = a.deepest
    inter = deep & H
    n = a.carrier.n
    for x in range(n):
        full = 0
        part = 0
        for v in deep:
            full |= 1 << a.act[v][x]
        for v in inter:
            part |= 1 << a.act[v][x]
        if full != part:
            return False
    return True


def acts_equicontinuously_reference(a, u, subset_ids):
    """Equicontinuity of a fixed set of group elements, at basis level."""
    n = a.carrier.n
    for x0 in range(n):
        for eps in u.basis:
            imgs = eps.image_masks
            good = False
            for delta in u.basis:
                nbhd = delta.image_masks[x0]
                ok = True
                for g in subset_ids:
                    p = a.act[g]
                    m = nbhd
                    while m and ok:
                        low = m & -m
                        if not imgs[p[x0]] >> p[low.bit_length() - 1] & 1:
                            ok = False
                        m ^= low
                    if not ok:
                        break
                if ok:
                    good = True
                    break
            if not good:
                return False
    return True


def check_descending_reference(full, deepest):
    """Return translate nearness over the whole chain after checking it
    against the deepest level's alone: by monotonicity of translation the
    two agree, and that reduction is asserted rather than assumed."""
    if full != deepest:
        raise InternalCheckFailure(
            "translate nearness differs between the full chain and the "
            "deepest level; the chain is not descending")
    return full


def nu_proximity_two_tables_reference(a, u):
    """The table of every level's `nu_maps` map, checked against the
    deepest level's table, built apart, unless every level has the
    deepest level's map and the two are one computation."""
    maps = nu_maps(a, u)
    full = meets_table_reference(a.carrier, maps)
    if maps.count(maps[-1]) == len(maps):
        return full
    return check_descending_reference(
        full, meets_table_reference(a.carrier, maps[-1:]))


def entry_reader_reference(what, germ, u):
    """read(entry) = entry(maps) on the maps defining the `nu` table (u
    its uniformity) or the `betag` table, for an entry that is one pair's
    verdict (`meets`) or the point block (`meets_points`).  `nu` evaluates
    the entry over the whole chain and over the deepest level, which must
    agree (`check_descending`)."""
    if what == "nu":
        maps = nu_maps(germ, u)
        return lambda entry: check_descending_reference(entry(maps),
                                                        entry(maps[-1:]))
    maps = [beta_g_map(germ)]
    return lambda entry: entry(maps)


def nu_maps(a, u):
    """The maps defining translate nearness, one per chain level.

    At level V, VA is near VB iff B meets V^{-1} eps(V A) for every
    entourage eps, that is, for the least one θ of the basis, which must
    be valid and over the action's carrier.  That map of A is a composite
    of three union-preserving maps (translate, entourage image, level
    pullback), so it is given by its n point values V^{-1} θ(V x), each
    pulled back through the inverse point masks.
    """
    theta = _valid_theta(a, u)
    return [[_join_mask(a.inverse_masks(li), theta.image_mask(t))
             for t in lem] for li, lem in enumerate(a.masks)]


def beta_g_map(a):
    """The map defining the maximal group proximity.

    VA meets VB iff B meets V^{-1}VA, and A -> V^{-1}VA preserves unions,
    so it is given by its n point pullbacks V^{-1}Vx.  Overlap at every
    level is overlap at the deepest, the only level read.
    """
    inv = a.inverse_masks(-1)
    return [_join_mask(inv, t) for t in a.masks[-1]]


def subgroup_germ_reference(a, subgroup):
    """Restrict an action germ to a subgroup, with the subspace chain.

    The chain levels become V_i intersect H; the deepest level stays a
    normal subgroup of H, so the restricted chain is always a valid germ.
    """
    group = a.group
    H = sorted(_group_indices(group, subgroup))
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
    levels = [frozenset(back[g] for g in level if g in back)
              for level in a.ne.levels]
    ne = NeighborhoodBase(sub, levels)
    act = [a.act[g] for g in H]
    return GActionGerm(sub, ne, a.carrier, act)
