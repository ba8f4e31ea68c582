"""The value-based tower construction, kept as a reference.

These are the bodies of ``rationals.bonding_map`` (a cell representative
per finer cell, located by a linear scan over the coarser cells with
``Fraction`` comparisons), the fixpoint union closure and the bonding
maps of ``build_tower``, ``_validate_tower`` (every map paired with every
other one), ``tower_dot``, ``_covers`` and ``Tower.threads`` (inclusion
read from the chains) from before the tower layer moved to chain
positions and level indices.  They are kept unchanged but for a
``_reference`` suffix (the two ``Tower`` methods as functions of the
tower), so that ``test_rationals_differential.py`` compares the current
code with the originals: levels, maps, threads, DOT text and the
validator's first failure.  ``chain_issubset_reference`` and
``chain_union_reference`` are the bodies of the ``Chain.issubset`` and
``Chain.union`` methods these functions called.

``decide_far_reference`` and ``check_ordcomp_claim_reference`` are the
chain-by-chain searches from before both became one search over cell
indices: each tried chain is built as a ``Chain``, its saturations as
``RatSet``s (by ``saturate_by_bisection_reference``, the bisection body of
``rationals.saturate`` from that time), and a far witness is re-checked
through ``ratset_intersection_reference`` (``RatSet.intersection`` with
``_atom_intersection_reference``).  They too are kept unchanged but for
the suffix, with ``FAR_CHAIN_CAP``, the cap of the far search at that time,
now defined here.  ``normalize_reference`` is the body of
``rationals._normalize`` from before it located each point by bisection,
when it tested every point against every merged interval; it sorts with
``_sort_key`` and ``_atom_start``, private copies of the ``rationals``
helpers of that time, which placed an infinite endpoint by its sign (here
read by equality with ``NEG_INF`` and ``POS_INF``).  This is test-only
code: nothing under ``src/`` may import it.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations

from eqprox.errors import InternalCheckFailure, PreconditionFailure, \
    ResourceCap
from eqprox.rationals import NEG_INF, POS_INF, TOWER_LEVEL_CAP, Chain, \
    ClaimResult, FarVerdict, RatSet, Tower, _iv, _pt, orbit_space

FAR_CHAIN_CAP = 4096


def _sort_key(v):
    if v == NEG_INF:
        return (-1, Fraction(0))
    if v == POS_INF:
        return (1, Fraction(0))
    return (0, v)


def _atom_start(atom):
    return atom[1]


def normalize_reference(atoms):
    ivs = []
    pts = set()
    for a in atoms:
        if a[0] == "pt":
            pts.add(a[1])
        elif a[1] < a[2]:
            ivs.append(a)
    ivs.sort(key=lambda a: (_sort_key(a[1]), _sort_key(a[2])))
    merged = []
    for a in ivs:
        if merged and a[1] < merged[-1][2]:
            if a[2] > merged[-1][2]:
                merged[-1] = _iv(merged[-1][1], a[2])
        else:
            merged.append(a)
    kept = [_pt(q) for q in pts
            if not any(iv[1] < q < iv[2] for iv in merged)]
    out = merged + kept
    out.sort(key=lambda a: (_sort_key(_atom_start(a)), 0 if a[0] == "pt" else 1))
    return tuple(out)


def chain_issubset_reference(f, g):
    return set(f.points) <= set(g.points)


def chain_union_reference(f, g):
    return Chain.of(f.points + g.points)


def cell_index_of_value_reference(space, q):
    q = Fraction(q)
    for i, cell in enumerate(space.cells):
        if cell[0] == "pt":
            if cell[1] == q:
                return i
        elif cell[1] < q < cell[2]:
            return i
    raise InternalCheckFailure("cells do not partition the rationals")


def _cell_representative_reference(cell):
    if cell[0] == "pt":
        return cell[1]
    lo, hi = cell[1], cell[2]
    if lo == NEG_INF and hi == POS_INF:
        return Fraction(0)
    if lo == NEG_INF:
        return hi - 1
    if hi == POS_INF:
        return lo + 1
    return (lo + hi) / 2


def bonding_map_reference(fbig, fsmall):
    """Index map sending each cell of the finer orbit space to the unique
    cell of the coarser one containing it."""
    if not chain_issubset_reference(fsmall, fbig):
        raise PreconditionFailure(
            f"chain {fsmall} is not included in {fbig}")
    big = orbit_space(fbig)
    small = orbit_space(fsmall)
    return tuple(cell_index_of_value_reference(
        small, _cell_representative_reference(c)) for c in big.cells)


def build_tower_reference(chains):
    """Close a family of chains under union, build all bonding maps, and
    validate surjectivity, monotonicity and functoriality.

    The validations guard the construction itself; a failure is an
    internal error.  A closure of more than TOWER_LEVEL_CAP levels raises
    ResourceCap before any bonding map is built.
    """
    family = {Chain.of(c.points) if isinstance(c, Chain) else Chain.of(c)
              for c in chains}
    if not family:
        family = {Chain(())}
    changed = True
    while changed:
        changed = False
        for f in list(family):
            if len(family) > TOWER_LEVEL_CAP:
                raise ResourceCap(
                    f"tower needs more than {TOWER_LEVEL_CAP} levels")
            for g in list(family):
                u = chain_union_reference(f, g)
                if u not in family:
                    family.add(u)
                    changed = True
    levels = tuple(sorted(family, key=lambda f: (len(f), f.points)))
    maps = {}
    for i, f in enumerate(levels):
        for j, g in enumerate(levels):
            if chain_issubset_reference(g, f):
                maps[(i, j)] = bonding_map_reference(f, g)
    _validate_tower_reference(levels, maps)
    return Tower(levels, maps)


def _validate_tower_reference(levels, maps):
    for (i, j), m in maps.items():
        small = orbit_space(levels[j])
        if set(m) != set(range(len(small.cells))):
            raise InternalCheckFailure(
                f"bonding {levels[i]} -> {levels[j]} is not surjective")
        if any(m[k] > m[k + 1] for k in range(len(m) - 1)):
            raise InternalCheckFailure(
                f"bonding {levels[i]} -> {levels[j]} is not monotone")
    for (i, j) in maps:
        for (j2, k) in maps:
            if j2 != j or (i, k) not in maps:
                continue
            direct = maps[(i, k)]
            composed = tuple(maps[(j, k)][c] for c in maps[(i, j)])
            if direct != composed:
                raise InternalCheckFailure(
                    f"bonding maps do not compose through {levels[j]}")


def tower_dot_reference(tower):
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
        if i == j or not _covers_reference(tower, i, j):
            continue
        label = str(tower.levels[i])
        for c, target in enumerate(m):
            lines.append(f'  "L{i}_{c}" -> "L{j}_{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _covers_reference(tower, i, j):
    """Whether level i covers level j in the inclusion order (no level
    strictly between)."""
    fi, fj = tower.levels[i], tower.levels[j]
    if not (chain_issubset_reference(fj, fi) and fi != fj):
        return False
    for k, fk in enumerate(tower.levels):
        if k in (i, j):
            continue
        if chain_issubset_reference(fj, fk) and \
                chain_issubset_reference(fk, fi) and fk != fi and fk != fj:
            return False
    return True


def top_index_reference(tower):
    for i, f in enumerate(tower.levels):
        if all(chain_issubset_reference(g, f) for g in tower.levels):
            return i
    raise InternalCheckFailure("directed tower has no top level")


def threads_reference(tower):
    """Compatible cell choices, one per level.  The top level (which
    exists after directed closure) determines every thread."""
    top = top_index_reference(tower)
    spaces = [orbit_space(f) for f in tower.levels]
    out = []
    for c in range(len(spaces[top].cells)):
        thread = []
        for j in range(len(tower.levels)):
            if j == top:
                thread.append(c)
            else:
                thread.append(tower.maps[(top, j)][c])
        out.append(tuple(thread))
    return tuple(out)


def saturate_by_bisection_reference(chain, ratset):
    """Union of the stabilizer cells that meet the set.

    A point q with k chain points below it lies in cell 2k + hit (as in
    bonding_map), and an open interval (lo, hi) meets the cells from the
    gap above the chain points <= lo to the gap below the first point
    >= hi."""
    pts = chain.points
    hit = set()
    for atom in ratset.atoms:
        if atom[0] == "pt":
            k = bisect_left(pts, atom[1])
            hit.add(2 * k + (pts[k:k + 1] == (atom[1],)))
        else:
            hit.update(range(2 * bisect_right(pts, atom[1]),
                             2 * bisect_left(pts, atom[2]) + 1))
    cells = orbit_space(chain).cells
    return RatSet([cells[i] for i in hit])


def _atom_intersection_reference(a, b):
    if a[0] == "pt" and b[0] == "pt":
        return a if a[1] == b[1] else None
    if a[0] == "pt":
        a, b = b, a
    if b[0] == "pt":
        return b if a[1] < b[1] < a[2] else None
    lo = a[1] if a[1] > b[1] else b[1]
    hi = a[2] if a[2] < b[2] else b[2]
    return _iv(lo, hi) if lo < hi else None


def ratset_intersection_reference(self, other):
    out = []
    for a in self.atoms:
        for b in other.atoms:
            c = _atom_intersection_reference(a, b)
            if c is not None:
                out.append(c)
    return RatSet(out)


def decide_far_reference(a, b):
    """Decide farness in the maximal group proximity of the model.

    Intersecting sets are near.  Disjoint sets are far, since the chain of
    all their endpoints separates them; the witness is the first chain
    over those endpoints, by size and then lexicographically, with
    disjoint saturations (re-verified).  The search raises ResourceCap
    after FAR_CHAIN_CAP chains, and InternalCheckFailure if no endpoint
    chain separates.
    """
    if a.intersects(b):
        return FarVerdict(False, None)
    pool = sorted(set(a.endpoints()) | set(b.endpoints()))
    combos = (c for size in range(len(pool) + 1)
              for c in combinations(pool, size))
    for tried, combo in enumerate(combos):
        if tried == FAR_CHAIN_CAP:
            raise ResourceCap(
                f"far search needs more than {FAR_CHAIN_CAP} chains")
        chain = Chain(combo)
        sa, sb = (saturate_by_bisection_reference(chain, a),
                  saturate_by_bisection_reference(chain, b))
        if not sa.intersects(sb):
            # Re-verify soundness through the other intersection path.
            if not ratset_intersection_reference(sa, sb).is_empty:
                raise InternalCheckFailure("witness re-verification failed")
            return FarVerdict(True, chain)
    raise InternalCheckFailure(
        f"the endpoint chain does not separate disjoint sets {a} and {b}")


def check_ordcomp_claim_reference(a, o):
    """Find a chain whose stabilizer saturation of A stays inside the
    convex set O containing A.

    The chain endpoints of O always work (cells at or inside O's endpoints
    are contained in O), so exhaustion of the endpoint subsets without a
    witness is a model-level alarm rather than a normal outcome.
    """
    if not o.is_convex:
        raise PreconditionFailure(f"target set {o} is not convex")
    if not a.issubset(o):
        raise PreconditionFailure(f"{a} is not contained in {o}")
    pool = sorted(set(a.endpoints()) | set(o.endpoints()))
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            chain = Chain(combo)
            if saturate_by_bisection_reference(chain, a).issubset(o):
                return ClaimResult(chain)
    return ClaimResult(None)
