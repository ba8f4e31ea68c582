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
validator's first failure.  ``saturate_reference`` is the body of
``rationals.saturate`` from before it located cells by bisection: it tests
every cell of the orbit space against the set.  This is test-only code:
nothing under ``src/`` may import it.
"""

from fractions import Fraction

from eqprox.errors import InternalCheckFailure, PreconditionFailure, \
    ResourceCap
from eqprox.rationals import TOWER_LEVEL_CAP, Chain, RatSet, Tower, \
    _Infinity, orbit_space


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
    if isinstance(lo, _Infinity) and isinstance(hi, _Infinity):
        return Fraction(0)
    if isinstance(lo, _Infinity):
        return hi - 1
    if isinstance(hi, _Infinity):
        return lo + 1
    return (lo + hi) / 2


def bonding_map_reference(fbig, fsmall):
    """Index map sending each cell of the finer orbit space to the unique
    cell of the coarser one containing it."""
    if not fsmall.issubset(fbig):
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
                u = f.union(g)
                if u not in family:
                    family.add(u)
                    changed = True
    levels = tuple(sorted(family, key=lambda f: (len(f), f.points)))
    maps = {}
    for i, f in enumerate(levels):
        for j, g in enumerate(levels):
            if g.issubset(f):
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
    if not (fj.issubset(fi) and fi != fj):
        return False
    for k, fk in enumerate(tower.levels):
        if k in (i, j):
            continue
        if fj.issubset(fk) and fk.issubset(fi) and fk != fi and fk != fj:
            return False
    return True


def top_index_reference(tower):
    for i, f in enumerate(tower.levels):
        if all(g.issubset(f) for g in tower.levels):
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


def saturate_reference(chain, ratset):
    """Union of the stabilizer cells that meet the set."""
    cells = orbit_space(chain).cells
    hit = [c for c in cells if ratset.intersects(RatSet([c]))]
    return RatSet(hit)
