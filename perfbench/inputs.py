"""Seeded inputs for the benchmark, written through the public formats only.

Instance documents follow the JSON schema of the README; rational sets
and chains are grammar strings.  Nothing here imports eqprox: the program
sees only what this module emits.  Every instance is built to meet the
preconditions of the command it is fed to:

* the deepest chain level is a normal subgroup N, the upper level (if
  any) is N plus further elements, so the chain is always valid;
* every basis entourage is a union of products C_i x C_j of the classes
  of a G-invariant equivalence theta whose classes are unions of G-orbits,
  and contains theta.  Such a basis is valid, saturated, quasibounded and
  makes the action continuous, so `nu`, `ug` and `massive` accept it and
  the paper's identity nu = delta(U_G) holds on it;
* rational-set pairs are disjoint or intersecting by construction, and a
  claim's set A lies inside its convex target O.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

CARRIER_CAP = 12


def _compose(p, q):
    """p after q, as tuples of images."""
    return tuple(p[x] for x in q)


def _cycle_perm(n, cycles):
    p = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


class _Group:
    """A group as named elements with their permutations of the carrier.

    `names[i]` acts as `perms[i]`; `normals` lists the normal subgroups
    usable as the deepest chain level (as name sets); `table` is the
    multiplication table for table-given groups, None for generator-given
    ones (whose unnamed elements the program names itself).
    """

    def __init__(self, names, perms, normals, table):
        self.names = names
        self.perms = perms
        self.normals = normals
        self.table = table

    def orbits(self, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in self.perms:
            for x in range(n):
                parent[find(x)] = find(p[x])
        out = {}
        for x in range(n):
            out.setdefault(find(x), []).append(x)
        return sorted(out.values())


def _cyclic_group(rng, n, m):
    """Z_m acting by two disjoint m-cycles (one on small carriers) on
    seeded points."""
    k = min(2, n // m)
    free = rng.sample(range(n), k * m)
    gen = _cycle_perm(n, [free[i * m:(i + 1) * m] for i in range(k)])
    perms = [tuple(range(n))]
    for _ in range(m - 1):
        perms.append(_compose(gen, perms[-1]))
    names = ["e"] + [f"g{k}" for k in range(1, m)]
    table = [[names[(i + j) % m] for j in range(m)] for i in range(m)]
    normals = [frozenset(names[k] for k in range(0, m, d))
               for d in range(1, m + 1) if m % d == 0]
    return _Group(names, perms, normals, table)


def _s3_group(rng, n):
    """S3 acting diagonally on two disjoint seeded triples (one on small
    carriers), and by its sign on a further pair when there is room."""
    s3 = sorted(itertools.permutations(range(3)))
    nb = min(2, n // 3)
    free = rng.sample(range(n), min(n, 3 * nb + 2))
    blocks = [free[3 * i:3 * i + 3] for i in range(nb)]
    sign_pair = free[3 * nb:] if len(free) == 3 * nb + 2 else None
    names = ["e" if s == (0, 1, 2) else "s" + "".join(map(str, s)) for s in s3]
    perms = []
    for s in s3:
        p = list(range(n))
        for blk in blocks:
            for i in range(3):
                p[blk[i]] = blk[s[i]]
        odd = sum(s[i] > s[j] for i in range(3) for j in range(i + 1, 3)) % 2
        if sign_pair and odd:
            a, b = sign_pair
            p[a], p[b] = b, a
        perms.append(tuple(p))
    index = {s: i for i, s in enumerate(s3)}
    table = [[names[index[_compose(s, t)]] for t in s3] for s in s3]
    a3 = frozenset(names[index[s]] for s in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    normals = [frozenset({"e"}), a3, frozenset(names)]
    return _Group(names, perms, normals, table)


def _s4_group(rng, n):
    """S4 (order 24) by permutation generators, acting diagonally on one
    seeded block of four points, or two when n >= 8.  The Klein
    four-group is named through extra generators so that chain levels can
    refer to it."""
    nb = min(2, n // 4)
    free = rng.sample(range(n), 4 * nb)
    blocks = [free[4 * i:4 * i + 4] for i in range(nb)]

    def lift(s):
        p = list(range(n))
        for blk in blocks:
            for i in range(4):
                p[blk[i]] = blk[s[i]]
        return tuple(p)

    named = {
        "s": lift((1, 0, 2, 3)),
        "r": lift((1, 2, 3, 0)),
        "k1": lift((1, 0, 3, 2)),
        "k2": lift((2, 3, 0, 1)),
        "k3": lift((3, 2, 1, 0)),
    }
    names = ["e"] + sorted(named)
    perms = [tuple(range(n))] + [named[k] for k in sorted(named)]
    normals = [frozenset({"e"}), frozenset({"e", "k1", "k2", "k3"})]
    return _Group(names, perms, normals, None)


def make_group(rng, n, kind):
    if kind in ("Z2", "Z3", "Z4"):
        return _cyclic_group(rng, n, int(kind[1]))
    if kind == "S3":
        return _s3_group(rng, n)
    if kind == "S4":
        return _s4_group(rng, n)
    raise ValueError(kind)


GROUP_KINDS = ("Z2", "Z3", "Z4", "S3", "S4")


def make_chain(rng, group, levels, deep):
    """A chain whose deepest level is the normal subgroup number `deep`
    (by size, modulo their count); a 2-level chain adds half of the other
    elements, seeded, on top of it."""
    normals = sorted(group.normals, key=lambda h: (len(h), sorted(h)))
    base = normals[deep % len(normals)]
    if levels == 1:
        return [sorted(base)]
    if len(base) == len(group.names):
        base = normals[0]
    extra = [x for x in group.names if x not in base]
    upper = base | set(rng.sample(extra, max(1, len(extra) // 2)))
    return [sorted(upper), sorted(base)]


def make_basis(rng, group, n, entourages):
    """theta: random merges of G-orbits; the optional second entourage adds
    random products of theta classes."""
    classes = []
    for orb in group.orbits(n):
        if classes and rng.random() < 0.35:
            rng.choice(classes).extend(orb)
        else:
            classes.append(list(orb))
    theta = {(x, y) for c in classes for x in c for y in c}
    basis = [theta]
    if entourages == 2:
        eps = set(theta)
        for ci in classes:
            for cj in classes:
                if ci is not cj and rng.random() < 0.3:
                    eps.update((x, y) for x in ci for y in cj)
        if eps == theta:
            eps = {(x, y) for x in range(n) for y in range(n)}
        if eps != theta:
            basis.append(eps)
    return basis


def make_document(rng, n, kind, levels, entourages, deep=0):
    """One instance document (as JSON text) on points "x0".."x{n-1}".

    The shape (group, chain depth, deepest level, basis size) is given, so
    that every seed yields the same mix; the seed picks the points the
    group moves, the orbit merges, the upper chain level and the subsets.
    """
    if n > CARRIER_CAP:
        raise ValueError(f"carrier size {n} is over the cap {CARRIER_CAP}")
    pts = [f"x{i}" for i in range(n)]
    group = make_group(rng, n, kind)
    doc = {"schema": 1, "carrier": pts}
    if group.table is not None:
        doc["group"] = {"elements": group.names, "table": group.table}
        doc["action"] = {nm: [pts[p[i]] for i in range(n)]
                         for nm, p in zip(group.names, group.perms)}
    else:
        doc["group"] = {"generators": {
            nm: [pts[p[i]] for i in range(n)]
            for nm, p in zip(group.names, group.perms) if nm != "e"}}
    doc["neighborhood_base"] = make_chain(rng, group, levels, deep)
    basis = make_basis(rng, group, n, entourages)
    doc["uniformity"] = [[[pts[x], pts[y]] for x, y in sorted(ent)]
                         for ent in basis]
    doc["subsets"] = {
        "A": sorted(rng.sample(pts, rng.randint(1, n // 2)), key=pts.index),
        "B": sorted(rng.sample(pts, rng.randint(1, n // 2)), key=pts.index),
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# Rational sets and chains


def _fmt(q):
    return str(q) if q.denominator != 1 else str(q.numerator)


def _breakpoints(rng, k):
    vals = set()
    while len(vals) < k:
        vals.add(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))))
    return sorted(vals)


def _cells(points):
    """The 2m+1 cells cut out by the sorted points: (kind, lo, hi)."""
    out = []
    lo = "-inf"
    for p in points:
        out.append(("iv", lo, _fmt(p)))
        out.append(("pt", _fmt(p), None))
        lo = _fmt(p)
    out.append(("iv", lo, "inf"))
    return out


def _ratset_text(cells):
    if not cells:
        return "{}"
    return ",".join("{" + a + "}" if kind == "pt" else f"({a},{b})"
                    for kind, a, b in cells)


def make_far_pair(rng, intersecting):
    """Two sets as unions of cells over random breakpoints: disjoint, or
    sharing at least one cell."""
    cells = _cells(_breakpoints(rng, rng.randint(1, 4)))
    owner = [rng.choice(("a", "b", "-")) for _ in cells]
    owner[rng.randrange(len(cells))] = "a"
    free_b = [i for i, o in enumerate(owner) if o != "a"]
    owner[rng.choice(free_b) if free_b else 0] = "b"
    if intersecting:
        owner[rng.randrange(len(cells))] = "ab"
    a = [c for c, o in zip(cells, owner) if "a" in o]
    b = [c for c, o in zip(cells, owner) if "b" in o]
    return _ratset_text(a), _ratset_text(b)


def make_chain_text(rng):
    pts = _breakpoints(rng, rng.randint(0, 4))
    return "{" + ",".join(_fmt(p) for p in pts) + "}"


def make_tower_chains(rng):
    return [make_chain_text(rng) for _ in range(rng.randint(1, 3))]


def make_claim(rng):
    """A convex target O and a union A of cells inside it."""
    pts = _breakpoints(rng, rng.randint(2, 5))
    lo_i = rng.randrange(len(pts) - 1)
    hi_i = rng.randrange(lo_i + 1, len(pts))
    inner = pts[lo_i:hi_i + 1]
    lo = "-inf" if rng.random() < 0.15 else _fmt(inner[0])
    hi = "inf" if rng.random() < 0.15 else _fmt(inner[-1])
    o = [("iv", lo, hi)]
    if lo != "-inf" and rng.random() < 0.4:
        o.append(("pt", lo, None))
    if hi != "inf" and rng.random() < 0.4:
        o.append(("pt", hi, None))
    inside = _cells(inner[1:-1]) if len(inner) > 2 else [("iv", lo, hi)]
    # Cells of the interior points, clipped to the open interval (lo, hi).
    clipped = []
    for kind, a, b in inside:
        if kind == "iv":
            a = lo if a == "-inf" else a
            b = hi if b == "inf" else b
        clipped.append((kind, a, b))
    a_cells = [c for c in clipped if rng.random() < 0.5] or [clipped[0]]
    a_cells += [c for c in o[1:] if rng.random() < 0.5]
    return _ratset_text(a_cells), _ratset_text(o)
