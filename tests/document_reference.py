"""The document build as it was before it read entourages straight into
image masks and filled permutation tables a column at a time.

These are the loop that read one uniformity entourage (every pair
checked, collected, then checked again by ``Rel``), the greedy generating
set that still listed the identity, and the product table of
``FiniteGroup.from_permutations`` filled one entry at a time.  They are
kept unchanged, so that ``test_document_differential.py`` can put them in
place of the current code and compare the two builds, masks, tables,
names and error texts alike.  This is test-only code: nothing under
``src/`` may import it.
"""

from eqprox.errors import DocumentError
from eqprox.gaction import DEFAULT_MAX_GROUP
from eqprox.setrel import Rel


def _typed(value, kind, what):
    if not isinstance(value, kind):
        article = "a list" if kind is list else "an object"
        raise DocumentError(f"{what} must be {article}, got {value!r}")
    return value


def _known(name, index):
    return isinstance(name, str) and name in index


def entourage_reference(carrier, k, ent):
    """Entourage k of a document as a relation, or its DocumentError."""
    pairs = []
    for pair in _typed(ent, list, f"uniformity entourage {k}"):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_known(p, carrier.index) for p in pair)):
            raise DocumentError(
                f"uniformity entourage {k}: bad pair {pair!r}")
        pairs.append(tuple(pair))
    return Rel(carrier, pairs)


def generators_reference(mul):
    """The greedy generating set in index order, identity included when
    no earlier index reaches it."""
    inside = [False] * len(mul)
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


def permutation_table_reference(perms):
    """(names, product table, permutation per element) of the closure of
    `perms`, the table filled entry by entry along the search's edges, or
    the ValueError of a bad permutation or of the cap."""
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
    right = []
    parent, gen = [0], [0]
    for i, q in enumerate(order):
        row = []
        for s, p in enumerate(perms):
            r = tuple(map(q.__getitem__, p))
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
    k = len(order)
    mul = []
    for i in range(k):
        row = [i]
        for j in range(1, k):
            row.append(right[row[parent[j]]][gen[j]])
        mul.append(row)

    sep = "." if d > 10 else ""

    def name(p):
        return "e" if p == ident else "p" + sep.join(map(str, p))

    return tuple(name(p) for p in order), mul, tuple(order)
