"""The full group and action validations, kept as references.

These are the bodies of ``FiniteGroup.__init__`` and
``GActionGerm.__init__`` from before the associativity check went through
Light's test on a generating set and the action law through the
generators: the k^3 triple scan and the (g, h) pair scan over every
element.  They are kept unchanged, as functions returning what the
constructors store, so that ``test_group_differential.py`` compares the
constructors with the originals, verdict and message alike.  The
breadth-first closure of ``FiniteGroup.from_permutations``, from before
its product table was filled along the closure's edges, is kept the same
way for its element order, names and cap error.  The chain validation of
``NeighborhoodBase.__init__`` from before it tested the deepest level
alone, which tried every level as the square/inverse and conjugation
witness of every level, is kept for its messages.  This is test-only
code: nothing under ``src/`` may import it.
"""

from eqprox.gaction import DEFAULT_MAX_GROUP


def finite_group_reference(names, mul, max_size=DEFAULT_MAX_GROUP):
    """(names, mul, inv, e) of a validated table, or ValueError."""
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
    return names, mul, tuple(inv), e


def action_reference(group, ne, carrier, act):
    """The validated action tuple, or ValueError."""
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
            composed = tuple(map(act[g].__getitem__, act[h]))
            if composed != act[gh]:
                raise ValueError(
                    "action law fails at pair "
                    f"({group.names[g]!r}, {group.names[h]!r})")
    return act


def permutation_closure_reference(perms, max_size=DEFAULT_MAX_GROUP):
    """(names, permutation per element) of the closure, frontier by
    frontier from the identity, or the cap's ValueError."""
    perms = [tuple(p) for p in perms]
    d = len(perms[0])
    ident = tuple(range(d))
    found = {ident: 0}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for p in perms:
                r = tuple(map(q.__getitem__, p))
                if r not in found:
                    if len(found) >= max_size:
                        raise ValueError(
                            f"permutation closure exceeds the cap {max_size}")
                    found[r] = len(order)
                    order.append(r)
                    nxt.append(r)
        frontier = nxt
    sep = "." if d > 10 else ""
    names = tuple("e" if p == ident else "p" + sep.join(map(str, p))
                  for p in order)
    return names, tuple(order)


def neighborhood_base_reference(group, levels):
    """The validated levels of a chain, or ValueError."""
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
    return levels
