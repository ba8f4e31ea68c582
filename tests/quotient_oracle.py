"""The paper's theorem on a finite germ, in closed form, from literal pairs.

Let N be the deepest chain level of a germ, a normal subgroup.  With the
discrete proximity, A is β_G-far from B iff NA and NB are disjoint: β_G
is the partition proximity of the N-orbits.  A basis u that passes B1-B4
generates the principal filter of its least entourage θ, an
equivalence, and translate nearness ν is the partition proximity of the
relation

    N·θ·N = {(x, y) : (g x, h y) in θ for some g, h in N},

again an equivalence.  A partition proximity calls A near B iff some
block meets both.

Everything here is read one pair or one group element at a time from the
pair sets, the action's permutations and the level's elements: θ is the
intersection of the members' pair sets, and a table row is built from
the block saturation of A bit by bit.  It uses neither
`setrel.least_entourage` nor `proximity.meets_table`, so it shares no
code with either side of the identities it checks.  This is test-only
code: nothing under ``src/`` may import it.
"""

from functools import cache


def orbit_relation(a):
    """{(x, y) : y = g x for some g in N}, as index pairs."""
    n = a.carrier.n
    return frozenset((x, a.act[g][x]) for x in range(n) for g in a.deepest)


def least_pairs(u):
    """θ as index pairs: the pairs common to every member, which must be
    the pairs of some member."""
    idx = u.carrier.index
    members = [frozenset((idx[x], idx[y]) for x, y in eps.pairs)
               for eps in u.basis]
    common = frozenset.intersection(*members)
    assert common in members, "the basis has no least member"
    return common


def saturated_relation(a, theta):
    """N·θ·N as index pairs: each pair (p, q) of θ relates every point of
    the N-orbit of p to every point of the N-orbit of q (N is a group, so
    p = g x for some g in N iff x is in the orbit of p)."""
    orbit = [frozenset(a.act[g][x] for g in a.deepest)
             for x in range(a.carrier.n)]
    return frozenset((x, y) for p, q in theta
                     for x in orbit[p] for y in orbit[q])


def blocks(relation, n):
    """The block mask of each point, asserting that the relation is an
    equivalence on range(n)."""
    image = tuple(sum(1 << y for x2, y in relation if x2 == x)
                  for x in range(n))
    for x in range(n):
        assert image[x] >> x & 1, ("not reflexive", x)
        for y in range(n):
            if image[x] >> y & 1:
                assert image[y] == image[x], ("not an equivalence", x, y)
    return image


@cache
def partition_rows(block):
    """The partition proximity of the blocks (a tuple) as table rows: bit
    b of row a says whether subset b meets the blocks of the points of
    subset a."""
    n = len(block)
    meeting = {}  # saturation -> the subsets that meet it
    rows = []
    for a in range(1 << n):
        saturation = 0
        for x in range(n):
            if a >> x & 1:
                saturation |= block[x]
        if saturation not in meeting:
            meeting[saturation] = sum(1 << b for b in range(1 << n)
                                      if b & saturation)
        rows.append(meeting[saturation])
    return tuple(rows)


def beta_g_rows(a):
    """β_G: the partition proximity of the N-orbits."""
    return partition_rows(blocks(orbit_relation(a), a.carrier.n))


def nu_rows(a, u):
    """ν: the partition proximity of N·θ·N."""
    n = a.carrier.n
    theta = least_pairs(u)
    blocks(theta, n)
    return partition_rows(blocks(saturated_relation(a, theta), n))
