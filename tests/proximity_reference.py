"""The nearness table builder of `eqprox.proximity` before it shared rows
and took one map, the readers of single entries that went with it, and
the submask table it was built on, kept as references.

``_submask_table`` and ``_intersectors`` are the subset-lattice tables
that the builder, the P1 and P4 row scans and the action continuity test
read before the library built its rows from one join table of the point
rows; the axiom, action and setting references read them from here, so
no reference shares the primitive it checks.
``and_intersectors`` is the in-place row pass that ``meets_table`` ran
once per distinct map, ANDing every row with the intersectors of its
image, and ``meets_table_reference`` is ``meets_table`` over a list of
maps through it, as they were before the builder made one row per
distinct image and let equal rows share one int object.  ``meets`` and
``meets_points`` read one entry and the point block of that several-map
table from the point values, as the ``nu`` and ``betag`` queries did
before a table became one map.  The bodies are kept unchanged apart from
the names, so that ``test_proximity.py`` compares the production builder
with the original, ``test_equivariant_differential.py`` the queries with
the old entry readers, and ``equivariant_reference.py`` and
``setrel_reference.py`` build their tables through the original pass.
This is test-only code: nothing under ``src/`` may import it.
"""

from functools import lru_cache

from eqprox.proximity import Prox, _join_table
from eqprox.setrel import _join_mask


@lru_cache(maxsize=None)
def _submask_table(n):
    """table[c] = integer with bit s set for every submask s of c.

    Built by doubling: adjoining bit i to c shifts every submask pattern up
    by 2**i.  Entry c is a 2**n-bit integer.  Kept per process, not per
    carrier: each CLI request would rebuild it, 1.5-1.7 ms at n = 12.
    """
    table = [1] * (1 << n)
    for c in range(1, 1 << n):
        low = c & -c
        table[c] = table[c ^ low] | (table[c ^ low] << low)
    return tuple(table)


def _intersectors(mask, n):
    """Bitmask over subset indices b with b & mask != 0."""
    full_bits = (1 << (1 << n)) - 1
    return full_bits ^ _submask_table(n)[((1 << n) - 1) ^ mask]


def and_intersectors(rows, masks, n):
    """rows[m] &= _intersectors(masks[m], n) for every subset mask m, in
    place: afterwards B is near A only if B meets masks[A]."""
    N = 1 << n
    full_bits = (1 << N) - 1
    table = _submask_table(n)
    for m in range(N):
        rows[m] &= full_bits ^ table[(N - 1) ^ masks[m]]


def meets_table_reference(carrier, maps):
    """The table with near(A, B) iff B meets f(A) for every f in maps,
    each f a union-preserving map given by its n point values: one join
    table and one AND per row for each distinct map, Theta(|maps| * 2**n)
    operations on 2**n-bit integers.  `meets` and `meets_points` read
    entries of the same table from the point values, without it."""
    n = carrier.n
    N = 1 << n
    rows = [(1 << N) - 1] * N
    for values in dict.fromkeys(map(tuple, maps)):
        and_intersectors(rows, _join_table(values), n)
    return Prox(carrier, rows)


def meets(maps, a, b):
    """near(A, B) in `meets_table` over the same maps, for subset masks a
    and b: one table entry, read from the point values directly."""
    return all(b & _join_mask(f, a) for f in maps)


def meets_points(maps, n):
    """The point block of `meets_table` over the same maps: bit j of entry
    i says whether {x_i} is near {x_j}, the AND of f[i] over the maps."""
    points = [(1 << n) - 1] * n
    for f in maps:
        points = [p & v for p, v in zip(points, f)]
    return points
