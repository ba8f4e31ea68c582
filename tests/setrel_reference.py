"""Pair-set relations and Fraction metrics, kept as references.

These are the ``Rel`` class (here ``RelReference``) and relation
operations of ``eqprox.setrel`` as they were when a relation was stored
as a frozen set of ordered pairs, and the ``metric_uniformity``,
``family_uniformity``, ``is_isometric``, ``sup_pseudometric`` and
``metric_g_proximity`` of ``eqprox.metricprox`` (with ``_sublevel``,
``_family_kernel`` and ``FiniteMetric.positive_values``) as they were when they compared ``Fraction`` distances, before relations
became image masks and metrics integer rank matrices, and the checks and
ranks of ``FiniteMetric`` as they were before it scaled its distances to
integers (``validate_pseudometric_reference``, ``finite_metric_reference``).
The bodies are
kept unchanged apart from the names, so that ``test_setrel_differential.py``
compares the production code with the originals.  This is test-only code:
nothing under ``src/`` may import it.
"""

from fractions import Fraction
from functools import cached_property

from proximity_reference import RowsTable, and_intersectors

from eqprox.errors import CarrierMismatch, InternalCheckFailure, \
    PreconditionFailure
from eqprox.gaction import _group_indices, classify
from eqprox.metricprox import FiniteMetric
from eqprox.proximity import _join_table
from eqprox.uniformity import UnifBase


class RelReference:
    """A binary relation on a carrier, stored as a frozen set of ordered pairs."""

    __slots__ = ("carrier", "pairs", "__dict__")

    def __init__(self, carrier, pairs):
        pairs = frozenset(pairs)
        for x, y in pairs:
            if x not in carrier.index or y not in carrier.index:
                raise ValueError(f"pair ({x!r}, {y!r}) is not over the carrier")
        self.carrier = carrier
        self.pairs = pairs

    @cached_property
    def image_masks(self):
        """Per-element successor sets: image_masks[i] = mask of {y : (e_i, y) in R}."""
        idx = self.carrier.index
        masks = [0] * self.carrier.n
        for x, y in self.pairs:
            masks[idx[x]] |= 1 << idx[y]
        return tuple(masks)

    @cached_property
    def preimage_masks(self):
        """Per-element predecessor sets: preimage_masks[i] = mask of {x : (x, e_i) in R}."""
        idx = self.carrier.index
        masks = [0] * self.carrier.n
        for x, y in self.pairs:
            masks[idx[y]] |= 1 << idx[x]
        return tuple(masks)

    @cached_property
    def pair_bits(self):
        """The relation packed into one n*n-bit integer: bit i*n + j is the
        pair (e_i, e_j), so containment of two relations is one AND."""
        n = self.carrier.n
        bits = 0
        for i, m in enumerate(self.image_masks):
            bits |= m << i * n
        return bits

    def image_mask(self, mask):
        """Mask form of image_of_set: successors of any element in `mask`."""
        out = 0
        imgs = self.image_masks
        while mask:
            low = mask & -mask
            out |= imgs[low.bit_length() - 1]
            mask ^= low
        return out

    def contains(self, other):
        _check_same_carrier_reference(self, other)
        return other.pairs <= self.pairs

    def __eq__(self, other):
        return (isinstance(other, RelReference) and self.carrier == other.carrier
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.carrier, self.pairs))

    def __repr__(self):
        pairs = sorted(self.pairs, key=self._pair_key)
        return f"RelReference({pairs!r})"

    def _pair_key(self, pair):
        idx = self.carrier.index
        return (idx[pair[0]], idx[pair[1]])


def _check_same_carrier_reference(r, s):
    if r.carrier != s.carrier:
        raise CarrierMismatch("relations live on different carriers")


def diagonal_reference(carrier):
    """The identity relation {(x, x)}."""
    return RelReference(carrier, ((e, e) for e in carrier.elements))


def full_relation_reference(carrier):
    """The all-pairs relation X x X."""
    els = carrier.elements
    return RelReference(carrier, ((x, y) for x in els for y in els))


def compose_reference(r, s):
    """Relational composition: {(x, z) : exists y with (x,y) in r and (y,z) in s}."""
    _check_same_carrier_reference(r, s)
    carrier = r.carrier
    els = carrier.elements
    s_imgs = s.image_masks
    pairs = set()
    for i in range(carrier.n):
        out = r.image_masks[i]
        z_mask = 0
        while out:
            low = out & -out
            z_mask |= s_imgs[low.bit_length() - 1]
            out ^= low
        x = els[i]
        while z_mask:
            low = z_mask & -z_mask
            pairs.add((x, els[low.bit_length() - 1]))
            z_mask ^= low
    return RelReference(carrier, pairs)


def invert_reference(r):
    """The converse relation {(y, x) : (x, y) in r}."""
    return RelReference(r.carrier, ((y, x) for x, y in r.pairs))


def intersect_reference(r, s):
    _check_same_carrier_reference(r, s)
    return RelReference(r.carrier, r.pairs & s.pairs)


def positive_values_reference(m):
    vals = {v for row in m.dist for v in row if v > 0}
    return tuple(sorted(vals))


def _sublevel_reference(carrier, dist, r):
    els = carrier.elements
    n = carrier.n
    return RelReference(carrier, ((els[i], els[j]) for i in range(n)
                                  for j in range(n) if dist[i][j] <= r))


def metric_uniformity_reference(m):
    """Sublevel basis of a finite (pseudo)metric.

    One entourage {d <= r} per distinct positive value r, plus the kernel
    {d = 0} (which is the diagonal when d is a metric, playing the
    below-minimum threshold level).
    """
    carrier = m.carrier
    basis = [_sublevel_reference(carrier, m.dist, Fraction(0))]
    for r in positive_values_reference(m):
        basis.append(_sublevel_reference(carrier, m.dist, r))
    return UnifBase(carrier, basis)


def _family_kernel_reference(carrier, metrics):
    els = carrier.elements
    n = carrier.n
    return RelReference(
        carrier,
        ((els[i], els[j]) for i in range(n) for j in range(n)
         if all(m.dist[i][j] == 0 for m in metrics)))


def family_uniformity_reference(fam):
    """Sublevel basis of a pseudometric family, with the family kernel."""
    carrier = fam.carrier
    basis = [_family_kernel_reference(carrier, fam.members)]
    for m in fam.members:
        for r in (Fraction(0),) + positive_values_reference(m):
            basis.append(_sublevel_reference(carrier, m.dist, r))
    return UnifBase(carrier, basis)


def is_isometric_reference(m, a):
    """Whether every group element acts by distance-preserving maps."""
    n = m.carrier.n
    for g in range(a.group.order):
        p = a.act[g]
        for i in range(n):
            for j in range(n):
                if m.dist[p[i]][p[j]] != m.dist[i][j]:
                    return False
    return True


def sup_pseudometric_reference(fam, a, group_subset, member_index):
    """Worst-case distance over a set of group elements:
    d'(x, y) = max over g in the set of d(g x, g y).

    Always a pseudometric again (the triangle inequality survives a
    pointwise max over a shared translate), which is re-checked as a trap.
    """
    ids = sorted(_group_indices(a.group, group_subset))
    if not ids:
        raise PreconditionFailure("group subset must be nonempty")
    m = fam.members[member_index]
    if a.carrier != fam.carrier:
        raise CarrierMismatch("action and family carriers differ")
    n = a.carrier.n
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = max(m.dist[a.act[g][i]][a.act[g][j]] for g in ids)
    try:
        return FiniteMetric(a.carrier, out, pseudo=True)
    except ValueError as exc:
        raise InternalCheckFailure(
            f"sup over translates destroyed the pseudometric axioms: {exc}")


def metric_g_proximity_reference(m, a):
    """A and B are near when no chain level pushes their translates a
    positive distance apart: near(A, B) iff d(VA, VB) = 0 for every level V.

    Requires the sublevel uniformity to be quasibounded and saturated; the
    classifier witness is surfaced otherwise.
    """
    u = metric_uniformity_reference(m)
    cls = classify(a, u)
    if not cls.pi_uniform:
        missing = "quasibounded" if not cls.quasibounded else "saturated"
        raise PreconditionFailure(
            f"metric uniformity is not {missing}",
            witness=cls.witnesses.get(missing))
    carrier = m.carrier
    n = carrier.n
    N = 1 << n
    rows = [(1 << N) - 1] * N
    # Zero-distance hull per point; for a genuine metric this is the point
    # itself, for a pseudometric its kernel class.
    zero_of = [0] * n
    for i in range(n):
        for j in range(n):
            if m.dist[i][j] == 0:
                zero_of[i] |= 1 << j
    hull = _join_table(zero_of)
    for li in range(len(a.ne.levels)):
        # B is near A at this level iff VB meets the zero hull of VA,
        # i.e. B meets its pullback through the level.
        pullback = _join_table(a.inverse_masks(li))
        and_intersectors(
            rows, [pullback[hull[t]] for t in _join_table(a.masks[li])], n)
    return RowsTable(carrier, rows)


def validate_pseudometric_reference(carrier, dist):
    n = carrier.n
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError("distance matrix must be n x n")
    for i in range(n):
        if dist[i][i] != 0:
            raise ValueError(f"nonzero self-distance at {carrier.elements[i]!r}")
        for j in range(n):
            if dist[i][j] < 0:
                raise ValueError("negative distance")
            if dist[i][j] != dist[j][i]:
                raise ValueError(
                    f"asymmetric distance at ({carrier.elements[i]!r}, "
                    f"{carrier.elements[j]!r})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({carrier.elements[i]!r}, {carrier.elements[j]!r}, "
                        f"{carrier.elements[k]!r})")


def finite_metric_reference(carrier, dist, pseudo=False):
    """The checks of ``FiniteMetric.__init__`` on the ``Fraction``
    distances; returns (dist, values, rank) or raises its ValueError."""
    dist = tuple(tuple(Fraction(v) for v in row) for row in dist)
    validate_pseudometric_reference(carrier, dist)
    if not pseudo:
        n = carrier.n
        for i in range(n):
            for j in range(n):
                if i != j and dist[i][j] == 0:
                    raise ValueError(
                        "zero distance between distinct points "
                        f"({carrier.elements[i]!r}, {carrier.elements[j]!r})")
    values = tuple(sorted({v for row in dist for v in row}))
    index = {v: k for k, v in enumerate(values)}
    rank = tuple(tuple(index[v] for v in row) for row in dist)
    return dist, values, rank
