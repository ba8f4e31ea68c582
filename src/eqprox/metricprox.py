"""Finite metric and pseudometric spaces under a group action.

Distances are exact rationals, so entourage thresholds can enumerate the
finitely many matrix values instead of juggling tolerances.  A metric is
validated on its distances scaled to integers by the LCM of their
denominators, which is exact: every comparison and triangle sum, and so
every first violation, is that of the rationals.  Each metric ranks its
distinct values, from the same integers, and the checks work on that
integer rank matrix; the rationals are kept for documents and output.

The basis of a (pseudo)metric uniformity consists of the sublevel
relations d <= r at each distinct positive value r, together with the
kernel relation d = 0 (the diagonal, for a genuine metric).  Such a basis
and the bases derived from it under an action, whose brackets repeat, are
checked by `uniformity.validate_basis` once per distinct entourage.

For a family of pseudometrics the same sublevel construction applies per
member; the family kernel (simultaneous vanishing) is added so that the
list is a filterbase and not merely a subbase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_

from . import setrel
from .errors import CarrierMismatch, InternalCheckFailure, PreconditionFailure
from .gaction import classify, _equicontinuity_witness, _fold, \
    _group_indices
from .proximity import meets_table
from .setrel import _join_mask
from .uniformity import UnifBase, induced_topology, refines


def _validate_pseudometric(carrier, dist):
    """Check the pseudometric axioms on dist, the distances scaled to
    integers by a common positive denominator: every comparison and sum
    is the one of the rationals, so the first violation and its message
    are too."""
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


class FiniteMetric(setrel.Memo):
    """An exact rational metric on a carrier (pseudometric with pseudo=True).

    ``values`` lists the distinct distances in increasing order, 0 first,
    and ``rank[i][j]`` is the index of ``dist[i][j]`` in it.  Every
    comparison of distances is a comparison of ranks; the rationals
    themselves are kept for output.
    """

    __slots__ = ("carrier", "dist", "pseudo", "values", "rank")

    def __init__(self, carrier, dist, pseudo=False):
        dist = tuple(tuple(Fraction(v) for v in row) for row in dist)
        # The distances times D, the LCM of their denominators: exact
        # integers, which every check and the ranks read.
        scale = lcm(*{v.denominator for row in dist for v in row})
        scaled = tuple(tuple(v.numerator * (scale // v.denominator)
                             for v in row) for row in dist)
        _validate_pseudometric(carrier, scaled)
        if not pseudo:
            n = carrier.n
            for i in range(n):
                for j in range(n):
                    if i != j and scaled[i][j] == 0:
                        raise ValueError(
                            "zero distance between distinct points "
                            f"({carrier.elements[i]!r}, {carrier.elements[j]!r})")
        self.carrier = carrier
        self.dist = dist
        self.pseudo = pseudo
        distinct = sorted({v for row in scaled for v in row})
        self.values = tuple(Fraction(v, scale) for v in distinct)
        index = {v: k for k, v in enumerate(distinct)}
        self.rank = tuple(tuple(index[v] for v in row) for row in scaled)
        super().__init__()

    def __repr__(self):
        return f"FiniteMetric(n={self.carrier.n}, pseudo={self.pseudo})"


class PseudometricFamily:
    """Finitely many bounded pseudometrics on a shared carrier."""

    __slots__ = ("carrier", "members")

    def __init__(self, carrier, members):
        members = tuple(
            m if isinstance(m, FiniteMetric) else FiniteMetric(carrier, m, pseudo=True)
            for m in members)
        if not members:
            raise ValueError("family must be nonempty")
        for m in members:
            if m.carrier != carrier:
                raise CarrierMismatch("family members live on different carriers")
        self.carrier = carrier
        self.members = members


def metric_uniformity(m):
    """Sublevel basis of a finite (pseudo)metric.

    One entourage {d <= r} per distinct value r, built as the mask rows
    of rank <= k: the first is the kernel {d = 0} (the diagonal when d is
    a metric, playing the below-minimum threshold level).  The basis is
    kept on the metric, so every caller shares one object.
    """
    return m._kept(_sublevel_basis)


def _sublevel_basis(m):
    """The basis that `metric_uniformity` keeps."""
    return UnifBase(m.carrier, _sublevels(m))


def _sublevels(m):
    """The entourages {rank <= k} for every k, from the kernel {d = 0} up."""
    return [setrel.Rel.from_masks(m.carrier, [
        sum(1 << j for j, r in enumerate(row) if r <= k) for row in m.rank])
        for k in range(len(m.values))]


def sup_pseudometric(fam, a, group_subset, member_index):
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
    rank = m.rank
    out = [[m.values[max(rank[a.act[g][i]][a.act[g][j]] for g in ids)]
            for j in range(n)] for i in range(n)]
    try:
        return FiniteMetric(a.carrier, out, pseudo=True)
    except ValueError as exc:
        raise InternalCheckFailure(
            f"sup over translates destroyed the pseudometric axioms: {exc}")


def family_uniformity(fam):
    """Sublevel basis of a pseudometric family, with the family kernel
    (rank 0 in every member) first."""
    levels = [_sublevels(m) for m in fam.members]
    kernel = reduce(setrel.intersect, (level[0] for level in levels))
    return UnifBase(fam.carrier,
                    [kernel] + [eps for level in levels for eps in level])


@dataclass(frozen=True)
class XiReport:
    """Per-conclusion outcomes for the worst-case-uniformity construction.

    Each entry is "pass", "fail" or "n/a" (hypothesis does not hold on the
    instance)."""

    topology_match: str
    quasibounded: str
    refinement: str

    def ok(self):
        return "fail" not in (self.topology_match, self.quasibounded,
                              self.refinement)

    def lines(self):
        return [
            f"equicontinuous subsets preserve the topology: {self.topology_match}",
            f"absorbed subsets give quasiboundedness: {self.quasibounded}",
            f"a subset containing e makes xi finer: {self.refinement}",
        ]


def xi_report(fam, a, subsets_of_group, sups):
    """Instance-check the three expected properties of the construction,
    given the worst-case pseudometrics d_{A,i} (sup_pseudometric) over the
    group subsets A and family members i; the derived uniformity is theirs.

    (1) if every subset acts equicontinuously, the derived uniformity
        induces the same topology;
    (2) if every subset A has a chain level V and a family subset B with
        A.V inside B, the derived uniformity is quasibounded (A.V shrinks
        with V, so the deepest level decides);
    (3) if some subset contains the identity, the derived uniformity
        refines the base one.
    """
    base = family_uniformity(fam)
    xi = family_uniformity(PseudometricFamily(fam.carrier, sups))
    ids = [sorted(_group_indices(a.group, s)) for s in subsets_of_group]

    hyp1 = all(_acts_equicontinuously(a, base, s) for s in ids)
    concl1 = "n/a"
    if hyp1:
        concl1 = ("pass" if set(induced_topology(xi)) == set(induced_topology(base))
                  else "fail")

    group = a.group
    hyp2 = all(any(group.product_set(s, a.deepest) <= frozenset(t)
                   for t in ids)
               for s in ids)
    concl2 = "n/a"
    if hyp2:
        concl2 = "pass" if classify(a, xi).quasibounded else "fail"

    hyp3 = any(group.e in s for s in ids)
    concl3 = "n/a"
    if hyp3:
        concl3 = "pass" if refines(xi, base) else "fail"

    return XiReport(concl1, concl2, concl3)


def _acts_equicontinuously(a, u, subset_ids):
    """Equicontinuity of a fixed set of group elements, at basis level:
    the check `classify` runs, on the AND of the push-table entries
    g^{-1}.eps over the g in the set."""
    push = a.push_table(u)
    inv = a.group.inv
    kept = _fold(and_, (push[inv[g]] for g in subset_ids))
    return _equicontinuity_witness(a, u.basis, kept) is None


def is_isometric(m, a):
    """Whether every group element acts by distance-preserving maps."""
    if m.carrier != a.carrier:
        raise CarrierMismatch("metric is not over the action's carrier")
    rank = m.rank
    for p in a.act:
        for i, row in enumerate(rank):
            if tuple(map(rank[p[i]].__getitem__, p)) != row:
                return False
    return True


def metric_g_proximity(m, a):
    """A and B are near when no chain level pushes their translates a
    positive distance apart: near(A, B) iff d(VA, VB) = 0 for every level V.
    d(VA, VB) only grows as V shrinks, so the deepest level decides, and
    the table has one map, kept in the action's germ cache and shared by
    every chain and metric with its zero hulls and deepest point masks.

    Requires the sublevel uniformity to be quasibounded and saturated; the
    classifier witness is surfaced otherwise, on every call.
    """
    u = metric_uniformity(m)
    cls = classify(a, u)
    if not cls.pi_uniform:
        missing = "quasibounded" if not cls.quasibounded else "saturated"
        raise PreconditionFailure(
            f"metric uniformity is not {missing}",
            witness=cls.witness(missing))
    # Zero-distance hull per point (rank 0); for a genuine metric this is
    # the point itself, for a pseudometric its kernel class.
    zero_of = tuple(sum(1 << j for j, k in enumerate(row) if not k)
                    for row in m.rank)
    return a._kept(_metric_table, zero_of, a.masks[-1], a.inverse_masks(-1))


def _metric_table(a, zero_of, lem, inv):
    # B is near A iff VB meets the zero hull of VA, i.e. B meets its
    # pullback through the deepest level V (V.x is lem[x], V^{-1}.x inv[x]).
    return meets_table(a.carrier, [_join_mask(inv, _join_mask(zero_of, t))
                                   for t in lem])
