import itertools
import random
from fractions import Fraction as F

import pytest

from eqprox.equivariant import compute_ug
from eqprox.errors import CarrierMismatch, PreconditionFailure
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, classify
from eqprox.metricprox import FiniteMetric, PseudometricFamily, \
    family_uniformity, is_isometric, metric_g_proximity, metric_uniformity, \
    sup_pseudometric, xi_report
from eqprox.proximity import Prox, from_uniformity
from eqprox.setrel import Carrier
from eqprox.suite import _metric_matrices, curated_actions, germ_chains, \
    suite_groups
from eqprox.uniformity import refinement_equivalent, refines, validate_basis


def four_cycle():
    c = Carrier(range(4))

    def d(i, j):
        k = abs(i - j)
        return min(k, 4 - k)

    metric = FiniteMetric(c, [[d(i, j) for j in range(4)] for i in range(4)])
    g = FiniteGroup.cyclic(4)
    act = [tuple((x + k) % 4 for x in range(4)) for k in range(4)]
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(4))]), c, act)
    return metric, germ


def test_metric_validation():
    c = Carrier(range(3))
    with pytest.raises(ValueError, match="symmetric|asymmetric"):
        FiniteMetric(c, [[0, 1, 1], [2, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetric(c, [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(ValueError, match="self-distance"):
        FiniteMetric(c, [[1, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="distinct"):
        FiniteMetric(c, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    FiniteMetric(c, [[0, 0, 1], [0, 0, 1], [1, 1, 0]], pseudo=True)


def test_metric_uniformity_threshold_structure():
    c2 = Carrier(["a", "b"])
    u = metric_uniformity(FiniteMetric(c2, [[0, 1], [1, 0]]))
    assert sorted(len(e.pairs) for e in u.basis) == [2, 4]
    assert validate_basis(u).ok()
    c3 = Carrier(range(3))
    u3 = metric_uniformity(FiniteMetric(c3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert len({e.pairs for e in u3.basis}) == 3
    assert validate_basis(u3).ok()


def test_sub_minimum_level_is_the_diagonal():
    metric, _ = four_cycle()
    u = metric_uniformity(metric)
    finest = min(u.basis, key=lambda e: len(e.pairs))
    assert finest.pairs == {(x, x) for x in metric.carrier.elements}


def test_finite_metric_proximity_is_overlap():
    c3 = Carrier(range(3))
    m = FiniteMetric(c3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert from_uniformity(metric_uniformity(m)) == Prox.overlap(c3)


def test_sup_pseudometric_identity_subset():
    metric, germ = four_cycle()
    fam = PseudometricFamily(metric.carrier, [metric])
    out = sup_pseudometric(fam, germ, {"e"}, 0)
    assert out.dist == metric.dist


def test_sup_pseudometric_invariant_metric():
    metric, germ = four_cycle()
    assert is_isometric(metric, germ)
    fam = PseudometricFamily(metric.carrier, [metric])
    out = sup_pseudometric(fam, germ, set(germ.group.names), 0)
    assert out.dist == metric.dist


def test_sup_pseudometric_s3_example():
    c = Carrier(range(3))
    m = FiniteMetric(c, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    g, perms = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(6))]), c, perms)
    fam = PseudometricFamily(c, [m])
    out = sup_pseudometric(fam, germ, set(g.names), 0)
    assert out.dist[0][1] == F(2)


def test_sup_pseudometric_monotone_in_the_subset():
    metric, germ = four_cycle()
    fam = PseudometricFamily(metric.carrier, [metric])
    rng = random.Random(8)
    names = list(germ.group.names)
    for _ in range(20):
        small = {nm for nm in names if rng.random() < 0.5} | {"e"}
        big = small | {nm for nm in names if rng.random() < 0.5}
        ds = sup_pseudometric(fam, germ, small, 0)
        db = sup_pseudometric(fam, germ, big, 0)
        for i in range(4):
            for j in range(4):
                assert ds.dist[i][j] <= db.dist[i][j]
    with pytest.raises(PreconditionFailure):
        sup_pseudometric(fam, germ, set(), 0)


def worst_cases(fam, germ, subsets):
    """The worst-case pseudometrics d_{A,i}, subset-major."""
    return [sup_pseudometric(fam, germ, s, i)
            for s in subsets for i in range(len(fam.members))]


def test_xi_uniformity_identity_family():
    metric, germ = four_cycle()
    fam = PseudometricFamily(metric.carrier, [metric])
    xi = family_uniformity(PseudometricFamily(
        fam.carrier, worst_cases(fam, germ, [frozenset({germ.group.e})])))
    assert validate_basis(xi).ok()
    assert refinement_equivalent(xi, family_uniformity(fam))


def test_xi_uniformity_invariant_whole_group():
    metric, germ = four_cycle()
    fam = PseudometricFamily(metric.carrier, [metric])
    xi = family_uniformity(PseudometricFamily(
        fam.carrier, worst_cases(fam, germ, [frozenset(range(4))])))
    assert refinement_equivalent(xi, family_uniformity(fam))
    assert classify(germ, xi).quasibounded
    assert refines(xi, family_uniformity(fam))


def test_xi_report_cases():
    metric, germ = four_cycle()
    fam = PseudometricFamily(metric.carrier, [metric])
    whole = [frozenset(range(4))]
    rep = xi_report(fam, germ, whole, worst_cases(fam, germ, whole))
    assert rep.ok()
    assert rep.quasibounded == "pass"
    ident = [frozenset({germ.group.e})]
    rep2 = xi_report(fam, germ, ident, worst_cases(fam, germ, ident))
    assert rep2.ok()
    assert rep2.quasibounded == "n/a"  # {e}.V = G is not inside {e}
    assert rep2.refinement == "pass"
    # Below G the chain (G, {e}) reaches {e}, and {e}.{e} lies in {e}.
    g = germ.group
    deep = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(4)),
                                               frozenset({g.e})]),
                       germ.carrier, germ.act)
    rep3 = xi_report(fam, deep, ident, worst_cases(fam, deep, ident))
    assert rep3.ok()
    assert rep3.quasibounded == "pass"


def test_metric_g_proximity_discrete_germ():
    c = Carrier(range(3))
    m = FiniteMetric(c, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    g = FiniteGroup.cyclic(1)
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c, [(0, 1, 2)])
    assert metric_g_proximity(m, germ) == Prox.overlap(c)


def test_metric_g_proximity_transitive_rotation():
    metric, germ = four_cycle()
    p = metric_g_proximity(metric, germ)
    assert p.near({0}, {2})
    assert p == Prox.nonempty_pairs(metric.carrier)


def test_metric_g_proximity_matches_derived_uniformity():
    metric, germ = four_cycle()
    derived = from_uniformity(compute_ug(germ, metric_uniformity(metric)))
    assert metric_g_proximity(metric, germ) == derived


def test_metric_g_proximity_precondition():
    # A genuine finite metric always induces the discrete uniformity, where
    # every translation is uniformly continuous; failing the hypothesis
    # needs a pseudometric whose kernel the action breaks.
    c = Carrier(range(3))
    m = FiniteMetric(c, [[0, 0, 1], [0, 0, 1], [1, 1, 0]], pseudo=True)
    g = FiniteGroup.cyclic(2)
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset({0, 1})]), c,
                       [(0, 1, 2), (0, 2, 1)])
    assert not is_isometric(m, germ)
    assert not classify(germ, metric_uniformity(m)).saturated
    with pytest.raises(PreconditionFailure):
        metric_g_proximity(m, germ)


def test_isometric_shortcut():
    metric, germ = four_cycle()
    cls = classify(germ, metric_uniformity(metric))
    assert cls.uniformly_equicontinuous
    assert cls.pi_uniform
    metric_g_proximity(metric, germ)  # defined without further hypotheses


@pytest.mark.parametrize("check", [is_isometric, metric_g_proximity])
@pytest.mark.parametrize("elements", [range(3), range(5), [0, 2, 1, 3]])
def test_metric_readers_reject_a_metric_over_another_carrier(check, elements):
    # The discrete metric is kept by every permutation, so only the carrier
    # check can turn it away.
    _metric, germ = four_cycle()
    c = Carrier(elements)
    other = FiniteMetric(c, [[int(i != j) for j in range(c.n)]
                             for i in range(c.n)])
    with pytest.raises(CarrierMismatch, match="action's carrier"):
        check(other, germ)


def test_isometric_settings_of_the_metric_family_are_pi_uniform():
    # The metric family reads its settings' pi-uniformity only, so the
    # claim that an isometric action needs no further hypothesis is
    # checked here, on the family's settings up to three points, with
    # is_isometric against each element preserving the rational distances.
    groups = [g for g in suite_groups(6) if g[0] in ("Z2", "Z4", "S3")]
    isometric = set()
    for n in (1, 2, 3):
        c = Carrier(range(n))
        for matrix in _metric_matrices(n):
            metric = FiniteMetric(c, matrix)
            u = metric_uniformity(metric)
            d = metric.dist
            for gname, group, gens in groups:
                for act in curated_actions(gname, group, gens, n):
                    literal = all(d[p[i]][p[j]] == d[i][j] for p in act
                                  for i in range(n) for j in range(n))
                    for levels in germ_chains(group):
                        germ = GActionGerm(
                            group, NeighborhoodBase(group, levels), c, act)
                        assert is_isometric(metric, germ) == literal
                        if literal:
                            assert classify(germ, u).pi_uniform
                        isometric.add(literal)
    assert isometric == {True, False}


def translate_distance_rows(m, a):
    """near(A, B) iff d(VA, VB) = 0 at every chain level V, read from the
    rational distances: the least distance between VA and VB is 0 iff
    some pair of them is at distance 0 (so never when either is empty).
    Rows indexed by subset masks."""
    n = m.carrier.n
    d = m.dist
    translates = [[{a.act[v][i] for v in level for i in range(n)
                    if mask >> i & 1} for mask in range(1 << n)]
                  for level in a.ne.levels]

    def at_distance_zero(s, t):
        return any(d[i][j] == 0 for i in s for j in t)

    return tuple(
        sum(1 << bm for bm in range(1 << n)
            if all(at_distance_zero(va[am], va[bm]) for va in translates))
        for am in range(1 << n))


def test_metric_table_key_carries_the_zero_hull():
    # Z2 swapping 0 and 1 on four points, its one chain level the whole
    # group: the discrete metric and a pseudometric whose zero class is
    # {2, 3} are both pi-uniform on this germ and share its deepest level,
    # but not their tables.
    c = Carrier(range(4))
    g = FiniteGroup.cyclic(2)
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset({0, 1})]), c,
                       [(0, 1, 2, 3), (1, 0, 2, 3)])
    metric = FiniteMetric(c, [[int(i != j) for j in range(4)]
                              for i in range(4)])
    pseudo = FiniteMetric(c, [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 0],
                              [1, 1, 0, 0]], pseudo=True)
    tables = [metric_g_proximity(m, germ) for m in (metric, pseudo)]
    assert tables[0] != tables[1]
    for m, table in zip((metric, pseudo), tables):
        assert table.rows == translate_distance_rows(m, germ)
        assert metric_g_proximity(m, germ) == table


def test_metric_tables_on_shared_germs_match_translate_distances():
    # {0, 1, 2}-valued pseudometrics through one germ per (group, action,
    # chain) of the metric family, so tables kept for one matrix are read
    # for the next: each table must be the one of its own zero hull.  All
    # of them up to three points, a seeded sample of 40 at four.
    rng = random.Random(43)
    groups = [g for g in suite_groups(6) if g[0] in ("Z2", "Z4", "S3")]
    tables_per_germ = {}  # each germ has one chain, so one deepest level
    for n in (1, 2, 3, 4):
        c = Carrier(range(n))
        germs = [GActionGerm(group, NeighborhoodBase(group, levels), c, act)
                 for gname, group, gens in groups
                 for act in curated_actions(gname, group, gens, n)
                 for levels in germ_chains(group)]
        slots = list(itertools.combinations(range(n), 2))
        matrices = []
        for values in itertools.product((0, 1, 2), repeat=len(slots)):
            dist = [[0] * n for _ in range(n)]
            for (i, j), v in zip(slots, values):
                dist[i][j] = dist[j][i] = v
            try:
                matrices.append(FiniteMetric(c, dist, pseudo=True))
            except ValueError:
                pass
        if n == 4:
            matrices = rng.sample(matrices, 40)
        for m in matrices:
            for germ in germs:
                if not classify(germ, metric_uniformity(m)).pi_uniform:
                    continue
                table = metric_g_proximity(m, germ)
                assert table.rows == translate_distance_rows(m, germ), \
                    (germ, m.dist)
                tables_per_germ.setdefault(id(germ), set()).add(table.rows)
    assert max(map(len, tables_per_germ.values())) > 1
