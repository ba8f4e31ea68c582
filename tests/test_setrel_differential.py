"""Mask-native relations and rank-matrix metrics against the references.

``tests/setrel_reference.py`` keeps the pair-set ``Rel`` operations and
the ``Fraction`` metric constructions as they were; the current code
must give the same pair sets, the same verdicts and the same tables on
random relations (n <= 6), on every {1, 2}-metric of the suite's metric
family (n <= 4) and on random rational pseudometrics under the suite's
actions.  ``Rel.from_masks`` is also checked by brute force, and
``FiniteMetric``'s integer-scaled checks against the ``Fraction`` ones.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from setrel_reference import RelReference, compose_reference, \
    diagonal_reference, family_uniformity_reference, \
    full_relation_reference, intersect_reference, invert_reference, \
    finite_metric_reference, is_isometric_reference, \
    metric_g_proximity_reference, metric_uniformity_reference, \
    sup_pseudometric_reference

from eqprox.errors import PreconditionFailure
from eqprox.gaction import GActionGerm, NeighborhoodBase
from eqprox.metricprox import FiniteMetric, PseudometricFamily, \
    family_uniformity, is_isometric, metric_g_proximity, metric_uniformity, \
    sup_pseudometric
from eqprox.setrel import Carrier, Rel, compose, diagonal, full_relation, \
    intersect, invert
from eqprox.suite import _metric_matrices, curated_actions, germ_chains, \
    suite_groups


def random_pairs(carrier, rng, p):
    els = carrier.elements
    return [(x, y) for x in els for y in els if rng.random() < p]


def assert_same_rel(new, ref):
    assert new.pairs == ref.pairs
    assert new.image_masks == ref.image_masks
    assert new.preimage_masks == ref.preimage_masks
    assert new.pair_bits == ref.pair_bits
    assert repr(new) == repr(ref).replace("RelReference(", "Rel(", 1)


def pair_sets(u):
    return [eps.pairs for eps in u.basis]


def test_relation_operations_match_reference():
    rng = random.Random(17)
    for n in range(1, 7):
        c = Carrier([f"e{i}" for i in range(n)])
        assert_same_rel(diagonal(c), diagonal_reference(c))
        assert_same_rel(full_relation(c), full_relation_reference(c))
        for _ in range(40):
            pr = random_pairs(c, rng, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)))
            ps = random_pairs(c, rng, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)))
            r, s = Rel(c, pr), Rel(c, ps)
            r0, s0 = RelReference(c, pr), RelReference(c, ps)
            assert_same_rel(r, r0)
            assert_same_rel(compose(r, s), compose_reference(r0, s0))
            assert_same_rel(invert(r), invert_reference(r0))
            assert_same_rel(intersect(r, s), intersect_reference(r0, s0))
            assert r.contains(s) == r0.contains(s0)
            assert s.contains(r) == s0.contains(r0)
            assert (r == s) == (r0 == s0)
            for mask in range(1 << n):
                assert r.image_mask(mask) == r0.image_mask(mask)


def test_from_masks_round_trips_and_rejects_out_of_range_masks():
    for n in range(1, 4):
        c = Carrier(range(n))
        full = (1 << n) - 1
        for masks in itertools.product(range(full + 1), repeat=n):
            r = Rel.from_masks(c, masks)
            assert r.image_masks == masks
            back = Rel(c, r.pairs)
            assert back.image_masks == masks
            assert back == r and hash(back) == hash(r)
            assert r.pairs == {(x, y) for x in range(n) for y in range(n)
                               if masks[x] >> y & 1}
        for k in range(n):
            for bad in (-1, -(1 << n), full + 1, 1 << n + 3):
                masks = [0] * n
                masks[k] = bad
                with pytest.raises(ValueError):
                    Rel.from_masks(c, masks)
        for length in (n - 1, n + 1):
            with pytest.raises(ValueError):
                Rel.from_masks(c, [0] * length)


def test_equal_pair_sets_give_equal_relations_and_hashes():
    rng = random.Random(5)
    for n in range(1, 7):
        c = Carrier([f"e{i}" for i in range(n)])
        for _ in range(30):
            pairs = random_pairs(c, rng, 0.4)
            shuffled = pairs + pairs[: len(pairs) // 2]
            rng.shuffle(shuffled)
            a, b = Rel(c, pairs), Rel(c, shuffled)
            m = Rel.from_masks(c, a.image_masks)
            assert a == b == m
            assert hash(a) == hash(b) == hash(m)
            assert len({a, b, m}) == 1
            other = random_pairs(c, rng, 0.4)
            assert (Rel(c, other) == a) == (frozenset(other) == a.pairs)


def metric_germs(n):
    groups = [g for g in suite_groups(6) if g[0] in ("Z2", "Z4", "S3")]
    carrier = Carrier(range(n))
    for gname, group, gens in groups:
        for act in curated_actions(gname, group, gens, n):
            for levels in germ_chains(group):
                yield GActionGerm(group, NeighborhoodBase(group, levels),
                                  carrier, act)


def test_metric_family_matrices_match_reference():
    for n in (1, 2, 3, 4):
        carrier = Carrier(range(n))
        germs = list(metric_germs(n))
        metrics = [FiniteMetric(carrier, mat) for mat in _metric_matrices(n)]
        for k, m in enumerate(metrics):
            assert pair_sets(metric_uniformity(m)) == \
                pair_sets(metric_uniformity_reference(m))
            fam = PseudometricFamily(carrier, [m, metrics[k // 2]])
            assert pair_sets(family_uniformity(fam)) == \
                pair_sets(family_uniformity_reference(fam))
            for germ in germs:
                assert is_isometric(m, germ) == is_isometric_reference(m, germ)


def random_pseudometric(n, rng):
    """d = the larger of two line distances |x_i - x_j| between points of
    the plane with a few rational coordinates.  Half the time the points
    come from a pool smaller than n, so that distinct points at distance
    0 occur."""
    coords = [Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1),
              Fraction(3, 2), Fraction(7, 3)]
    pool = [(rng.choice(coords), rng.choice(coords))
            for _ in range(max(1, n - rng.choice((0, 1))))]
    pts = [rng.choice(pool) for _ in range(n)]
    return [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts]
            for p in pts]


def metric_g_outcome(prox, m, germ):
    try:
        return prox(m, germ).rows
    except PreconditionFailure as exc:
        return str(exc), exc.witness


def test_random_pseudometrics_under_suite_actions_match_reference():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        carrier = Carrier(range(n))
        for gname, group, gens in suite_groups(6):
            actions = curated_actions(gname, group, gens, n)
            chains = germ_chains(group)
            for _ in range(3):
                members = [FiniteMetric(carrier, random_pseudometric(n, rng),
                                        pseudo=True)
                           for _ in range(rng.choice((1, 2)))]
                fam = PseudometricFamily(carrier, members)
                germ = GActionGerm(
                    group, NeighborhoodBase(group, rng.choice(chains)),
                    carrier, rng.choice(actions))
                assert pair_sets(family_uniformity(fam)) == \
                    pair_sets(family_uniformity_reference(fam))
                subsets = [frozenset({group.e}), frozenset(range(group.order)),
                           germ.deepest]
                for m in members:
                    assert pair_sets(metric_uniformity(m)) == \
                        pair_sets(metric_uniformity_reference(m))
                    assert is_isometric(m, germ) == \
                        is_isometric_reference(m, germ)
                    assert metric_g_outcome(metric_g_proximity, m, germ) == \
                        metric_g_outcome(metric_g_proximity_reference, m, germ)
                for s in subsets:
                    for i in range(len(members)):
                        sup = sup_pseudometric(fam, germ, s, i)
                        ref = sup_pseudometric_reference(fam, germ, s, i)
                        assert sup.dist == ref.dist
                        assert pair_sets(metric_uniformity(sup)) == \
                            pair_sets(metric_uniformity_reference(ref))


def metric_outcome(build, carrier, dist, pseudo):
    """(dist, values, rank) of an accepted matrix, or the refusal message."""
    try:
        return build(carrier, dist, pseudo)
    except ValueError as exc:
        return str(exc)


def library_metric(carrier, dist, pseudo):
    m = FiniteMetric(carrier, dist, pseudo=pseudo)
    assert all(type(v) is Fraction for v in m.values)
    return m.dist, m.values, m.rank


# The first words of each refusal, and of acceptance.
OUTCOMES = ("accepted", "distance matrix must be n x n",
            "nonzero self-distance", "negative distance",
            "asymmetric distance", "triangle inequality fails",
            "zero distance between distinct points")


def outcome_kind(outcome):
    if not isinstance(outcome, str):
        return "accepted"
    return next(kind for kind in OUTCOMES if outcome.startswith(kind))


def broken_matrix(n, rng):
    """A max-norm pseudometric on points with coordinates of mixed
    denominators (distinct points at distance 0 half the time), then
    left alone or broken in one of six ways."""
    coords = [Fraction(rng.randrange(0, 13), rng.choice((1, 2, 3, 5, 7, 12)))
              for _ in range(4)]
    pool = [(rng.choice(coords), rng.choice(coords))
            for _ in range(max(1, n - rng.choice((0, 1))))]
    pts = [rng.choice(pool) for _ in range(n)]
    d = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts] for p in pts]
    i, j, k = (rng.randrange(n) for _ in range(3))
    eps = Fraction(1, rng.choice((2, 3, 4, 9, 11)))
    how = rng.choice(("none", "shape", "self", "negative", "asymmetric",
                      "triangle", "zero"))
    if how == "shape":
        d[i] = d[i][:-1] if rng.random() < 0.5 else d[i] + [eps]
    elif how == "self":
        d[i][i] = eps
    elif how == "negative" and i != j:
        d[i][j] = d[j][i] = -eps
    elif how == "asymmetric" and i != j:
        d[i][j] += eps
    elif how == "triangle" and len({i, j, k}) == 3:
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + eps
    elif how == "zero" and i != j:
        d[i][j] = d[j][i] = Fraction(0)
    return d


def test_integer_scaled_checks_match_fraction_checks():
    rng = random.Random(41)
    kinds = Counter()
    for _ in range(3000):
        n = rng.randrange(1, 6)
        carrier = Carrier([f"p{i}" for i in range(n)])
        dist = broken_matrix(n, rng)
        pseudo = rng.random() < 0.5
        got = metric_outcome(library_metric, carrier, dist, pseudo)
        assert got == metric_outcome(finite_metric_reference, carrier, dist,
                                     pseudo), (dist, pseudo)
        kinds[outcome_kind(got)] += 1
    assert set(kinds) == set(OUTCOMES), kinds
    assert min(kinds.values()) >= 40, kinds


def pairwise_coprime_denominators(count, digits):
    """count integers of `digits` digits, pairwise coprime: i * M + 1 for
    count <= i < 2 * count, with M a multiple of every prime below count.
    A prime dividing two of them divides (j - i) * M but not M, so it
    divides j - i < count; yet every prime below count divides M."""
    primes = [p for p in range(2, count) if all(p % q for q in range(2, p))]
    step = math.prod(primes)
    m = (10 ** (digits - 1) // count // step + 1) * step
    out = [i * m + 1 for i in range(count, 2 * count)]
    assert all(len(str(q)) == digits for q in out)
    return out


def test_twelve_points_with_coprime_forty_digit_denominators():
    n = 12
    carrier = Carrier(range(n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dens = pairwise_coprime_denominators(len(slots), 40)
    assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(dens, 2))
    # Every distance lies in (1, 2], so the triangle inequality holds.
    dist = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), q in zip(slots, dens):
        dist[i][j] = dist[j][i] = Fraction(q + 1, q)
    start = time.perf_counter()
    got = library_metric(carrier, dist, False)
    assert time.perf_counter() - start < 1.0
    assert got == finite_metric_reference(carrier, dist)
    # d(0, 2) exceeds d(0, 1) + d(1, 2) by 10**-40: the scan meets the
    # violation at j = 1 first.
    dist[0][2] = dist[2][0] = dist[0][1] + dist[1][2] + Fraction(1, 10 ** 40)
    start = time.perf_counter()
    refusal = metric_outcome(library_metric, carrier, dist, False)
    assert time.perf_counter() - start < 1.0
    assert refusal == "triangle inequality fails at (0, 1, 2)"
    assert refusal == metric_outcome(finite_metric_reference, carrier, dist,
                                     False)
