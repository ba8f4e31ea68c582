"""The bitset group-action scans against the scalar references.

``is_g_invariant`` and ``check_action_continuity`` must return the
reference's verdict and first witness; the equinormal separation scan must
return the reference pair scan's verdict.  Failing inputs are included on
purpose, so that witnesses, not only verdicts, are compared.
"""

import random

from equivariant_reference import check_action_continuity_reference, \
    equinormal_separation_reference, is_g_invariant_reference

from eqprox.equivariant import beta_g_proximity, check_equinormal, \
    enumerate_partition_proximities, is_g_invariant
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, \
    check_action_continuity, saturate_uniformity
from eqprox.proximity import Prox, from_uniformity
from eqprox.setrel import Carrier
from eqprox.suite import _random_valid_basis, iter_family


def assert_same_invariance(p, a):
    assert is_g_invariant(p, a) == is_g_invariant_reference(p, a), \
        (a, p.rows)


def assert_same_continuity(a, u):
    assert check_action_continuity(a, u) == \
        check_action_continuity_reference(a, u), (a, u.basis)


def random_germ(rng, n):
    """A cyclic group of one random permutation of n points, or the group
    of two when it stays small, with a random chain of normal subgroups."""
    gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.choice((1, 2)))]
    try:
        group, perms = FiniteGroup.from_permutations(gens, max_size=12)
    except ValueError:
        group, perms = FiniteGroup.from_permutations(gens[:1])
    normal = [h for h in group.subgroups() if group.is_normal(h)]
    levels = [frozenset(range(group.order))]
    while rng.random() < 0.6:
        smaller = [h for h in normal if h < levels[-1]]
        if not smaller:
            break
        levels.append(rng.choice(smaller))
    return GActionGerm(group, NeighborhoodBase(group, levels),
                       Carrier(range(n)), perms)


def flip_one_bit(p, rng):
    rows = list(p.rows)
    N = len(rows)
    rows[rng.randrange(1, N)] ^= 1 << rng.randrange(1, N)
    return Prox(p.carrier, rows, normalize=False)


def test_suite_germs_match_reference():
    germs = {}
    for _label, germ, u in iter_family(max_n=4, seed=0):
        assert_same_continuity(germ, u)
        if germ.carrier.n <= 3:
            assert_same_invariance(from_uniformity(u), germ)
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        germs[key] = germ
    for germ in germs.values():
        for _blocks, rho in enumerate_partition_proximities(germ.carrier):
            assert_same_invariance(rho, germ)
        assert check_equinormal(germ).separation_ok == \
            equinormal_separation_reference(germ)


def test_random_permutation_actions_match_reference():
    rng = random.Random(31)
    for n in range(1, 8):
        for _ in range(6):
            a = random_germ(rng, n)
            u = _random_valid_basis(a.carrier, rng)
            assert_same_continuity(a, u)
            assert_same_continuity(a, saturate_uniformity(a, u))
            bg = beta_g_proximity(a)
            assert_same_invariance(bg, a)
            assert_same_invariance(from_uniformity(u), a)
            if n <= 5:
                assert check_equinormal(a).separation_ok == \
                    equinormal_separation_reference(a)


def test_random_non_invariant_tables_match_reference():
    rng = random.Random(32)
    for n in range(1, 8):
        for _ in range(6):
            a = random_germ(rng, n)
            N = 1 << n
            rows = [rng.getrandbits(N) for _ in range(N)]
            assert_same_invariance(Prox(a.carrier, rows, normalize=False), a)
            # One flipped bit of an invariant table fails deep in the scan.
            assert_same_invariance(flip_one_bit(beta_g_proximity(a), rng), a)
