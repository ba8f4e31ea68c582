"""The bitset group-action scans and the join-table proximities against
the scalar references.

``is_g_invariant``, ``check_action_continuity`` and
``is_action_compatible`` must return the reference's verdict and first
witness; the equinormal separation scans must return the reference scans'
verdicts; ``nu_proximity`` and ``beta_g_proximity`` must return the
reference's tables, or raise the same error, and the plain and
``--sets`` requests, which read one map, must print what the tables and
the entry reader of the several-map tables print.  Translates and
pullbacks through the germ's point masks, and the functions built on
them, must agree with the point-at-a-time references.  Failing inputs
are included on purpose, so that witnesses, not only verdicts, are
compared.
"""

import io
import random
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from equivariant_reference import _level_pullback, \
    action_continuity_translate_reference, \
    acts_equicontinuously_reference, beta_g_map, beta_g_proximity_reference, \
    bracket_entourage_reference, check_action_continuity_reference, \
    classify_reference, deepest_orbits_coincide_reference, \
    entry_reader_reference, equinormal_separation_reference, \
    is_action_compatible_reference, is_g_invariant_reference, nu_maps, \
    nu_proximity_point_pullback_reference, nu_proximity_reference, \
    nu_proximity_two_tables_reference, push_rel, separation_ok_reference, \
    set_translate_mask, translate_mask, validate_basis_reference
from proximity_reference import _point_block, meets, meets_points, \
    meets_table_reference

from eqprox import cli, equivariant, gaction
from eqprox.document import load_instance, subset_to_json
from eqprox.equivariant import _separation_ok, \
    beta_g_proximity, bracket_entourage, check_descending, check_equinormal, \
    compute_ug, deepest_orbits_coincide, enumerate_partition_proximities, \
    is_action_compatible, is_g_invariant, nu_proximity
from eqprox.errors import DocumentError, InternalCheckFailure, \
    PreconditionFailure
from eqprox.gaction import VERDICTS, FiniteGroup, GActionGerm, \
    NeighborhoodBase, check_action_continuity, classify, saturate_uniformity
from eqprox.metricprox import FiniteMetric, PseudometricFamily, \
    _acts_equicontinuously, family_uniformity, metric_uniformity, \
    sup_pseudometric
from eqprox.proximity import from_uniformity, meets_table
from eqprox.setrel import Carrier, Rel, _join_mask
from eqprox.suite import _metric_matrices, _random_valid_basis, \
    curated_actions, germ_chains, iter_family, suite_groups
from eqprox.uniformity import UnifBase, discrete_basis, indiscrete_basis, \
    validate_basis

FIXTURES = Path(__file__).parent / "fixtures"

# The function that keeps each verdict's witness in the germ cache, or,
# for action continuity, the verdict its witness is read from.
VERDICT_OF = {
    gaction._saturation_witness: "saturated",
    gaction._boundedness_witness: "bounded",
    gaction._quasiboundedness_witness: "quasibounded",
    gaction._group_equicontinuity_witness: "equicontinuous",
    gaction._uniform_equicontinuity_witness: "uniformly_equicontinuous",
    gaction._action_continuity: "action_continuous",
}


def assert_same_invariance(p, a):
    assert is_g_invariant(p, a) == is_g_invariant_reference(p, a), \
        (a, p.rows)


def assert_same_continuity(a, u):
    assert check_action_continuity(a, u) == \
        check_action_continuity_reference(a, u), (a, u.basis)


def basis_report(validate, u):
    rep = validate(u)
    return [(name, rep.passed(name), rep.counterexample(name))
            for name in rep.names]


def assert_same_basis_report(u):
    assert basis_report(validate_basis, u) == \
        basis_report(validate_basis_reference, u), u.basis


def verdicts(report, order=VERDICTS):
    """(verdict, witness) per verdict name of a library report, each
    verdict read in `order` before its witness."""
    return {name: (getattr(report, name), report.witness(name))
            for name in order}


def assert_same_classification(a, u):
    assert verdicts(classify(a, u)) == classify_reference(a, u), \
        (a, u.basis)


def assert_same_setting(a, u):
    """Basis report, classification and continuity, witnesses included."""
    assert_same_basis_report(u)
    assert_same_classification(a, u)
    assert_same_continuity(a, u)


def assert_read_orders_agree(a, u):
    """The verdicts and witnesses read from fresh germs over a's action
    and chain: all six in forward order, all six in reverse order, and
    each verdict and composite alone, against the reference, which is
    returned."""
    want = classify_reference(a, u)

    def fresh():
        return classify(GActionGerm(a.group, a.ne, a.carrier, a.act), u)

    for order in (VERDICTS, VERDICTS[::-1]):
        assert verdicts(fresh(), order) == want, (a, u.basis, order)
    for name in VERDICTS:
        report = fresh()
        assert verdicts(report, (name,)) == {name: want[name]}, \
            (a, u.basis, name)
        assert [VERDICT_OF[key[0]] for key in report.germ._cache
                if key[0] in VERDICT_OF] == [name]
    saturated = want["saturated"][0]
    assert fresh().pi_uniform == (want["quasibounded"][0] and saturated)
    assert fresh().equiuniform == (want["bounded"][0] and saturated)
    report = fresh()
    assert report.witnesses == {name: wit for name, (_good, wit)
                                in want.items() if wit is not None}
    return want


def nu_or_error(nu, a, u):
    try:
        return nu(a, u).rows
    except PreconditionFailure as err:
        return "precondition", str(err)


def assert_same_nu(a, u):
    assert nu_or_error(nu_proximity, a, u) == \
        nu_or_error(nu_proximity_reference, a, u), (a, u.basis)


def assert_same_compatibility(p, a):
    assert is_action_compatible(p, a) == \
        is_action_compatible_reference(p, a), (a, p.rows)


class CorruptPullbacks(GActionGerm):
    """A germ whose inverse point masks pull point 0 back to the whole
    carrier at every level, so that the two mask routes of the separation
    scan can disagree."""

    __slots__ = ()

    def inverse_masks(self, level_index):
        return ((self.carrier.full_mask,)
                + super().inverse_masks(level_index)[1:])


def with_corrupt_pullbacks(a):
    """A copy of the germ a, with a fresh cache, as a `CorruptPullbacks`."""
    return CorruptPullbacks(a.group, a.ne, a.carrier, a.act)


def assert_same_germ_tables(a, rng):
    """betag, the separation scan (also with corrupt pullbacks) and the
    compatibility verdicts and witnesses of betag and of one corrupted
    copy of it."""
    bg = beta_g_proximity(a)
    assert bg.rows == beta_g_proximity_reference(a).rows, a
    assert _separation_ok(bg, a.masks[-1]) == separation_ok_reference(a), a
    bad = with_corrupt_pullbacks(a)
    assert _separation_ok(beta_g_proximity(bad), bad.masks[-1]) == \
        separation_ok_reference(bad), a
    assert_same_compatibility(bg, a)
    assert_same_compatibility(flip_one_bit(bg, rng), a)


def random_germ(rng, n):
    """A cyclic group of one random permutation of n points, or the group
    of two when it stays small, with a random chain of normal subgroups."""
    gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.choice((1, 2)))]
    try:
        group, perms = FiniteGroup.from_permutations(gens)
    except ValueError:  # past the cap of 48
        group = None
    if group is None or group.order > 12:
        group, perms = FiniteGroup.from_permutations(gens[:1])
    if group.order > 12:  # past the cap of FiniteGroup.subgroups
        return random_germ(rng, n)
    normal = [h for h in group.subgroups() if group.is_normal(h)]
    levels = [frozenset(range(group.order))]
    while rng.random() < 0.6:
        smaller = [h for h in normal if h < levels[-1]]
        if not smaller:
            break
        levels.append(rng.choice(smaller))
    return GActionGerm(group, NeighborhoodBase(group, levels),
                       Carrier(range(n)), perms)


def with_random_upper_levels(a, rng):
    """The germ with its chain replaced by random supersets of its deepest
    level, descending.  A superset of a normal subgroup is always a valid
    level, and most of these are not closed under inverses."""
    group = a.group
    levels = [a.deepest]
    for _ in range(rng.randint(1, 2)):
        extra = {g for g in range(group.order) if rng.random() < 0.4}
        levels.insert(0, levels[0] | extra)
    return GActionGerm(group, NeighborhoodBase(group, levels), a.carrier,
                       a.act)


def flip_one_bit(p, rng):
    """The table of p's map with one bit of one point value flipped."""
    f = list(p.map)
    n = len(f)
    f[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return meets_table(p.carrier, f)


def random_map_table(rng, carrier):
    """The table of a map with random point values."""
    return meets_table(carrier, [rng.getrandbits(carrier.n)
                                 for _ in range(carrier.n)])


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
            # No basis condition is assumed: lists failing B1 to B4 too.
            assert_same_continuity(a, random_relation_list(rng, a.carrier))
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
            assert_same_invariance(random_map_table(rng, a.carrier), a)
            # One flipped bit of an invariant table fails deep in the scan.
            assert_same_invariance(flip_one_bit(beta_g_proximity(a), rng), a)


def z6_germs():
    """Z6 by its multiplication table, element 3a + b standing for (a, b)
    in Z2 x Z3, so that its generating set is (1, 3).  It acts through
    its Z2 quotient (on 2 and 4 points), its Z3 quotient (on 3 points) and
    both (on 5 points), on chains ending at e, at Z3, at Z2 and at the
    whole group.  The quotient actions are not faithful: one generator
    acts as the identity."""
    mul = [[3 * ((i // 3 + j // 3) % 2) + (i + j) % 3 for j in range(6)]
           for i in range(6)]
    group = FiniteGroup([f"{i // 3}{i % 3}" for i in range(6)], mul)
    assert group.gens == (1, 3)
    whole = frozenset(range(6))
    chains = [[whole], [whole, {0}], [whole, {0, 1, 2}], [whole, {0, 3}]]

    def act(i, n):
        a, b = divmod(i, 3)
        two = [x ^ a for x in range(4)]
        three = [2 + (x + b) % 3 for x in range(3)]
        return {2: two[:2], 4: two, 3: [x - 2 for x in three],
                5: two[:2] + three}[n]

    for n in (2, 3, 4, 5):
        for levels in chains:
            yield GActionGerm(group, NeighborhoodBase(group, levels),
                              Carrier(range(n)),
                              [act(i, n) for i in range(6)])


def s4_germs():
    """S4 from two permutation generators, acting on 4 points and on 5
    points with the last fixed, on chains ending at e, at the Klein four
    group and at S4."""
    group, elems = FiniteGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    klein = {elems.index(p) for p in
             [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]}
    whole = frozenset(range(group.order))
    for n in (4, 5):
        act = [p + tuple(range(4, n)) for p in elems]
        for levels in ([whole], [whole, {group.e}], [whole, klein]):
            yield GActionGerm(group, NeighborhoodBase(group, levels),
                              Carrier(range(n)), act)


def test_quotient_and_permutation_group_actions_match_reference():
    rng = random.Random(36)
    for a in list(z6_germs()) + list(s4_germs()):
        bg = beta_g_proximity(a)
        assert_same_invariance(bg, a)
        for _ in range(3):
            assert_same_invariance(flip_one_bit(bg, rng), a)
        assert_same_invariance(random_map_table(rng, a.carrier), a)
        for _blocks, rho in enumerate_partition_proximities(a.carrier):
            assert_same_invariance(rho, a)


def test_invariance_scans_each_distinct_generator_permutation_once(
        monkeypatch):
    # Z2 x Z2 acting on two points by the sum of its coordinates has two
    # generators with one permutation; the Z6 quotient actions have a
    # generator acting as the identity.
    mul = [[i ^ j for j in range(4)] for i in range(4)]
    klein = FiniteGroup(["e", "a", "b", "ab"], mul)
    assert klein.gens == (1, 2)
    summed = GActionGerm(klein, NeighborhoodBase(klein, [frozenset({0})]),
                         Carrier(range(2)),
                         [(0, 1), (1, 0), (1, 0), (0, 1)])
    calls = []
    pullback = equivariant._pullback
    monkeypatch.setattr(equivariant, "_pullback", lambda p, fwd, inv:
                        calls.append(fwd) or pullback(p, fwd, inv))
    counts = []
    for a in [summed] + list(z6_germs()) + list(s4_germs()):
        calls.clear()
        assert is_g_invariant(beta_g_proximity(a), a) == (True, None)
        moved = {a.act[g] for g in a.group.gens} - {tuple(range(a.carrier.n))}
        assert len(calls) == len(moved), a
        assert {tuple(m.bit_length() - 1 for m in fwd)
                for fwd in calls} == moved, a
        counts.append(len(calls))
    assert counts[0] == 1 and min(counts) == 1 and max(counts) == 2, counts


def test_join_table_proximities_match_reference_on_suite_germs():
    rng = random.Random(33)
    germs = {}
    for _label, germ, u in iter_family(max_n=4, seed=0):
        assert_same_nu(germ, u)
        assert_same_compatibility(from_uniformity(u), germ)
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        germs[key] = germ
    for germ in germs.values():
        assert_same_nu(germ, discrete_basis(germ.carrier))
        assert_same_germ_tables(germ, rng)


def test_join_table_proximities_match_reference_on_random_actions():
    rng = random.Random(34)
    for n in range(1, 9):
        for _ in range(5):
            a = random_germ(rng, n)
            u = _random_valid_basis(a.carrier, rng)
            for basis in (u, saturate_uniformity(a, u),
                          discrete_basis(a.carrier)):
                assert_same_nu(a, basis)
                assert_same_compatibility(from_uniformity(basis), a)
            assert_same_germ_tables(a, rng)


@pytest.mark.parametrize("name", ["twelve_points_s3.json",
                                  "twelve_points_s3_orbits.json"])
def test_join_table_proximities_match_reference_at_the_cap(name):
    inst = load_instance(str(FIXTURES / name))
    a = inst.germ
    bases = [discrete_basis(a.carrier)]
    if inst.uniformity is not None:
        bases.append(inst.uniformity)
    for u in bases:
        nu = nu_proximity(a, u)
        assert nu.rows == nu_proximity_reference(a, u).rows
        assert_same_compatibility(nu, a)
    assert_same_germ_tables(a, random.Random(35))


def run_query(what, a, u, sets=None):
    """The stdout of the CLI's plain `what` request on the germ a (and for
    `nu` the basis u), or of its `--sets` request on the pair of subset
    masks `sets`."""
    c = a.carrier
    instance = SimpleNamespace(
        require_uniformity=lambda: u,
        subsets=dict(zip("AB", map(c.mask_subset, sets or ()))))
    args = SimpleNamespace(what=what, json=False,
                           sets=None if sets is None else ["A", "B"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli._query(args, instance, a) == 0
    return out.getvalue()


def plain_text(carrier, points):
    """The plain `nu` or `betag` output of a point block."""
    els = carrier.elements
    separated = all(not row & ~(1 << i) for i, row in enumerate(points))
    lines = [f"proximity on {list(els)}; "
             f"separated: {'yes' if separated else 'no'}",
             "point nearness classes:"]
    seen = set()
    for i, x in enumerate(els):
        if x not in seen:
            cls = [y for j, y in enumerate(els)
                   if i == j or points[i] >> j & 1]
            seen.update(cls)
            lines.append(f"  {subset_to_json(carrier, cls)}")
    return "\n".join(lines) + "\n"


def outcome(read):
    """read(), or the type and message of the error it raises as a
    tuple."""
    try:
        return read()
    except (PreconditionFailure, InternalCheckFailure) as err:
        return type(err), str(err)


def nu_point_block(a, u):
    """The plain `nu` output, read from the map."""
    return run_query("nu", a, u)


def nu_sets_entry(a, u):
    """The `nu --sets` verdict on the first two points, from the map."""
    return run_query("nu", a, u, (0b01, 0b10))


@pytest.mark.parametrize("nu", [nu_proximity, nu_proximity_reference,
                                nu_point_block, nu_sets_entry])
def test_nu_traps_a_chain_that_is_not_descending(nu):
    # A valid germ rebound to a valid chain whose levels are then
    # overwritten by the ascending ({e}, G): the identity level keeps the
    # swapped points apart, the whole group does not, so the full chain
    # and the deepest level differ, on the table, on the point block and
    # on the two points' verdict.
    g = FiniteGroup.cyclic(2)
    whole = frozenset(range(g.order))
    a = GActionGerm(g, NeighborhoodBase(g, [whole]), Carrier(["a", "b"]),
                    [(0, 1), (1, 0)])
    ascending = NeighborhoodBase(g, [whole])
    ascending.levels = (frozenset({g.e}), whole)
    a = a.on_chain(ascending)
    assert a.deepest == whole
    with pytest.raises(InternalCheckFailure, match="not descending"):
        nu(a, discrete_basis(a.carrier))


def ug_or_error(a, u):
    try:
        return compute_ug(a, u).basis
    except PreconditionFailure as err:
        return str(err)


def assert_same_as_fresh(shared, fresh, u):
    """The germ that shares its action's cache against a fresh germ on the
    same chain: the classification with its witnesses, the maximal group
    proximity, the derived basis and the point-mask tables of every
    level."""
    assert classify(shared, u) == classify(fresh, u), (shared, u.basis)
    assert beta_g_proximity(shared).rows == beta_g_proximity(fresh).rows, \
        shared
    assert ug_or_error(shared, u) == ug_or_error(fresh, u), (shared, u.basis)
    for li in range(len(shared.ne.levels)):
        assert shared.masks[li] == fresh.masks[li]
        assert shared.inverse_masks(li) == \
            fresh.inverse_masks(li)


def test_shared_cache_matches_fresh_germs_on_suite_germs():
    fresh = {}
    for _label, germ, u in iter_family(max_n=4, seed=0):
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        if key not in fresh:
            fresh[key] = GActionGerm(germ.group, germ.ne, germ.carrier,
                                     germ.act)
        assert_same_as_fresh(germ, fresh[key], u)


def test_shared_cache_keeps_the_verdicts_of_each_deepest_level():
    # Z2 swapping two points: the whole group moves each point off the
    # diagonal, the identity level does not, so on the discrete basis only
    # the chain ending at {e} is bounded, though both chains share a cache.
    g = FiniteGroup.cyclic(2)
    c = Carrier(["a", "b"])
    base = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(g.order))]),
                       c, [(0, 1), (1, 0)])
    trivial = base.on_chain(NeighborhoodBase(g, [frozenset({g.e})]))
    assert trivial._cache is base._cache
    u = discrete_basis(c)
    assert not classify(base, u).bounded
    assert classify(trivial, u).bounded
    assert beta_g_proximity(trivial).rows != beta_g_proximity(base).rows


def test_on_chain_rejects_a_chain_of_another_group():
    g, other = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    c = Carrier(["a", "b"])
    ne = NeighborhoodBase(other, [frozenset({other.e})])
    with pytest.raises(ValueError) as built:
        GActionGerm(g, ne, c, [(0, 1), (1, 0)])
    base = GActionGerm(g, NeighborhoodBase(g, [frozenset({g.e})]), c,
                       [(0, 1), (1, 0)])
    with pytest.raises(ValueError) as rebound:
        base.on_chain(ne)
    assert str(rebound.value) == str(built.value)


def query_map(what, a, u):
    """The one map that the plain and `--sets` requests read."""
    if what == "nu":
        return check_descending(nu_maps(a, u))
    return beta_g_map(a)


def assert_entries_read_the_table(what, a, u, table):
    """The plain and `--sets` requests against the table: the point block
    and the (A, B) verdicts, or the same error.  The verdict that the map
    the requests read gives, B meets f(A), is checked at every pair; 32
    pairs, seeded by the germ and the table, are also asked of the CLI
    end to end."""
    rows = outcome(lambda: list(table().rows))
    if isinstance(rows, tuple):
        assert outcome(lambda: query_map(what, a, u)) == rows, (a, u)
        assert outcome(lambda: run_query(what, a, u)) == rows, (a, u)
        return rows[0].__name__
    n = a.carrier.n
    assert run_query(what, a, u) == \
        plain_text(a.carrier, _point_block(rows, n)), (what, a)
    f = query_map(what, a, u)
    N = 1 << n
    pairs = [(am, bm) for am in range(N) for bm in range(N)]
    for am, bm in pairs:
        assert bool(bm & _join_mask(f, am)) == bool(rows[am] >> bm & 1), \
            (what, a, am, bm)
    rng = random.Random(repr((what, a.masks, rows)))
    for am, bm in rng.sample(pairs, min(32, len(pairs))):
        verdict = "near" if rows[am] >> bm & 1 else "far"
        assert run_query(what, a, u, (am, bm)) == verdict + "\n", \
            (what, a, am, bm)
    return "table"


def assert_same_entries(a, u):
    """`nu` and `betag` entries against their tables; returns the `nu`
    outcome."""
    assert_entries_read_the_table("betag", a, None,
                                  lambda: beta_g_proximity(a))
    return assert_entries_read_the_table("nu", a, u,
                                         lambda: nu_proximity(a, u))


def test_entries_read_the_tables_on_suite_germs():
    germs = {}
    quasibounded = set()
    for _label, germ, u in iter_family(max_n=4, seed=0):
        assert assert_entries_read_the_table(
            "nu", germ, u, lambda: nu_proximity(germ, u)) == "table"
        quasibounded.add(classify(germ, u).quasibounded)
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        germs[key] = germ
    assert quasibounded == {False, True}
    for germ in germs.values():
        assert_same_entries(germ, discrete_basis(germ.carrier))


def test_entries_read_the_tables_on_random_actions():
    rng = random.Random(40)
    outcomes = set()
    for n in range(1, 6):
        for _ in range(5):
            a = random_germ(rng, n)
            u = _random_valid_basis(a.carrier, rng)
            for germ in (a, with_random_upper_levels(a, rng)):
                for basis in (u, saturate_uniformity(germ, u),
                              discrete_basis(a.carrier),
                              random_relation_list(rng, a.carrier)):
                    outcomes.add(assert_same_entries(germ, basis))
    assert outcomes == {"PreconditionFailure", "table"}


def ascending(a):
    """The germ a on its chain reversed, deepest level first: valid levels
    in an order that is not descending, set past the chain's check."""
    ne = NeighborhoodBase(a.group, [frozenset(range(a.group.order))])
    ne.levels = a.ne.levels[::-1]
    return a.on_chain(ne)


def random_pairs(rng, n, count=8):
    N = 1 << n
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(count)]


def assert_queries_match_the_entry_reader(what, a, u, pairs):
    """The plain and `--sets` requests, which read one map, against the
    entry reader of the several-map table that they replaced: the same
    text and verdicts, or the same error.  The reader trapped a chain that
    is not descending only at an entry where the whole chain and the
    deepest level differ; the requests trap at any point, exactly where
    the reader's point block trapped.  Returns the outcome."""
    n = a.carrier.n
    read = outcome(lambda: entry_reader_reference(what, a, u))
    points = read if isinstance(read, tuple) else \
        outcome(lambda: read(lambda fs: meets_points(fs, n)))
    if isinstance(points, tuple):
        assert outcome(lambda: run_query(what, a, u)) == points, (a, u)
        for pair in pairs:
            assert outcome(lambda: run_query(what, a, u, pair)) == points
        return points[0].__name__
    assert run_query(what, a, u) == plain_text(a.carrier, points), (a, u)
    for am, bm in pairs:
        verdict = "near" if read(lambda fs: meets(fs, am, bm)) else "far"
        assert run_query(what, a, u, (am, bm)) == verdict + "\n", \
            (what, a, am, bm)
    return "table"


def assert_nu_matches_two_tables(a, u):
    """ν against the table of every level's map, checked against the
    deepest level's table: the same rows, or the same error."""
    assert outcome(lambda: nu_proximity(a, u).rows) == \
        outcome(lambda: nu_proximity_two_tables_reference(a, u).rows), \
        (a, u.basis)


def test_queries_match_the_entry_reader_on_tgprox_settings():
    # Every setting whose ν the suite's tgprox invariant reads, on its own
    # chain and on that chain reversed, where the levels' maps differ.
    rng = random.Random(42)
    outcomes = Counter()
    for _label, germ, u in iter_family(max_n=5, seed=0):
        if not validate_basis(u).ok():
            continue
        cls = classify(germ, u)
        if not (cls.pi_uniform and cls.action_continuous):
            continue
        for a in (germ, ascending(germ)):
            assert_nu_matches_two_tables(a, u)
            outcomes[assert_queries_match_the_entry_reader(
                "nu", a, u, random_pairs(rng, a.carrier.n))] += 1
        outcomes[assert_queries_match_the_entry_reader(
            "betag", germ, None, random_pairs(rng, germ.carrier.n))] += 1
    assert outcomes["InternalCheckFailure"] >= 100, outcomes
    assert outcomes["table"] >= 5000, outcomes


def germ_fixtures():
    """The names of the fixtures that load with an action."""
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            if load_instance(str(path)).germ is not None:
                yield path.name
        except DocumentError:
            pass


@pytest.mark.parametrize("name", list(germ_fixtures()))
def test_queries_match_the_entry_reader_on_fixtures(name):
    # Every named pair of the fixture and the first two points, for `nu`
    # on the fixture's basis and on the discrete one, and for `betag`.
    inst = load_instance(str(FIXTURES / name))
    a = inst.germ
    c = a.carrier
    masks = [c.subset_mask(s) for s in inst.subsets.values()]
    pairs = [(x, y) for x in masks for y in masks] + [(0b01, 0b10)]
    outcomes = set()
    for u in (inst.uniformity, discrete_basis(c)):
        if u is not None:
            assert_nu_matches_two_tables(a, u)
            outcomes.add(assert_queries_match_the_entry_reader(
                "nu", a, u, pairs))
    assert outcomes == ({"PreconditionFailure", "table"}
                        if name == "bad_basis.json" else {"table"})
    assert assert_queries_match_the_entry_reader(
        "betag", a, None, pairs) == "table"


def test_check_descending_traps_exactly_when_the_tables_differ():
    # Lists of one to three maps at n = 0..5, the last one deepest.  The
    # upper maps are supersets of the deepest point by point, random maps,
    # or supersets missing one bit of the deepest: most random lists and
    # every list with a missing bit fail.  The point check must raise exactly when the
    # table of the whole list differs from the deepest map's table, and
    # return the deepest map otherwise.
    rng = random.Random(43)
    outcomes = Counter()
    for n in range(6):
        carrier = Carrier(range(n)) if n else SimpleNamespace(n=0)
        for trial in range(60):
            deepest = [rng.getrandbits(n) for _ in range(n)]
            maps = []
            for _ in range(trial % 3):
                upper = [d | rng.getrandbits(n) for d in deepest]
                if trial % 4 == 1:
                    upper = [rng.getrandbits(n) for _ in range(n)]
                elif trial % 4 == 2 and any(deepest):
                    x = rng.choice([x for x in range(n) if deepest[x]])
                    upper[x] &= ~(deepest[x] & -deepest[x])
                maps.append(upper)
            maps.append(deepest)
            differ = (meets_table_reference(carrier, maps).rows
                      != meets_table_reference(carrier, maps[-1:]).rows)
            if differ:
                with pytest.raises(InternalCheckFailure,
                                   match="not descending"):
                    check_descending(maps)
            else:
                assert check_descending(maps) is deepest, (n, maps)
            outcomes[differ, len(maps)] += 1
    assert min(outcomes[True, k] for k in (2, 3)) >= 20, outcomes
    assert min(outcomes[False, k] for k in (1, 2, 3)) >= 20, outcomes


def random_relation_list(rng, carrier):
    """One to four random relations, most of them reflexive and many of
    them symmetric, so that the list fails B1, B2, B3 or B4 first, or none
    of them."""
    els = carrier.elements
    symmetric = rng.random() < 0.6
    rels = []
    for _ in range(rng.randint(1, 4)):
        p = rng.random()
        pairs = {(x, y) for x in els for y in els if rng.random() < p}
        if rng.random() < 0.9:
            pairs |= {(x, x) for x in els}
        if symmetric:
            pairs |= {(y, x) for x, y in pairs}
        rels.append(Rel(carrier, pairs))
    return UnifBase(carrier, rels)


def drop_last_pair(u):
    """u with the last off-diagonal pair, in index order, dropped from its
    first entourage: on the fixtures a continuity witness late in the
    scan."""
    first = u.basis[0]
    index = u.carrier.index
    last = max((p for p in first.pairs if p[0] != p[1]),
               key=lambda p: (index[p[0]], index[p[1]]))
    return UnifBase(u.carrier,
                    [Rel(u.carrier, first.pairs - {last}), *u.basis[1:]])


@pytest.mark.parametrize("name", ["twelve_points_s3.json",
                                  "twelve_points_s3_orbits.json",
                                  "twelve_points_s3_generators.json"])
def test_continuity_matches_reference_at_the_cap(name):
    inst = load_instance(str(FIXTURES / name))
    rng = random.Random(42)
    a = inst.germ
    passing = [indiscrete_basis(a.carrier)]
    if inst.uniformity is not None:
        passing.append(inst.uniformity)
    bases = passing + [drop_last_pair(u) for u in passing]
    bases += [discrete_basis(a.carrier)]
    bases += [random_relation_list(rng, a.carrier) for _ in range(3)]
    for germ in (a, with_random_upper_levels(a, rng)):
        for u in bases:
            assert_same_continuity(germ, u)


def test_classification_matches_reference_on_suite_germs():
    derived = 0
    for _label, germ, u in iter_family(max_n=4, seed=0):
        assert_same_setting(germ, u)
        if validate_basis(u).ok() and classify(germ, u).quasibounded:
            assert_same_setting(germ, compute_ug(germ, u))
            derived += 1
    assert derived > 100


def test_verdicts_read_in_any_order_match_reference_on_suite_germs():
    # The suite's germs share their action's cache; each read here runs
    # on a fresh germ, so the verdict it asks for is searched first.
    outcomes = set()
    for _label, germ, u in iter_family(max_n=3, seed=0):
        want = assert_read_orders_agree(germ, u)
        outcomes.update((name, good) for name, (good, _wit) in want.items())
    assert outcomes == {(name, good) for name in VERDICTS
                        for good in (True, False)}


def test_classification_matches_reference_on_metric_uniformities():
    groups = [g for g in suite_groups(6) if g[0] in ("Z2", "Z4", "S3")]
    for n in (1, 2, 3):
        carrier = Carrier(range(n))
        for matrix in _metric_matrices(n):
            metric = FiniteMetric(carrier, matrix)
            u = metric_uniformity(metric)
            for gname, group, gens in groups:
                for act in curated_actions(gname, group, gens, n):
                    for levels in germ_chains(group):
                        germ = GActionGerm(group, NeighborhoodBase(
                            group, levels), carrier, act)
                        assert_same_setting(germ, u)
                        # A rebuilt, equal basis reads the kept witnesses.
                        assert verdicts(classify(
                            germ, metric_uniformity(metric))) == \
                            classify_reference(germ, u)
                        assert_read_orders_agree(germ, u)


def test_classification_matches_reference_on_random_actions():
    rng = random.Random(36)
    for n in range(1, 9):
        for _ in range(5):
            a = random_germ(rng, n)
            u = _random_valid_basis(a.carrier, rng)
            for germ in (a, with_random_upper_levels(a, rng)):
                for basis in (u, saturate_uniformity(germ, u),
                              discrete_basis(a.carrier),
                              indiscrete_basis(a.carrier)):
                    assert_same_setting(germ, basis)
                if n <= 6:
                    assert_same_setting(
                        germ, random_relation_list(rng, a.carrier))


def test_basis_reports_match_reference_on_failing_relation_lists():
    rng = random.Random(37)
    first_failures = dict.fromkeys(("B1", "B2", "B3", "B4"), 0)
    for n in range(1, 6):
        carrier = Carrier(range(n))
        germs = [random_germ(rng, n) for _ in range(3)]
        for _ in range(150):
            u = random_relation_list(rng, carrier)
            assert_same_basis_report(u)
            failures = validate_basis(u).failures()
            if failures:
                first_failures[failures[0]] += 1
            a = rng.choice(germs)
            assert_same_classification(a, u)
    assert all(count >= 10 for count in first_failures.values()), \
        first_failures


def repeated_and_permuted(rng, u):
    """u's entourages in a random order, one to three of them repeated at
    random places."""
    basis = list(u.basis)
    rng.shuffle(basis)
    for _ in range(rng.randint(1, 3)):
        basis.insert(rng.randrange(len(basis) + 1), rng.choice(basis))
    return UnifBase(u.carrier, basis)


def has_repeats(u):
    return len(set(u.basis)) < len(u.basis)


def test_basis_reports_match_reference_on_repeated_suite_bases():
    # The suite's pool bases and derived bases (`compute_ug` lists each
    # bracket of every level, so equal brackets repeat), as listed and
    # repeated and permuted, and the derived bases of the metric family.
    rng = random.Random(39)
    bases = []
    for _label, germ, u in iter_family(max_n=3, seed=0):
        bases.append(u)
        if validate_basis(u).ok() and classify(germ, u).quasibounded:
            bases.append(compute_ug(germ, u))
    groups = [g for g in suite_groups(6) if g[0] in ("Z2", "Z4", "S3")]
    for n in (2, 3):
        carrier = Carrier(range(n))
        for matrix in _metric_matrices(n):
            u = metric_uniformity(FiniteMetric(carrier, matrix))
            for gname, group, gens in groups:
                for act in curated_actions(gname, group, gens, n):
                    for levels in germ_chains(group):
                        germ = GActionGerm(group, NeighborhoodBase(
                            group, levels), carrier, act)
                        if classify(germ, u).pi_uniform:
                            bases.append(compute_ug(germ, u))
    assert sum(map(has_repeats, bases)) > 100
    for u in bases:
        assert_same_basis_report(u)
        assert_same_basis_report(repeated_and_permuted(rng, u))


def test_basis_reports_match_reference_with_witnesses_after_copies():
    # Failing lists with each entourage doubled, and shuffled with copies
    # inserted: the first violation's entourages then sit after copies of
    # others, so their list index differs from their place among the
    # distinct entourages, and each has a later copy of its own.
    rng = random.Random(40)
    shifted = dict.fromkeys(("B1", "B2", "B3", "B4"), 0)
    for n in range(1, 6):
        carrier = Carrier(range(n))
        for _ in range(150):
            u = random_relation_list(rng, carrier)
            doubled = UnifBase(carrier, [eps for eps in u.basis
                                         for _copy in (0, 1)])
            for v in (doubled, repeated_and_permuted(rng, doubled)):
                assert_same_basis_report(v)
                rep = validate_basis_reference(v)
                place = {eps: k for k, eps in
                         enumerate(dict.fromkeys(v.basis))}
                for name in rep.failures():
                    wit = rep.counterexample(name)
                    ks = wit[:1] if name == "B1" else wit
                    if any(place[v.basis[k]] != k for k in ks):
                        shifted[name] += 1
    assert all(count >= 10 for count in shifted.values()), shifted


def assert_same_germ_masks(a, rng):
    """Translates and pullbacks through the point masks, set translates,
    the maximal group proximity and the deepest-orbit test against the
    point-at-a-time references."""
    group = a.group
    N = 1 << a.carrier.n
    subset = frozenset(g for g in range(group.order) if rng.random() < 0.5)
    for li, level in enumerate(a.ne.levels):
        lem = a.masks[li]
        inv = a.inverse_masks(li)
        for m in range(N):
            assert _join_mask(lem, m) == \
                translate_mask(a, li, m), (a, li, m)
            assert _join_mask(inv, m) == _level_pullback(a, li, m), (a, li, m)
            for ids in (level, subset):
                assert _join_mask(a._point_masks(ids), m) == \
                    set_translate_mask(a, ids, m), (a, ids, m)
    assert beta_g_proximity(a).rows == \
        beta_g_proximity_reference(a).rows, a
    if group.order <= 12:  # the cap of FiniteGroup.subgroups
        for h in group.subgroups():
            assert deepest_orbits_coincide(a, h) == \
                deepest_orbits_coincide_reference(a, h), (a, h)


def assert_same_setting_masks(a, u):
    """Continuity, translate nearness, brackets and pushed entourages
    against the point-at-a-time references."""
    assert check_action_continuity(a, u) == \
        action_continuity_translate_reference(a, u), (a, u.basis)
    assert nu_or_error(nu_proximity, a, u) == \
        nu_or_error(nu_proximity_point_pullback_reference, a, u), (a, u.basis)
    push = a.push_table(u)
    for k, eps in enumerate(u.basis):
        for level in a.ne.levels:
            assert bracket_entourage(a, level, eps) == \
                bracket_entourage_reference(a, level, eps), (a, level, eps)
        for g in range(a.group.order):
            assert push[g][k] == push_rel(a, g, eps).pair_bits, (a, g, eps)


def test_point_mask_translates_match_reference_on_suite_germs():
    rng = random.Random(38)
    germs = {}
    for _label, germ, u in iter_family(max_n=4, seed=0):
        assert_same_setting_masks(germ, u)
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        germs[key] = germ
    for germ in germs.values():
        assert_same_germ_masks(germ, rng)
        assert_same_setting_masks(germ, discrete_basis(germ.carrier))


def test_point_mask_translates_match_reference_on_random_actions():
    rng = random.Random(39)
    for n in range(1, 9):
        for _ in range(5):
            a = random_germ(rng, n)
            u = _random_valid_basis(a.carrier, rng)
            for germ in (a, with_random_upper_levels(a, rng)):
                assert_same_germ_masks(germ, rng)
                for basis in (u, saturate_uniformity(germ, u),
                              discrete_basis(a.carrier)):
                    assert_same_setting_masks(germ, basis)


def sigma_settings():
    """The (family, germ) settings of the suite's sigma family at n = 3
    and 4, drawn as `_sigma_family` draws them at seed 0."""
    rng = random.Random(4)
    for n in (3, 4):
        carrier = Carrier(range(n))
        matrices = list(_metric_matrices(n))
        for gname, group, gens in suite_groups(6):
            chains = germ_chains(group)
            actions = curated_actions(gname, group, gens, n)
            for _ in range(6):
                members = [rng.choice(matrices)]
                if rng.random() < 0.5:
                    members.append(rng.choice(matrices))
                fam = PseudometricFamily(carrier, members)
                act = actions[rng.randrange(len(actions))]
                levels = chains[rng.randrange(len(chains))]
                yield fam, GActionGerm(group, NeighborhoodBase(group, levels),
                                       carrier, act)


def assert_same_equicontinuity_on_subsets(a, u):
    """`_acts_equicontinuously` against the reference on every nonempty
    set of group elements; returns the verdicts."""
    k = a.group.order
    verdicts = []
    for bits in range(1, 1 << k):
        ids = [g for g in range(k) if bits >> g & 1]
        verdict = _acts_equicontinuously(a, u, ids)
        assert verdict == acts_equicontinuously_reference(a, u, ids), \
            (a, u.basis, ids)
        verdicts.append(verdict)
    # On the whole group the check is classify's.
    assert verdicts[-1] == classify(a, u).equicontinuous, (a, u.basis)
    return verdicts


def test_acts_equicontinuously_matches_reference_on_sigma_settings():
    settings = 0
    for fam, a in sigma_settings():
        whole = frozenset(range(a.group.order))
        xi = family_uniformity(PseudometricFamily(fam.carrier, [
            sup_pseudometric(fam, a, whole, i)
            for i in range(len(fam.members))]))
        for u in (family_uniformity(fam), xi):
            assert_same_equicontinuity_on_subsets(a, u)
        settings += 1
    assert settings == 48


def test_acts_equicontinuously_matches_reference_on_suite_germs():
    # The sigma families are metrics, so the diagonal is a basis entourage
    # and every set acts equicontinuously there; the main family's bases
    # give both verdicts.
    verdicts = set()
    for _label, germ, u in iter_family(max_n=3, seed=0):
        verdicts.update(assert_same_equicontinuity_on_subsets(germ, u))
    assert verdicts == {False, True}

