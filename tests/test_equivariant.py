import random
from collections import Counter
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from equivariant_reference import bracket_entourage_reference, nu_maps
from proximity_reference import RowsTable, _point_block
from test_equivariant_differential import flip_one_bit, random_map_table

from eqprox import equivariant
from eqprox.document import load_instance
from eqprox.equivariant import beta_g_proximity, betag_on_subgroup_agrees, \
    bracket_entourage, check_equinormal, compute_ug, deepest_orbits_coincide, \
    enumerate_partition_proximities, is_action_compatible, is_g_invariant, \
    is_massive, nu_proximity, semigroup_upgrade, subgroup_germ
from eqprox.errors import CarrierMismatch, InternalCheckFailure, \
    PreconditionFailure
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, classify
from eqprox.proximity import P1_P5, Prox, check_axioms, dominates, \
    from_uniformity, is_separated, meets_table
from eqprox.setrel import Carrier, Rel, diagonal, full_relation
from eqprox.suite import iter_family
from eqprox.uniformity import UnifBase, discrete_basis, refinement_equivalent, \
    validate_basis

FIXTURES = Path(__file__).parent / "fixtures"


def z3_rotation(levels=None):
    g = FiniteGroup.cyclic(3)
    c = Carrier(range(3))
    act = [tuple((x + k) % 3 for x in range(3)) for k in range(3)]
    levels = levels or [frozenset(range(3))]
    return GActionGerm(g, NeighborhoodBase(g, levels), c, act)


def z2_swap_fixing_c():
    """The swap of a and b on {a, b, c}."""
    g = FiniteGroup.cyclic(2)
    c = Carrier(["a", "b", "c"])
    return GActionGerm(
        g, NeighborhoodBase(g, [frozenset({0, 1}), frozenset({0})]), c,
        [(0, 1, 2), (1, 0, 2)])


def s3_natural(levels):
    g, perms = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    c = Carrier([1, 2, 3])
    return GActionGerm(g, NeighborhoodBase(g, levels), c, perms), g


def brute_bracket(a, ids, eps):
    """Oracle: quantify the two translators directly over element pairs."""
    c = a.carrier
    pairs = set()
    for x in range(c.n):
        for y in range(c.n):
            for v1 in ids:
                for v2 in ids:
                    px = c.elements[a.act[v1][x]]
                    py = c.elements[a.act[v2][y]]
                    if (px, py) in eps.pairs:
                        pairs.add((c.elements[x], c.elements[y]))
    return pairs


def test_bracket_identity_level_is_identity():
    a = z3_rotation()
    eps = Rel(a.carrier, [(0, 1), (0, 0), (1, 1), (2, 2)])
    assert bracket_entourage(a, {"e"}, eps) == eps


def test_bracket_transitive_saturation():
    a = z3_rotation()
    out = bracket_entourage(a, {"e", "g"}, diagonal(a.carrier))
    # Translator pair differences cover every displacement of the 3-cycle.
    assert out == full_relation(a.carrier)


def test_bracket_trivial_action():
    g = FiniteGroup.cyclic(3)
    c = Carrier(range(3))
    triv = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(3))]), c,
                       [(0, 1, 2)] * 3)
    eps = Rel(c, [(0, 0), (1, 1), (2, 2), (0, 2)])
    assert bracket_entourage(triv, {"e", "g", "g2"}, eps) == eps


def test_bracket_matches_brute_force():
    rng = random.Random(31)
    a = z3_rotation()
    for _ in range(20):
        eps = Rel(a.carrier, [(x, y) for x in range(3) for y in range(3)
                              if x == y or rng.random() < 0.4])
        for ids in ({0}, {0, 1}, {0, 1, 2}):
            names = {a.group.names[i] for i in ids}
            assert bracket_entourage(a, names, eps).pairs == \
                brute_bracket(a, ids, eps)


def test_bracket_contains_its_entourage_and_is_monotone():
    rng = random.Random(13)
    a = z3_rotation()
    names = list(a.group.names)
    for _ in range(25):
        small = Rel(a.carrier, [(x, y) for x in range(3) for y in range(3)
                                if x == y or rng.random() < 0.3])
        big = Rel(a.carrier, small.pairs | {
            (x, y) for x in range(3) for y in range(3) if rng.random() < 0.3})
        v_small = {nm for nm in names if rng.random() < 0.5} | {"e"}
        v_big = v_small | {nm for nm in names if rng.random() < 0.5}
        base = bracket_entourage(a, v_small, small)
        assert base.contains(small)
        assert bracket_entourage(a, v_big, small).contains(base)
        assert bracket_entourage(a, v_small, big).contains(base)


def test_compute_ug_discrete_germ_is_identity():
    a = z3_rotation(levels=[frozenset({0})])
    u = discrete_basis(a.carrier)
    assert refinement_equivalent(compute_ug(a, u), u)


def test_compute_ug_transitive_case_collapses():
    from eqprox.uniformity import refines

    a = z3_rotation()
    u = discrete_basis(a.carrier)
    out = compute_ug(a, u)
    assert refinement_equivalent(
        out, UnifBase(a.carrier, [full_relation(a.carrier)]))
    assert validate_basis(out).ok()
    assert classify(a, out).bounded
    # Brackets only ever grow their entourage, so the input always refines.
    assert refines(u, out)
    assert not refines(out, u)


def test_compute_ug_requires_quasiboundedness():
    # Single partition entourage, full-group chain, and a swap that breaks
    # the partition: the only chain level is never uniformly small.
    g = FiniteGroup.cyclic(2)
    c = Carrier(range(3))
    swap = GActionGerm(g, NeighborhoodBase(g, [frozenset({0, 1})]), c,
                       [(0, 1, 2), (2, 1, 0)])
    theta = Rel(c, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    u = UnifBase(c, [theta])
    assert not classify(swap, u).quasibounded
    with pytest.raises(PreconditionFailure):
        compute_ug(swap, u)


def test_compute_ug_rejects_invalid_basis():
    a = z3_rotation()
    broken = UnifBase(a.carrier, [Rel(a.carrier, [(0, 0)])])
    with pytest.raises(PreconditionFailure):
        compute_ug(a, broken)


def test_compute_ug_checks_quasiboundedness_per_germ_on_a_kept_basis():
    # Z2 by s = (01)(23) and the Klein group by (01) and (23) have the same
    # orbit masks, so the same derived-basis key; only s keeps the pairs
    # (0,2) and (1,3) together, so only Z2 makes u quasibounded.
    c = Carrier(range(4))
    germs = []
    for perms in ([(1, 0, 3, 2)], [(1, 0, 2, 3), (0, 1, 3, 2)]):
        g, act = FiniteGroup.from_permutations(perms)
        germs.append(GActionGerm(g, NeighborhoodBase(g, [range(g.order)]), c,
                                 act))
    z2, klein = germs
    assert z2.masks[0] == klein.masks[0]
    u = UnifBase(c, [Rel(c, set(diagonal(c).pairs)
                         | {(0, 2), (2, 0), (1, 3), (3, 1)})])
    derived = compute_ug(z2, u)
    assert validate_basis(derived).ok()
    with pytest.raises(PreconditionFailure,
                       match="^uniformity is not quasibounded$"):
        compute_ug(klein, u)
    assert compute_ug(z2, u) is derived


def test_kept_derived_bases_are_fresh_bracket_bases(monkeypatch):
    # Every setting of the main family at max_n = 4, twice: the bracket
    # bases built from scratch by the point-at-a-time reference equal the
    # kept basis, whether it was built for this germ or an earlier one.
    builds = []
    real = equivariant._checked_brackets

    def checked_brackets(u, masks):
        builds.append(masks)
        return real(u, masks)

    monkeypatch.setattr(equivariant, "_checked_brackets", checked_brackets)
    kept_from_other_germs = 0
    for _label, germ, u in iter_family(max_n=4, seed=0):
        if not (validate_basis(u).ok() and classify(germ, u).quasibounded):
            continue
        before = len(builds)
        out = compute_ug(germ, u)
        kept_from_other_germs += len(builds) == before
        assert compute_ug(germ, u) is out
        assert len(builds) <= before + 1
        assert out.basis == tuple(
            bracket_entourage_reference(germ, level, eps)
            for level in germ.ne.levels for eps in u.basis), (germ, u.basis)
    assert kept_from_other_germs > 1000


def test_derived_basis_trap_runs_on_each_new_key(monkeypatch):
    # A bracket that loses the diagonal breaks B1 of the derived basis.
    # A key built before the break is served as kept; a new key is built
    # and checked, and a basis that failed its check is not kept.
    coarse = z3_rotation()
    fine = z3_rotation(levels=[frozenset({0})])
    u = discrete_basis(coarse.carrier)
    before = compute_ug(coarse, u)
    monkeypatch.setattr(equivariant, "_bracket",
                        lambda carrier, vx, eps: Rel(carrier, []))
    assert compute_ug(coarse, u) is before
    for _ in range(2):
        with pytest.raises(InternalCheckFailure,
                           match="derived bracket basis fails condition B1"):
            compute_ug(fine, u)


def test_nu_discrete_germ_equals_induced_proximity():
    a = z3_rotation(levels=[frozenset({0})])
    u = discrete_basis(a.carrier)
    assert nu_proximity(a, u) == from_uniformity(u)


def test_nu_transitive_saturation_loses_separation():
    a = z3_rotation()
    nu = nu_proximity(a, discrete_basis(a.carrier))
    assert nu == Prox.nonempty_pairs(a.carrier)
    assert not check_axioms(nu).passed("P6")


def test_nu_two_level_chain_evaluates_every_level():
    a = z2_swap_fixing_c()
    nu = nu_proximity(a, discrete_basis(a.carrier))
    # The deeper level {e} keeps the two swapped points apart even though
    # the shallow level {e, s} overlaps their translates.
    assert not nu.near({"a"}, {"b"})
    shallow = frozenset({0, 1})
    va = {a.carrier.elements[a.act[v][0]] for v in shallow}
    vb = {a.carrier.elements[a.act[v][1]] for v in shallow}
    assert va & vb  # the shallow level alone would have said near


def test_nu_shortcut_agrees_with_full_scan_when_saturated():
    # nu_proximity internally asserts full == deepest-level reduction;
    # reaching the assert on a saturated instance is the point here.
    a = z2_swap_fixing_c()
    u = discrete_basis(a.carrier)
    assert classify(a, u).saturated
    nu_proximity(a, u)


def test_verify_tgprox_on_good_instances():
    # The checks of the suite's tgprox and gprox blocks on two pi-uniform
    # settings with continuous actions: translate nearness equals the
    # derived-basis proximity and is an invariant, compatible proximity.
    for a in (z3_rotation(levels=[frozenset({0})]), z2_swap_fixing_c()):
        u = discrete_basis(a.carrier)
        cls = classify(a, u)
        assert cls.pi_uniform and cls.action_continuous
        nu = nu_proximity(a, u)
        assert nu == from_uniformity(compute_ug(a, u))
        assert is_g_invariant(nu, a) == (True, None)
        assert is_action_compatible(nu, a) == (True, None)
    # The discrete germ keeps distinct points far.
    a = z3_rotation(levels=[frozenset({0})])
    assert is_separated(nu_proximity(a, discrete_basis(a.carrier)))


def test_nu_equals_derived_even_without_continuity():
    # The identity is a by-construction fact needing only quasiboundedness,
    # so it holds on the transitive indiscrete-germ instance too.
    a = z3_rotation()
    u = discrete_basis(a.carrier)
    assert nu_proximity(a, u) == from_uniformity(compute_ug(a, u))


def test_beta_g_discrete_germ_is_overlap():
    a = z3_rotation(levels=[frozenset({0})])
    assert beta_g_proximity(a) == Prox.overlap(a.carrier)


def test_beta_g_transitive_chain():
    a = z3_rotation()
    assert beta_g_proximity(a) == Prox.nonempty_pairs(a.carrier)


def test_beta_g_s3_two_level_chain():
    g, perms = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    swap_idx = perms.index((1, 0, 2))
    germ, _ = s3_natural([frozenset({g.e, swap_idx}), frozenset({g.e})])
    bg = beta_g_proximity(germ)
    assert not bg.near({1}, {2})


def test_beta_g_matches_nu_of_discrete_basis():
    for germ in (z3_rotation(), z3_rotation(levels=[frozenset({0})]),
                 z2_swap_fixing_c()):
        assert beta_g_proximity(germ) == \
            nu_proximity(germ, discrete_basis(germ.carrier))


def test_g_invariance_and_compatibility_of_nu():
    a = z2_swap_fixing_c()
    nu = nu_proximity(a, discrete_basis(a.carrier))
    assert is_g_invariant(nu, a)[0]
    assert is_action_compatible(nu, a)[0]
    assert semigroup_upgrade(nu, a)[0]


def one_map_table(given):
    """The table of the map that is the point block of a table given by
    rows, which must be its rows: the relation is a table of one map."""
    p = meets_table(given.carrier, _point_block(given.rows, given.carrier.n))
    assert p.rows == given.rows
    return p


def test_g_invariance_witness_on_asymmetric_relation():
    a = z3_rotation()
    skew = one_map_table(RowsTable.from_predicate(
        a.carrier, lambda s, t: bool(s) and bool(t) and (0 in s or 0 in t)))
    ok, witness = is_g_invariant(skew, a)
    assert not ok
    assert witness is not None


@pytest.mark.parametrize("scan", [is_g_invariant, is_action_compatible,
                                  semigroup_upgrade])
@pytest.mark.parametrize("elements", [["a", "b"], ["a", "b", "c", "d"],
                                      ["a", "c", "b"]])
def test_group_action_scans_reject_a_table_over_another_carrier(
        scan, elements):
    # Two and four points would index past or short of the germ's rows;
    # three points in another order would name the wrong elements.
    a = z2_swap_fixing_c()
    with pytest.raises(CarrierMismatch, match="action's carrier"):
        scan(Prox.overlap(Carrier(elements)), a)


@pytest.mark.parametrize("build", [nu_proximity, nu_maps, compute_ug])
@pytest.mark.parametrize("elements", [["a", "b"], ["a", "b", "c", "d"],
                                      ["a", "c", "b"]])
def test_basis_readers_reject_a_basis_over_another_carrier(build, elements):
    # Each side of the identity reads the basis through the germ's point
    # masks, which only index the action's own carrier.  The carrier is
    # checked before the basis conditions, so an invalid basis over
    # another carrier is refused for its carrier too.
    a = z2_swap_fixing_c()
    other = Carrier(elements)
    for u in (discrete_basis(other), UnifBase(other, [Rel(other, [])])):
        with pytest.raises(CarrierMismatch, match="action's carrier"):
            build(a, u)


def test_nu_is_built_once_per_least_entourage(monkeypatch):
    # Two different valid lists with one least entourage θ: ν reads only
    # θ and the level masks, so the second list reads the first's table,
    # and that table is the one table built, though the two levels' maps
    # differ.
    a = z2_swap_fixing_c()
    c = a.carrier
    built = []
    real = equivariant.meets_table
    monkeypatch.setattr(equivariant, "meets_table",
                        lambda carrier, f: built.append(f) or real(carrier, f))
    u1 = discrete_basis(c)
    u2 = UnifBase(c, [full_relation(c), diagonal(c)])
    assert u1 != u2 and validate_basis(u2).ok()
    maps = nu_maps(a, u1)
    assert maps[0] != maps[-1]
    assert nu_proximity(a, u1) is nu_proximity(a, u2)
    assert built == [maps[-1]]


def test_nu_checks_the_basis_before_the_table_of_its_theta(monkeypatch):
    # No invalid list shares θ with a valid one (B1-B4 hold exactly when
    # θ is an equivalence), so a stricter check stands in: it refuses the
    # second list, and the table kept for the first must not answer.
    a = z2_swap_fixing_c()
    c = a.carrier
    nu_proximity(a, discrete_basis(c))
    u = UnifBase(c, [full_relation(c), diagonal(c)])
    refused = validate_basis(UnifBase(c, [Rel(c, [])]))
    real = equivariant.validate_basis
    monkeypatch.setattr(equivariant, "validate_basis",
                        lambda v: refused if v is u else real(v))
    with pytest.raises(PreconditionFailure, match="fails condition B1"):
        nu_proximity(a, u)


def semigroup_upgrade_oracle(p, a):
    """The strengthened compatibility read literally: each chain level V
    is applied to the points of A through the action to give VA, and
    every far pair (A, B) in ascending order is tried against every
    level."""
    c = a.carrier
    n = c.n

    def translate(level, m):
        return sum({1 << a.act[v][x] for v in level for x in range(n)
                    if m >> x & 1})

    trans = [[translate(level, m) for m in range(1 << n)]
             for level in a.ne.levels]
    for am in range(1 << n):
        for bm in range(1 << n):
            if p.rows[am] >> bm & 1:
                continue
            if all(p.rows[t[am]] >> t[bm] & 1 for t in trans):
                return False, (c.mask_subset(am), c.mask_subset(bm))
    return True, None


def test_semigroup_upgrade_matches_oracle_on_suite_germs():
    # Every germ of the family, with beta_G and every distinct nu table,
    # each as it is and with one bit of its map flipped.
    rng = random.Random(51)
    tables = {}
    for _label, germ, u in iter_family(max_n=4, seed=0):
        key = (id(germ.group), germ.ne.levels, germ.carrier.n, germ.act)
        nus = tables.setdefault(key, (germ, {beta_g_proximity(germ).map}))[1]
        nus.add(nu_proximity(germ, u).map)
    outcomes = Counter()
    for germ, maps in tables.values():
        for f in sorted(maps):
            p = meets_table(germ.carrier, f)
            for q in (p, flip_one_bit(p, rng), flip_one_bit(p, rng)):
                want = semigroup_upgrade_oracle(q, germ)
                assert semigroup_upgrade(q, germ) == want, (germ, q.map)
                outcomes[want[0]] += 1
    assert outcomes[True] >= 1000 and outcomes[False] >= 40, outcomes


def test_semigroup_upgrade_matches_oracle_on_random_maps():
    # Random maps break P1, P2 and P5 on most carriers.  A deepest level
    # that fixes every point separates each far pair by itself, so only
    # germs whose deepest level moves a point are drawn.
    rng = random.Random(52)
    germs = {}
    for _label, germ, _u in iter_family(max_n=4, seed=0):
        moved = any(m != 1 << x for x, m in enumerate(germ.masks[-1]))
        if moved:
            germs[(id(germ.group), germ.ne.levels, germ.carrier.n,
                   germ.act)] = germ
    outcomes = Counter()
    for germ in germs.values():
        n = germ.carrier.n
        for density in (0.02, 0.02, 0.1, 0.5, 0.9):
            f = [sum(1 << y for y in range(n) if rng.random() < density)
                 for _ in range(n)]
            p = meets_table(germ.carrier, f)
            want = semigroup_upgrade_oracle(p, germ)
            assert semigroup_upgrade(p, germ) == want, (germ, f)
            outcomes[want[0]] += 1
            outcomes["axioms"] += check_axioms(p).ok(P1_P5)
    assert outcomes[True] >= 30 and outcomes[False] >= 40, outcomes
    assert outcomes["axioms"] * 4 < outcomes[True] + outcomes[False], \
        outcomes


def test_semigroup_upgrade_of_a_map_is_decided_at_the_deepest_level():
    # Z4 rotating four points, chains (Z4, {0, 2}) and ({0, 2}).  The
    # pullbacks of a table of one map are nested, so the upper level
    # never changes the verdict, which the oracle reads at every level.
    g = FiniteGroup.cyclic(4)
    c = Carrier(range(4))
    act = [tuple((x + k) % 4 for x in range(4)) for k in range(4)]
    whole, half = frozenset(range(4)), frozenset({0, 2})
    two = GActionGerm(g, NeighborhoodBase(g, [whole, half]), c, act)
    deep = two.on_chain(NeighborhoodBase(g, [half]))
    rng = random.Random(53)
    outcomes = Counter()
    for _ in range(120):
        p = random_map_table(rng, c)
        want = semigroup_upgrade_oracle(p, deep)
        assert semigroup_upgrade(p, two) == semigroup_upgrade(p, deep) == \
            semigroup_upgrade_oracle(p, two) == want, p.map
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_semigroup_upgrade_checks_the_pullback_of_every_level(monkeypatch):
    # Z5 rotating five points over {e, g} > {e}: the upper level is not
    # closed under inverses, so its pullback differs from one through its
    # forward point masks, which the suite's subgroup chains cannot show.
    # The maps handed to `check_descending` must be, level by level,
    # x -> {y : some w.y in f(V.x)}, read off the action.
    g = FiniteGroup.cyclic(5)
    c = Carrier(range(5))
    act = [tuple((x + k) % 5 for x in range(5)) for k in range(5)]
    levels = [frozenset({0, 1}), frozenset({0})]
    germ = GActionGerm(g, NeighborhoodBase(g, levels), c, act)
    handed = []
    real = equivariant.check_descending
    monkeypatch.setattr(equivariant, "check_descending",
                        lambda maps: real(handed.append(maps) or maps))
    rng = random.Random(54)
    maps = {tuple(random_map_table(rng, c).map) for _ in range(40)}
    for f in sorted(maps):
        handed.clear()
        semigroup_upgrade(meets_table(c, list(f)), germ)
        want = []
        for level in levels:
            image = [reduce(or_, (f[act[v][x]] for v in level))
                     for x in range(5)]
            want.append([sum(1 << y for y in range(5)
                             if any(image[x] >> act[w][y] & 1
                                    for w in level)) for x in range(5)])
        assert [[list(m) for m in h] for h in handed] == [want], f
    assert len(maps) > 30


def test_equinormal_on_standard_instances():
    for germ in (z3_rotation(), z2_swap_fixing_c(),
                 z3_rotation(levels=[frozenset({0})])):
        rep = check_equinormal(germ)
        assert rep.equinormal and rep.agree and rep.separation_ok


def test_separation_scan_fails_when_a_mask_route_is_corrupt(monkeypatch):
    # On the discrete germ {0} and {1} have disjoint translates; once the
    # inverse route pulls point 0 back to every point, no partner of {0}
    # but the empty set is witnessed.
    a = z3_rotation(levels=[frozenset({0})])
    masks = a.inverse_masks(0)
    corrupt = (masks[0] | 0b110,) + masks[1:]
    monkeypatch.setattr(GActionGerm, "inverse_masks", lambda self, li: corrupt)
    rep = check_equinormal(a)
    assert not rep.separation_ok
    assert "pi-disjoint pairs admit pi-disjoint neighborhoods: FAIL" \
        in rep.lines()


def test_equinormal_axiom_checker_catches_corruption():
    a = z2_swap_fixing_c()
    dpi = beta_g_proximity(a)
    f = list(dpi.map)
    x = a.carrier.index["a"]
    f[x] &= ~(1 << x)  # break P1 deliberately: {a} far from itself
    corrupted = meets_table(a.carrier, f)
    rep = check_axioms(corrupted)
    assert not rep.ok(("P1", "P2", "P3", "P4", "P5"))


def test_is_massive_trivially_true_on_finite_instances():
    assert is_massive(z3_rotation(), discrete_basis(Carrier(range(3))))
    triv_g = FiniteGroup.cyclic(2)
    c = Carrier(range(2))
    triv = GActionGerm(triv_g, NeighborhoodBase(triv_g, [frozenset({0})]), c,
                       [(0, 1), (0, 1)])
    assert is_massive(triv, discrete_basis(c))


def test_partition_proximities_enumerate_all_finite_proximities():
    c = Carrier(range(3))
    proxes = [p for _, p in enumerate_partition_proximities(c)]
    assert len(proxes) == 5  # Bell(3)
    assert len({p.rows for p in proxes}) == 5
    for p in proxes:
        assert check_axioms(p).ok(("P1", "P2", "P3", "P4", "P5"))
    assert Prox.overlap(c).rows in {p.rows for p in proxes}
    assert Prox.nonempty_pairs(c).rows in {p.rows for p in proxes}


def test_maximality_against_full_enumeration():
    a = z2_swap_fixing_c()
    u = discrete_basis(a.carrier)
    nu = nu_proximity(a, u)
    delta_u = from_uniformity(u)
    for _, rho in enumerate_partition_proximities(a.carrier):
        if not (is_g_invariant(rho, a)[0] and is_action_compatible(rho, a)[0]):
            continue
        if dominates(delta_u, rho):
            assert dominates(nu, rho)


def test_subgroup_germ_restriction():
    germ, g = s3_natural([frozenset(range(6))])
    a3 = next(s for s in g.subgroups() if len(s) == 3)
    sub = subgroup_germ(germ, a3)
    assert sub.group.order == 3
    assert len(sub.ne.levels) == 1 and len(sub.deepest) == 3


def test_dense_subgroup_agreement_when_deep_orbits_coincide():
    germ, g = s3_natural([frozenset(range(6))])
    a3 = next(s for s in g.subgroups() if len(s) == 3)
    assert g.product_set(a3, germ.deepest) == frozenset(range(6))
    assert deepest_orbits_coincide(germ, a3)
    agree, _, _ = betag_on_subgroup_agrees(germ, a3)
    assert agree


def test_dense_subgroup_condition_alone_is_insufficient():
    # Regular-action Z4 with the full-group chain: the index-two subgroup
    # covers the group jointly with the deepest level, yet its orbits are
    # strictly smaller, and the maximal proximities genuinely differ.
    g = FiniteGroup.cyclic(4)
    c = Carrier(range(4))
    act = [tuple((x + k) % 4 for x in range(4)) for k in range(4)]
    germ = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(4))]), c, act)
    h = frozenset({0, 2})
    assert g.product_set(h, germ.deepest) == frozenset(range(4))
    assert not deepest_orbits_coincide(germ, h)
    agree, full, restricted = betag_on_subgroup_agrees(germ, h)
    assert not agree
    assert full.near({0}, {1}) and not restricted.near({0}, {1})


def pullback_literal(p, a, elems):
    """The rows of p(VA, VB) for V = elems, VA = {v.x : v in V, x in A}
    read through the action one point at a time."""
    n = a.carrier.n
    N = 1 << n
    trans = [sum({1 << a.act[v][x] for v in elems for x in range(n)
                  if m >> x & 1}) for m in range(N)]
    return [sum(1 << bm for bm in range(N)
                if p.rows[trans[am]] >> trans[bm] & 1) for am in range(N)]


def test_pullback_matches_the_translates_read_literally():
    # Every germ of the family, through each chain level and each
    # generator alone; the tables are beta_G's and two random maps'.
    rng = random.Random(54)
    germs = {}
    for _label, germ, _u in iter_family(max_n=3, seed=0):
        germs[(id(germ.group), germ.ne.levels, germ.carrier.n,
               germ.act)] = germ
    for a in germs.values():
        c, group = a.carrier, a.group
        routes = [(level, a.masks[li], a.inverse_masks(li))
                  for li, level in enumerate(a.ne.levels)]
        routes += [([g], a._point_masks([g]), a._point_masks([group.inv[g]]))
                   for g in group.gens]
        for p in (beta_g_proximity(a), random_map_table(rng, c),
                  random_map_table(rng, c)):
            for elems, fwd, inv in routes:
                q = equivariant._pullback(p, fwd, inv)
                assert list(q.rows) == pullback_literal(p, a, elems), \
                    (a, elems, p.map)
    assert len(germs) >= 30, len(germs)


def test_group_action_verdicts_on_one_map_tables_build_no_row():
    # S3 on 12 points: every verdict that compares tables reads the tables
    # through their maps alone, and agrees with the same verdict on fresh
    # tables of the same maps over a fresh germ.
    instance = load_instance(FIXTURES / "twelve_points_s3_nested.json")
    a, u = instance.germ, instance.uniformity
    nu, bg = nu_proximity(a, u), beta_g_proximity(a)
    scans = (is_g_invariant, is_action_compatible, semigroup_upgrade)
    verdicts = [scan(p, a) for p in (nu, bg) for scan in scans]
    assert check_equinormal(a).equinormal
    tables = [nu, bg]
    agree = []
    for h in a.group.subgroups():
        ok, full, restricted = betag_on_subgroup_agrees(a, sorted(h))
        agree.append(ok)
        tables += [full, restricted]
    assert [t._rows for t in tables] == [None] * len(tables)
    assert True in agree and False in agree
    fresh = GActionGerm(a.group, a.ne, a.carrier, a.act)
    assert verdicts == [scan(meets_table(a.carrier, p.map), fresh)
                        for p in (nu, bg) for scan in scans]
    assert agree == [tables[2 * i + 2].rows == tables[2 * i + 3].rows
                     for i in range(len(agree))]
