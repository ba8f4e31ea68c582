import random
from pathlib import Path

import pytest
from equivariant_reference import push_rel, translate_mask
from group_reference import permutation_closure_reference

from eqprox.document import load_instance
from eqprox.gaction import FiniteGroup, GActionGerm, NeighborhoodBase, \
    check_action_continuity, classify, saturate_uniformity
from eqprox.setrel import Carrier, Rel, _join_mask, diagonal, full_relation
from eqprox.suite import germ_chains, iter_family
from eqprox.uniformity import UnifBase, discrete_basis, indiscrete_basis, \
    refinement_equivalent, validate_basis

FIXTURES = Path(__file__).parent / "fixtures"


def z3_rotation(levels=None):
    g = FiniteGroup.cyclic(3)
    c = Carrier(range(3))
    act = [tuple((x + k) % 3 for x in range(3)) for k in range(3)]
    levels = levels or [frozenset(range(3))]
    return GActionGerm(g, NeighborhoodBase(g, levels), c, act)


def test_group_table_validation_names_the_triple():
    # e is an identity but (a.a).a = b.a = b while a.(a.a) = a.b = a.
    with pytest.raises(ValueError, match=r"associative at triple \('a', 'a', 'a'\)"):
        FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 1], [2, 2, 0]])
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup(["a", "b"], [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="no inverse"):
        FiniteGroup(["e", "a"], [[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="cap"):
        FiniteGroup.cyclic(49)


def test_cyclic_group_shape():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.names[g.e] == "e"
    assert g.mul[1][1] == 2
    assert g.inv[1] == 3


def test_from_permutations_closure():
    g, perms = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert perms[g.e] == (0, 1, 2)
    # Composition convention: (p*q)(x) = p(q(x)).
    i = perms.index((1, 0, 2))
    j = perms.index((1, 2, 0))
    composed = tuple((1, 0, 2)[(1, 2, 0)[x]] for x in range(3))
    assert perms[g.mul[i][j]] == composed


def test_permutation_names_are_distinct_above_degree_ten():
    # Names join the images with "." above degree 10, where images 1, 11
    # and 11, 1 would otherwise both read "111".  Each group permutes at
    # most four points, always 1 and d - 1, so it stays under the order
    # cap and often has two elements whose joined images coincide.
    rng = random.Random(11)
    for d in (11, 12):
        for _ in range(40):
            moved = list(dict.fromkeys(rng.sample(range(d), 2) + [1, d - 1]))
            gens = []
            for _ in range(rng.choice((1, 2))):
                shuffled = rng.sample(moved, len(moved))
                p = list(range(d))
                for x, y in zip(moved, shuffled):
                    p[x] = y
                gens.append(tuple(p))
            g, perms = FiniteGroup.from_permutations(gens)
            assert len(set(g.names)) == g.order
            for name, p in zip(g.names, perms):
                if name != "e":
                    assert name == "p" + ".".join(map(str, p))


def test_permutation_names_up_to_degree_ten_have_no_separator():
    g, perms = FiniteGroup.from_permutations([tuple(range(9, -1, -1))])
    assert g.names == ("e", "p9876543210")


def test_from_permutations_respects_cap():
    # S4 x Z2 on six points closes at exactly the cap of 48 elements; a
    # 49-cycle generates one element more.
    at_cap = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]
    group, perms = FiniteGroup.from_permutations(at_cap)
    assert group.order == 48
    assert (group.names, perms) == permutation_closure_reference(at_cap)
    above = [tuple(range(1, 49)) + (0,)]
    with pytest.raises(ValueError, match="cap") as got:
        FiniteGroup.from_permutations(above)
    with pytest.raises(ValueError) as want:
        permutation_closure_reference(above)
    assert str(got.value) == str(want.value)


def test_subgroups_of_s3():
    g = FiniteGroup.symmetric(3)
    subs = g.subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]
    normals = [s for s in subs if g.is_normal(s)]
    assert sorted(len(s) for s in normals) == [1, 3, 6]


def test_neighborhood_base_validation():
    g = FiniteGroup.cyclic(4)
    NeighborhoodBase(g, [frozenset(range(4)), frozenset({0, 2})])
    with pytest.raises(ValueError, match="identity"):
        NeighborhoodBase(g, [frozenset({1})])
    with pytest.raises(ValueError, match="descending between levels 0 and 1"):
        NeighborhoodBase(g, [frozenset({0}), frozenset({0, 2})])
    # Deepest level must absorb its own products: {e, g} is not a subgroup.
    with pytest.raises(ValueError, match="square/inverse witness"):
        NeighborhoodBase(g, [frozenset({0, 1})])


def test_non_normal_deepest_level_is_rejected():
    g = FiniteGroup.symmetric(3)
    t = next(s for s in g.subgroups() if len(s) == 2)
    with pytest.raises(ValueError, match="conjugation witness"):
        NeighborhoodBase(g, [t])


def test_action_validation():
    g = FiniteGroup.cyclic(2)
    c3 = Carrier(range(3))
    # A 3-cycle squares to another 3-cycle, not to the identity.
    with pytest.raises(ValueError, match="action law"):
        GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c3,
                    [(0, 1, 2), (1, 2, 0)])
    c2 = Carrier(range(2))
    with pytest.raises(ValueError, match="identity must act"):
        GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c2,
                    [(1, 0), (0, 1)])


# A set V of group indices translates a carrier mask m to V.m, the join of
# the point masks of V over m (the translates bracket_entourage reads).

def test_translate_set_examples():
    a = z3_rotation()  # indices 0, 1, 2 are e, g, g2; g adds 1 mod 3
    e, eg = a._point_masks({0}), a._point_masks({0, 1})
    assert _join_mask(e, 0b101) == 0b101
    assert _join_mask(eg, 0) == 0
    assert _join_mask(eg, 0b001) == 0b011


def test_translate_monotone_in_both_arguments():
    a = z3_rotation()
    e, eg = a._point_masks({0}), a._point_masks({0, 1})
    assert _join_mask(e, 0b001) & ~_join_mask(eg, 0b001) == 0
    assert _join_mask(eg, 0b001) & ~_join_mask(eg, 0b101) == 0


def test_translate_is_action_of_products():
    a = z3_rotation()
    g = a.group
    v, w = {0, 1}, {1}
    vw = {g.mul[x][y] for x in v for y in w}
    for m in (0b001, 0b011, 0b110):
        assert _join_mask(a._point_masks(vw), m) == _join_mask(
            a._point_masks(v), _join_mask(a._point_masks(w), m))


def actions_with_their_chains():
    """(action, chains): each distinct action of iter_family(max_n=4) and
    of the 12-point fixtures, with its own chain first, then every suite
    chain of its group, and then, when the group has an element g outside
    the deepest level N with g != g^{-1}, the chain (N + {g}, N), whose
    upper level is not closed under inverses."""
    found = {}
    for _label, germ, _u in iter_family(max_n=4, seed=0):
        found.setdefault((id(germ.group), germ.carrier.n, germ.act), germ)
    for name in ("twelve_points_s3.json", "twelve_points_s3_orbits.json",
                 "twelve_points_s3_generators.json"):
        found[name] = load_instance(str(FIXTURES / name)).germ
    for germ in found.values():
        group, deep = germ.group, germ.deepest
        chains = [germ.ne] + [NeighborhoodBase(group, levels)
                              for levels in germ_chains(group)]
        chains += [NeighborhoodBase(group, [deep | {g}, deep])
                   for g in range(group.order)
                   if g not in deep and group.inv[g] != g][:1]
        yield germ, chains


def test_chain_binding_matches_its_definition(monkeypatch):
    # masks[i][x] is the mask of {v.x : v in level i}, inverse_masks(i) its
    # transpose, deepest the last level; binding every chain twice on one
    # action builds the forward masks once per distinct level value.
    built = []
    real = GActionGerm._point_masks

    def point_masks(self, elems):
        built.append(1)
        return real(self, elems)

    monkeypatch.setattr(GActionGerm, "_point_masks", point_masks)
    for germ, chains in actions_with_their_chains():
        del built[:]
        base = GActionGerm(germ.group, chains[0], germ.carrier, germ.act)
        bound = [base.on_chain(ne) for ne in chains + chains]
        assert len(built) == len({v for ne in chains for v in ne.levels})
        n = germ.carrier.n
        for a in bound:
            assert a._cache is base._cache
            assert a.deepest == a.ne.levels[-1]
            assert len(a.masks) == len(a.ne.levels)
            for i, level in enumerate(a.ne.levels):
                assert a.masks[i] == tuple(
                    sum(1 << y for y in {a.act[v][x] for v in level})
                    for x in range(n)), (a, i)
                assert a.inverse_masks(i) == tuple(
                    sum(1 << y for y in range(n) if a.masks[i][y] >> x & 1)
                    for x in range(n)), (a, i)


def test_level_translates_match_translate_mask():
    s3, perms = FiniteGroup.from_permutations([(1, 0, 2, 4, 3, 5),
                                               (1, 2, 0, 4, 5, 3)])
    a3 = next(h for h in s3.subgroups() if len(h) == 3)
    germs = [
        z3_rotation(),
        z3_rotation(levels=[frozenset({0})]),
        GActionGerm(s3, NeighborhoodBase(s3, [range(6), a3, {s3.e}]),
                    Carrier(range(6)), perms),
    ]
    # Brute force with Python sets: V.A = {v.x}, and V^{-1}.A the points
    # with some v.x in A.
    for a in germs:
        c = a.carrier
        for li, level in enumerate(a.ne.levels):
            lem = a.masks[li]
            inv = a.inverse_masks(li)
            assert lem == tuple(c.subset_mask({a.act[v][x] for v in level})
                                for x in range(c.n))
            assert inv == tuple(
                c.subset_mask({x for x in range(c.n)
                               if any(a.act[v][x] == y for v in level)})
                for y in range(c.n))
            for m in range(1 << c.n):
                subset = {x for x in range(c.n) if m >> x & 1}
                moved = {a.act[v][x] for v in level for x in subset}
                back = {x for x in range(c.n)
                        if any(a.act[v][x] in subset for v in level)}
                assert _join_mask(lem, m) == \
                    c.subset_mask(moved) == translate_mask(a, li, m)
                assert _join_mask(a._point_masks(level), m) == \
                    c.subset_mask(moved)
                assert _join_mask(inv, m) == c.subset_mask(back)


def test_push_table_matches_push_rel():
    s3, perms = FiniteGroup.from_permutations([(1, 0, 2, 4, 3, 5),
                                               (1, 2, 0, 4, 5, 3)])
    c = Carrier(range(6))
    a = GActionGerm(s3, NeighborhoodBase(s3, [range(6)]), c, perms)
    path = Rel(c, [(x, y) for x in range(6) for y in range(6)
                   if abs(x - y) <= 1])
    halves = Rel(c, [(x, y) for x in range(6) for y in range(6)
                     if (x < 3) == (y < 3)])
    step = Rel(c, [(0, 1), (1, 3), (4, 4), (5, 2)])
    u = UnifBase(c, [path, halves, step, diagonal(c)])
    push = a.push_table(u)
    assert len(push) == s3.order
    for g in range(s3.order):
        assert push[g] == tuple(push_rel(a, g, eps).pair_bits
                                for eps in u.basis)


def test_classification_is_kept_per_basis_value():
    from eqprox.equivariant import compute_ug
    from eqprox.suite import _corrupt_basis
    a = z3_rotation()
    u = UnifBase(a.carrier, [full_relation(a.carrier)])
    same = UnifBase(a.carrier, [Rel(a.carrier, r.pairs) for r in u.basis])
    assert same is not u
    assert classify(a, same) == classify(a, u)
    assert check_action_continuity(a, same) == check_action_continuity(a, u)
    ug = compute_ug(a, discrete_basis(a.carrier))
    assert validate_basis(ug).ok()
    # The corrupted copy is a new basis value, so it is checked afresh.
    bad = _corrupt_basis(ug)
    assert "B1" in validate_basis(bad).failures()
    assert not classify(a, bad).bounded
    assert classify(a, ug).bounded


def test_reports_are_equal_when_every_verdict_and_witness_is():
    # `==` decides all six verdicts and compares their witnesses, so two
    # settings failing the same verdicts at different tuples differ.
    first = {}
    differing = 0
    for _label, germ, u in iter_family(max_n=3):
        report = classify(germ, u)
        wits = report.witnesses
        other = first.setdefault(tuple(wits), report)
        assert (report == other) == (wits == other.witnesses)
        differing += wits != other.witnesses
    assert differing


def test_classify_trivial_group():
    g = FiniteGroup.cyclic(2)
    c = Carrier(range(3))
    a = GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c,
                    [(0, 1, 2), (0, 1, 2)])
    cls = classify(a, discrete_basis(c))
    assert cls.saturated and cls.bounded and cls.quasibounded
    assert cls.equiuniform and cls.pi_uniform
    assert cls.action_continuous


def test_classify_z3_discrete_germ():
    a = z3_rotation(levels=[frozenset({0})])
    cls = classify(a, discrete_basis(a.carrier))
    assert cls.bounded and cls.saturated and cls.equiuniform


def test_classify_z3_indiscrete_germ():
    # Transitive rotation, full-group chain, diagonal basis: quasibounded
    # and saturated but not bounded, with the stated witness.
    a = z3_rotation()
    cls = classify(a, discrete_basis(a.carrier))
    assert not cls.bounded
    assert cls.quasibounded and cls.saturated
    eps_index, v, x = cls.witnesses["bounded"]
    assert (eps_index, v, x) == (0, "g", 0)


def test_action_continuity_examples():
    # Discrete germ: always continuous when the basis is saturated.
    a = z3_rotation(levels=[frozenset({0})])
    ok, _ = check_action_continuity(a, discrete_basis(a.carrier))
    assert ok
    # Indiscrete germ on a transitive action: fails at x0=0 with the
    # diagonal entourage.
    b = z3_rotation()
    ok, witness = check_action_continuity(b, discrete_basis(b.carrier))
    assert not ok
    g0, x0, eps_index = witness
    assert (x0, eps_index) == (0, 0)
    # Trivial action: always continuous.
    g = FiniteGroup.cyclic(3)
    c = Carrier(range(3))
    triv = GActionGerm(g, NeighborhoodBase(g, [frozenset(range(3))]), c,
                       [(0, 1, 2)] * 3)
    assert check_action_continuity(triv, indiscrete_basis(c))[0]


def test_saturate_uniformity_trivial_cases():
    g = FiniteGroup.cyclic(2)
    c = Carrier(range(2))
    triv = GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c,
                       [(0, 1), (0, 1)])
    u = UnifBase(c, [diagonal(c), full_relation(c)])
    assert refinement_equivalent(saturate_uniformity(triv, u), u)


def test_saturate_uniformity_symmetrizes_the_swap_example():
    g = FiniteGroup.cyclic(2)
    c = Carrier(["a", "b"])
    swap = GActionGerm(g, NeighborhoodBase(g, [frozenset({0})]), c,
                       [(0, 1), (1, 0)])
    skew = Rel(c, [("a", "a"), ("b", "b"), ("a", "b")])
    u = UnifBase(c, [diagonal(c), skew])
    assert validate_basis(u).ok()
    out = saturate_uniformity(swap, u)
    # Intersecting over both translates leaves only the diagonal part.
    for rel in out.basis:
        assert push_rel(swap, 1, rel) == rel
    assert validate_basis(out).ok()
    assert classify(swap, out).saturated


def test_saturated_output_for_already_saturated_input():
    a = z3_rotation()
    u = discrete_basis(a.carrier)
    out = saturate_uniformity(a, u)
    assert refinement_equivalent(out, u)


def test_saturation_always_refines_the_input():
    import random

    rng = random.Random(41)
    a = z3_rotation()
    els = list(range(3))
    for _ in range(20):
        eps = Rel(a.carrier, [(x, y) for x in els for y in els
                              if x == y or rng.random() < 0.4])
        u = UnifBase(a.carrier, [diagonal(a.carrier), eps])
        out = saturate_uniformity(a, u)
        from eqprox.uniformity import refines
        assert refines(out, u)


def test_saturation_is_the_intersection_of_all_translates():
    from eqprox.suite import iter_family
    for _label, germ, u in iter_family(max_n=3, seed=1):
        out = saturate_uniformity(germ, u)
        for eps, sat in zip(u.basis, out.basis):
            pairs = set(eps.pairs)
            for g in range(germ.group.order):
                pairs &= push_rel(germ, g, eps).pairs
            assert sat.pairs == pairs


def test_bounded_and_saturated_implies_quasibounded_and_saturated():
    # The composite verdicts must respect the inclusion: being equiuniform
    # is at least as strong as being pi-uniform, on every instance.
    import random

    rng = random.Random(43)
    for germ in (z3_rotation(), z3_rotation(levels=[frozenset({0})])):
        els = list(range(3))
        for _ in range(15):
            eps = Rel(germ.carrier, [(x, y) for x in els for y in els
                                     if x == y or rng.random() < 0.4])
            u = UnifBase(germ.carrier, [diagonal(germ.carrier), eps])
            cls = classify(germ, u)
            assert not cls.equiuniform or cls.pi_uniform
