import random
import time
from collections import Counter
from operator import xor

import pytest
from test_equivariant_differential import VERDICT_OF

from eqprox import equivariant, gaction, metricprox, proximity, setrel, \
    suite, uniformity
from eqprox.errors import InternalCheckFailure


def test_sigma_trap_is_recorded_as_a_labelled_failure(monkeypatch):
    def broken(*args):
        raise InternalCheckFailure("sup over translates broke")

    # The sigma family builds every worst-case pseudometric in its own
    # trap loop; xi_report only reads them.
    monkeypatch.setattr(suite, "sup_pseudometric", broken)
    report = suite.run_suite(filters=["sigma"])
    (sigma,) = [r for r in report.results if r.name == "sigma"]
    assert not sigma.ok
    label, detail = sigma.failure
    assert label.startswith("sigma/") and "/sup" in label
    assert detail == "sup over translates broke"
    assert not report.ok


def test_sigma_family_builds_each_worst_case_pseudometric_once(monkeypatch):
    # One call per (subset, member) of each instance, through either
    # binding: xi_report reads the trap loop's pseudometrics.
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    real = suite.sup_pseudometric
    monkeypatch.setattr(suite, "sup_pseudometric", counting)
    monkeypatch.setattr(metricprox, "sup_pseudometric", counting)
    report = suite.run_suite(filters=["sigma"])
    (sigma,) = report.results
    # 223 checks: one per (subset, member) and one for each of 48 instances.
    assert (sigma.ok, sigma.checked, calls) == (True, 223, 223 - 48)


MAIN_FAMILY = ("tgprox", "betag", "ugclaims", "gprox", "semigr", "maximality",
               "equinormal", "densesub")


@pytest.mark.parametrize("max_n, inject", [
    (5, None), (3, None), (2, "bracket"), (2, "nu"), (2, "betag")])
def test_main_family_lines_do_not_depend_on_the_filter(max_n, inject):
    # The main family runs whole under any filter, and run_suite records
    # only the names asked for, so each line is its line in the whole run.
    whole = suite.run_suite(max_n=max_n, filters=MAIN_FAMILY, inject=inject)
    lines = {r.name: r.line() for r in whole.results}
    assert list(lines) == list(MAIN_FAMILY)
    for name in MAIN_FAMILY:
        (alone,) = suite.run_suite(max_n=max_n, filters=[name],
                                   inject=inject).results
        assert alone.line() == lines[name]


def test_corrupt_basis_drops_the_least_diagonal_pair_of_the_first_entourage():
    carrier = suite.Carrier(range(4))
    full = [(x, y) for x in range(4) for y in range(4)]
    for drop in ([], [(0, 0)], [(0, 0), (1, 1)]):
        first = suite.Rel(carrier, [p for p in full if p not in drop])
        u = suite.UnifBase(carrier, [first, suite.full_relation(carrier)])
        least = min(p for p in first.pairs if p[0] == p[1])
        bad = suite._corrupt_basis(u)
        assert bad.basis[0].pairs == first.pairs - {least}
        assert bad.basis[1:] == u.basis[1:]


def test_first_mismatch_of_equal_one_map_tables_builds_no_row():
    # The suite names a mismatch by the first pair under xor.
    carrier = suite.Carrier(range(5))
    f = [0b00011, 0b00011, 0b11100, 0b11100, 0b11100]
    p, q = suite.meets_table(carrier, f), suite.meets_table(carrier, list(f))
    assert suite.first_pair(p, q, xor) is None
    assert p._rows is None and q._rows is None
    # Different maps are compared on their maps too.
    g = [0b00011, 0b00011, 0b11100, 0b11100, 0b10000]
    r = suite.meets_table(carrier, g)
    a, b = suite.first_pair(p, r, xor)
    assert p._rows is None and r._rows is None
    assert p.near(a, b) != r.near(a, b)
    assert suite.first_pair(p, suite._corrupt_prox(p), xor) == \
        (frozenset({0}), frozenset({0}))


def test_metric_family_labels_name_the_failing_setting(monkeypatch):
    # Chains and actions are built once per n; the label must still name
    # the matrix, action and chain of the setting that failed.
    real = suite.metric_g_proximity
    group = suite.FiniteGroup.cyclic(2)
    chain = suite.germ_chains(group)[2]

    def corrupt_one_setting(metric, germ):
        mg = real(metric, germ)
        if (germ.carrier.n == 3 and germ.ne.levels == chain
                and germ.act[1] != (0, 1, 2)):
            return suite._corrupt_prox(mg)
        return mg

    monkeypatch.setattr(suite, "metric_g_proximity", corrupt_one_setting)
    report = suite.run_suite(max_group=2, filters=["metric"])
    (metric,) = report.results
    assert metric.failure == ("metric/n3/m0/Z2/act1/chain2",
                              (frozenset({0}), frozenset({0})))
    # All 8 matrices at n = 3 fail in that setting, and nothing else.
    assert (metric.checked, metric.passed) == (639, 639 - 8)


def _count_builds(monkeypatch, record):
    """Patch the one shared `_kept`, so that record(owner, key) runs at
    each build of a kept value, key being (fn,) + args, whether a germ, a
    basis or a metric keeps it."""
    real = setrel.Memo._kept

    def kept(self, fn, *args):
        key = (fn, *args)
        if key not in self._cache:
            record(self, key)
        return real(self, fn, *args)

    monkeypatch.setattr(setrel.Memo, "_kept", kept)


def test_metric_family_tabulates_each_derived_basis_once(monkeypatch):
    # compute_ug returns the kept basis again for a repeated key, and
    # from_uniformity keeps its table on the basis, so one table per basis
    # and matrix serves 4,290 checks.  The bases are kept in the list, so
    # their ids are never reused.
    built = []

    def record(owner, key):
        if key == (proximity._induced_table,):
            built.append(owner)

    _count_builds(monkeypatch, record)
    (metric,) = suite.run_suite(filters=["metric"]).results
    assert (metric.checked, metric.passed) == (4290, 4290)
    assert len({id(u) for u in built}) == len(built) == 1106


def test_metric_family_builds_each_level_bracket_once(monkeypatch):
    # Each level's brackets are kept on the basis by that level's point
    # masks, so the metric family at seed 0 builds one bracket per
    # distinct (basis, level, entourage): 1,639, where keying by the whole
    # chain built 5,297.
    calls = []
    _counting(monkeypatch, equivariant, "_bracket", calls)
    (metric,) = suite.run_suite(filters=["metric"], seed=0).results
    assert (metric.checked, metric.passed) == (4290, 4290)
    assert len(calls) <= 1639


def test_bases_and_metrics_keep_each_value_through_the_shared_cache(
        monkeypatch):
    # A basis keeps its validate_basis report, its least entourage, its
    # from_uniformity table, its derived bases and the brackets of each
    # level, and a metric its sublevel basis and its zero hulls, all
    # through the one `_kept`: each is built once per owner and key, and
    # read again it is the kept object.  Every owner is kept in the list,
    # so its id is never reused.
    builds = Counter()
    owners = []

    def record(owner, key):
        if not isinstance(owner, suite.GActionGerm):
            owners.append(owner)
            builds[id(owner), key] += 1

    _count_builds(monkeypatch, record)
    report = suite.run_suite(max_n=3, filters=["tgprox", "ugclaims", "metric"])
    assert report.ok
    assert {key[0] for _owner, key in builds} == {
        uniformity._basis_report, setrel.least_entourage,
        proximity._induced_table, equivariant._checked_brackets,
        equivariant._level_brackets, metricprox._sublevel_basis,
        metricprox._zero_hulls}
    for owner in owners:
        if isinstance(owner, suite.UnifBase):
            assert suite.validate_basis(owner) is suite.validate_basis(owner)
            assert setrel.kept_least_entourage(owner) is \
                setrel.kept_least_entourage(owner)
            assert suite.from_uniformity(owner) is \
                suite.from_uniformity(owner)
        else:
            assert suite.metric_uniformity(owner) is \
                suite.metric_uniformity(owner)
    assert set(builds.values()) == {1}


@pytest.mark.parametrize("n", range(1, 9))
def test_sorted_equivalences_run_from_diagonal_to_full_relation(n):
    # basis_pool keeps these two ends without sorting all Bell(n).
    carrier = suite.Carrier(range(n))
    eqs = suite._all_equivalences(carrier)
    assert eqs[0] == suite.diagonal(carrier)
    assert eqs[-1] == suite.full_relation(carrier)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_pool_takes_every_equivalence_up_to_three_points(n):
    carrier = suite.Carrier(range(n))
    pool = suite.basis_pool(carrier, random.Random(0))
    assert [u.basis[0] for u in pool if len(u.basis) == 1] == \
        suite._all_equivalences(carrier)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_pool_builds_at_twelve_points(seed):
    carrier = suite.Carrier(range(12))
    start = time.perf_counter()
    pool = suite.basis_pool(carrier, random.Random(seed))
    assert time.perf_counter() - start < 1.0
    assert pool[0].basis == (suite.diagonal(carrier),)
    assert pool[1].basis == (suite.full_relation(carrier),)
    assert all(suite.validate_basis(u).ok() for u in pool)


def test_main_family_classifies_each_setting_value_once(monkeypatch):
    # The chains of an action share one germ cache, so each verdict is
    # searched at most once per action and key (its name and basis, and
    # the deepest level for the three that read it), a push table once
    # per (action, basis) and the equinormal axiom check once per β_G
    # table, however many chains reach them.  The tables are kept in the
    # lists, so their ids are never reused.
    runs = {"verdicts": [], "push": [], "axioms": []}
    real_axioms, real_betag = equivariant.check_axioms, suite.beta_g_proximity
    tables, betag_tables = [], []

    def record(owner, key):
        if key[0] in VERDICT_OF:
            runs["verdicts"].append((id(owner.group), owner.act,
                                     VERDICT_OF[key[0]]) + key[1:])
        elif key[0] is gaction._push_table:
            runs["push"].append((id(owner.group), owner.act) + key)

    def check_axioms(p):
        tables.append(p)
        runs["axioms"].append(id(p))
        return real_axioms(p)

    def beta_g_proximity(a):
        betag_tables.append(real_betag(a))
        return betag_tables[-1]

    _count_builds(monkeypatch, record)
    monkeypatch.setattr(equivariant, "check_axioms", check_axioms)
    monkeypatch.setattr(suite, "beta_g_proximity", beta_g_proximity)
    report = suite.run_suite(max_n=3, filters=["tgprox", "betag", "ugclaims",
                                               "gprox", "semigr", "maximality",
                                               "equinormal", "densesub"])
    assert report.ok
    for name, keys in runs.items():
        assert keys, name
        assert len(keys) == len(set(keys)), name
    # The suite reads five verdicts and never asks for equicontinuity.
    assert {key[2] for key in runs["verdicts"]} == set(gaction.VERDICTS) - {
        "equicontinuous", "uniformly_equicontinuous"}
    # Every β_G table the chains reach is checked, under its own level.
    assert set(runs["axioms"]) == {id(p) for p in betag_tables}


def _counting(monkeypatch, module, name, calls):
    """Patch module.name with a wrapper that appends name to calls."""
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_metric_family_reads_only_pi_uniformity(monkeypatch):
    # Every metric setting is pi-uniform, so the family searches only its
    # two parts: it never decides continuity or equicontinuity and never
    # asks whether the setting is isometric.
    calls = []
    for module, name in ((gaction, "check_action_continuity"),
                         (gaction, "_equicontinuity_witness"),
                         (suite, "is_isometric")):
        _counting(monkeypatch, module, name, calls)
    searched = set()

    def record(owner, key):
        if key[0] in VERDICT_OF:
            searched.add(VERDICT_OF[key[0]])

    _count_builds(monkeypatch, record)
    (metric,) = suite.run_suite(filters=["metric"]).results
    assert (metric.checked, metric.passed) == (4290, 4290)
    assert calls == []
    assert searched == {"saturated", "quasibounded"}


def test_each_main_family_filter_makes_the_builds_of_the_whole_family(
        monkeypatch):
    # The filter selects records, not work: a filter naming one main-family
    # invariant builds the same kept values, counted by function, as the
    # filter naming all eight.
    def builds(filters):
        built = Counter()
        _count_builds(monkeypatch, lambda owner, key: built.update(key[:1]))
        report = suite.run_suite(max_n=3, filters=filters)
        monkeypatch.undo()
        assert report.ok and all(r.checked for r in report.results)
        return built

    whole = builds(MAIN_FAMILY)
    assert whole[equivariant._checked_brackets]
    for name in MAIN_FAMILY:
        assert builds([name]) == whole, name


def _forward_masks(a, level):
    masks = [0] * a.carrier.n
    for v in level:
        for x, y in enumerate(a.act[v]):
            masks[x] |= 1 << y
    return tuple(masks)


def test_main_family_runs_each_scan_once_per_action_and_value(monkeypatch):
    # A scan builds its result once per action and per value it reads: the
    # basis for saturation, its least entourage for nu, the rows for
    # invariance, and the rows with the point masks of the levels read
    # for the others.  A build is
    # a run of the scan's body under its key, which the calls below see as
    # a new key of the scan's tag.  `from_uniformity` and `compute_ug` keep
    # their results on the basis object, so they build once per object
    # (and, for `compute_ug`, per level point masks); every owner is kept
    # in a list, so its id is never reused.  The G-proximity candidates
    # reach the compatibility verdict without `is_action_compatible`, so
    # its builds are also counted per action and key directly.
    runs = []
    built = []
    owners = []
    compat = []

    def record(owner, key):
        owners.append(owner)
        built.append(key[0])
        if key[0] is equivariant._compatibility:
            compat.append((action(owner),) + key[1:])

    def action(a):
        return (id(a.group), a.carrier.n, a.act)

    def chain(a):
        return tuple(_forward_masks(a, level) for level in a.ne.levels)

    scans = {
        "saturate_uniformity": (gaction._saturated_basis,
                                lambda a, u: (action(a), u)),
        "nu_proximity": (equivariant._nu_table, lambda a, u: (
            action(a), setrel.least_entourage(u), chain(a))),
        "is_g_invariant": (equivariant._g_invariant,
                           lambda p, a: (action(a), p.map)),
        "is_action_compatible": (equivariant._compatibility, lambda p, a: (
            action(a), p.map, chain(a)[-1])),
        "semigroup_upgrade": (equivariant._semigroup_upgrade, lambda p, a: (
            action(a), p.map, chain(a))),
        "from_uniformity": (proximity._induced_table, lambda u: (id(u),)),
        "compute_ug": (equivariant._checked_brackets,
                       lambda a, u: (id(u), chain(a))),
    }

    def wrap(name, real):
        tag, key = scans[name]

        def counted(*args):
            before = len(built)
            out = real(*args)
            if tag in built[before:]:
                runs.append((name,) + key(*args))
            return out
        return counted

    for name in scans:
        monkeypatch.setattr(suite, name, wrap(name, getattr(suite, name)))
    _count_builds(monkeypatch, record)
    report = suite.run_suite(max_n=3, filters=["tgprox", "betag", "ugclaims",
                                               "gprox", "semigr", "maximality",
                                               "equinormal", "densesub"])
    assert report.ok
    assert {run[0] for run in runs} == set(scans)
    assert len(runs) == len(set(runs))
    assert len(compat) == len(set(compat)) > sum(
        run[0] == "is_action_compatible" for run in runs)


def test_densesub_lists_the_subgroups_once_per_action(monkeypatch):
    # The densesub check reads every subgroup of the group at each germ;
    # the list is kept in the cache an action's germs share, so besides
    # the one call per group that builds the chains, subgroups() runs once
    # per action, not once per chain.
    calls = Counter()
    real = gaction.FiniteGroup.subgroups

    def counted(group):
        calls[group.order] += 1
        return real(group)

    monkeypatch.setattr(gaction.FiniteGroup, "subgroups", counted)
    report = suite.run_suite(max_n=3, filters=["densesub"])
    assert report.ok
    # The standard groups have distinct orders.
    groups = suite.suite_groups()
    actions = Counter({group.order: sum(
        len(suite.curated_actions(gname, group, gens, n))
        for n in range(1, 4)) for gname, group, gens in groups})
    assert calls == actions + Counter(group.order for _, group, _ in groups)


def test_densesub_builds_each_restricted_action_once(monkeypatch):
    # The restricted group and action read only the action and the
    # subgroup: built once per pair, in the cache the action's germs
    # share, and bound to each chain's restricted chain.
    calls = Counter()
    real = equivariant._restricted_action

    def counted(a, h):
        calls[a.group.names, a.carrier.n, a.act, h] += 1
        return real(a, h)

    monkeypatch.setattr(equivariant, "_restricted_action", counted)
    report = suite.run_suite(filters=["densesub"])
    assert report.ok
    assert len(calls) >= 100
    assert set(calls.values()) == {1}


def test_main_family_dominations_at_seed_0(monkeypatch):
    # The maximality scan keeps each candidate's verdicts per action, by
    # the maps it compares and the deepest point masks: 1,150 dominations
    # at seed 0, where a scan per label makes 22,391.
    calls = 0
    real = suite.dominates

    def counted(p1, p2):
        nonlocal calls
        calls += 1
        return real(p1, p2)

    monkeypatch.setattr(suite, "dominates", counted)
    report = suite.run_suite(seed=0, filters=["maximality"])
    (maximality,) = report.results
    assert maximality.ok and maximality.checked >= 7000
    assert calls <= 1150


def test_cached_semigroup_upgrade_keeps_each_chains_verdict():
    # Z4 rotating four points; the chains (Z4, {0, 2}) and ({0, 2}) share
    # their deepest level and one cache, and the verdict is kept per
    # chain: read in either order through the shared cache, each chain's
    # verdict on every partition table and on seeded maps is that of a
    # germ with an empty cache.
    g = suite.FiniteGroup.cyclic(4)
    c = suite.Carrier(range(4))
    act = [tuple((x + k) % 4 for x in range(4)) for k in range(4)]
    whole, half = frozenset(range(4)), frozenset({0, 2})
    chains = [suite.NeighborhoodBase(g, [whole, half]),
              suite.NeighborhoodBase(g, [half])]
    rng = random.Random(45)
    tables = [rho for _blocks, rho
              in equivariant.enumerate_partition_proximities(c)]
    tables += [suite.meets_table(c, [rng.getrandbits(4) for _ in range(4)])
               for _ in range(15)]
    verdicts = set()
    for p in tables:
        for order in ([0, 1], [1, 0]):
            base = suite.GActionGerm(g, chains[order[0]], c, act)
            for i in order:
                germ = base.on_chain(chains[i])
                fresh = suite.GActionGerm(g, chains[i], c, act)
                assert germ._cache is base._cache
                got = equivariant.semigroup_upgrade(p, germ)
                assert got == equivariant.semigroup_upgrade(p, fresh), p.map
                verdicts.add(got[0])
    assert verdicts == {True, False}


def candidates(germ):
    """The G-proximity candidates of the germ, as the maximality scan
    reads them: kept by the deepest level's point masks."""
    return germ._kept(equivariant._candidates, germ.masks[-1],
                      germ.inverse_masks(-1))


def test_cached_scans_match_fresh_calls_on_fresh_germs():
    # Every setting of the family, its scans read through the action's
    # shared cache, against the library on a germ with an empty cache
    # (and, for the table kept on the basis, a basis with none).  The
    # scans run on nu, beta_G and every partition proximity, so both
    # verdicts occur for invariance and compatibility.
    settings = 0
    outcomes = set()
    for _label, germ, u in suite.iter_family(max_n=3):
        if not suite.validate_basis(u).ok():
            continue
        fresh = suite.GActionGerm(germ.group, germ.ne, germ.carrier,
                                  germ.act)
        assert suite.saturate_uniformity(germ, u) == \
            suite.saturate_uniformity(fresh, u)
        assert suite.from_uniformity(u).rows == suite.from_uniformity(
            suite.UnifBase(u.carrier, u.basis)).rows
        nu = suite.nu_proximity(germ, u)
        assert nu.rows == suite.nu_proximity(fresh, u).rows
        tables = [nu, suite.beta_g_proximity(germ)] + [
            rho for _blocks, rho in
            equivariant.enumerate_partition_proximities(germ.carrier)]
        for p in tables:
            inv = suite.is_g_invariant(p, germ)
            comp = suite.is_action_compatible(p, germ)
            assert inv == suite.is_g_invariant(p, fresh)
            assert comp == suite.is_action_compatible(p, fresh)
            assert suite.semigroup_upgrade(p, germ) == \
                suite.semigroup_upgrade(p, fresh)
            outcomes.add((inv[0], comp[0]))
        assert [rho.rows for rho in candidates(germ)] == [
            rho.rows for rho in candidates(fresh)]
        settings += 1
    assert settings > 1000
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


# The suite records every instance its generators draw: these are the facts
# that let it skip none of them.


@pytest.mark.parametrize("seed", range(10))
def test_every_main_family_basis_is_valid(seed):
    # Pooled bases are {θ} or {θ, ε ⊇ θ} with θ an equivalence, and
    # saturation keeps B1-B4, so the main family checks every setting.
    bases = {id(u): u for _label, _germ, u in suite.iter_family(seed=seed)}
    assert bases
    assert all(suite.validate_basis(u).ok() for u in bases.values())


@pytest.mark.parametrize("seed", range(10))
def test_random_subset_of_a_convex_set_is_a_subset(seed):
    # The draws of the ordcomp family at this seed, in its order.
    rng = random.Random(seed + 3)
    for _ in range(500):
        o = suite._random_convex(rng)
        a = suite._random_subset_of(o, rng)
        assert a.issubset(o), (str(a), str(o))


@pytest.mark.parametrize("seed", range(10))
def test_graph_proximities_satisfy_p1_to_p4(seed):
    rng = random.Random(seed)
    for n in (3, 4, 5):
        carrier = suite.Carrier(range(n))
        for _ in range(40):
            p = suite._graph_proximity(carrier, rng)
            assert suite.check_axioms(p).ok(("P1", "P2", "P3", "P4")), p.map


def test_graph_tier_fails_a_table_reported_to_fail_p1(monkeypatch):
    # A verdict that breaks P1 on the graph tables fails each of them; at
    # n = 5, past the definition check, with the failing axiom named.
    real = suite.check_axioms

    def p1_fails(p):
        rep = real(p)
        return proximity.AxiomReport(
            {name: (rep.passed(name), rep.counterexample(name))
             for name in rep.names} | {"P1": (False, None)})

    monkeypatch.setattr(suite, "check_axioms", p1_fails)
    graph = [(label, ok, detail)
             for _name, ok, label, detail in suite._axiom_family(5, 0)
             if label.startswith("axioms/graph/")]
    assert len(graph) == 120
    assert not any(ok for _label, ok, _detail in graph)
    assert {detail for label, _ok, detail in graph
            if label.startswith("axioms/graph/n5/")} == {"P1 fails"}
