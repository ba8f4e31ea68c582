import random
import time

import pytest

from eqprox import equivariant, gaction, suite
from eqprox.errors import InternalCheckFailure


def test_sigma_trap_is_recorded_as_a_labelled_failure(monkeypatch):
    def broken(*args):
        raise InternalCheckFailure("sup over translates broke")

    monkeypatch.setattr(suite, "sup_pseudometric", broken)
    report = suite.run_suite(filters=["sigma"])
    (sigma,) = [r for r in report.results if r.name == "sigma"]
    assert not sigma.ok
    label, detail = sigma.failure
    assert label.startswith("sigma/") and "/sup" in label
    assert detail == "sup over translates broke"
    assert not report.ok


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
    # The chains of an action share one germ cache, so a classification is
    # computed once per (action, deepest level, basis), a push table once
    # per (action, basis) and the equinormal axiom check once per β_G
    # table, however many chains reach them.  The tables are kept in the
    # lists, so their ids are never reused.
    runs = {"classify": [], "push": [], "axioms": []}
    real_classify, real_push = gaction._classify, gaction._push_table
    real_axioms, real_betag = equivariant.check_axioms, suite.beta_g_proximity
    tables, betag_tables = [], []

    def classify(a, u):
        runs["classify"].append((id(a.group), a.act, a.ne.levels[a.deep], u))
        return real_classify(a, u)

    def push_table(a, u):
        runs["push"].append((id(a.group), a.act, u))
        return real_push(a, u)

    def check_axioms(p):
        tables.append(p)
        runs["axioms"].append(id(p))
        return real_axioms(p)

    def beta_g_proximity(a):
        betag_tables.append(real_betag(a))
        return betag_tables[-1]

    monkeypatch.setattr(gaction, "_classify", classify)
    monkeypatch.setattr(equivariant, "check_axioms", check_axioms)
    monkeypatch.setattr(gaction, "_push_table", push_table)
    monkeypatch.setattr(suite, "beta_g_proximity", beta_g_proximity)
    report = suite.run_suite(max_n=3, filters=["tgprox", "betag", "ugclaims",
                                               "gprox", "semigr", "maximality",
                                               "equinormal", "densesub"])
    assert report.ok
    for name, keys in runs.items():
        assert keys, name
        assert len(keys) == len(set(keys)), name
    # Every β_G table the chains reach is checked, under its own level.
    assert set(runs["axioms"]) == {id(p) for p in betag_tables}
