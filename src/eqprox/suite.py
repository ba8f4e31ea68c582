"""Verification families and the invariant suite.

The suite generates a deterministic family of finite instances (group,
action, identity-neighborhood chain, entourage basis), runs every
structural identity of the library against its independent oracle, and
reports one line per invariant with pass counts and the first
counterexample on failure.  Identical parameters and seed produce
byte-identical reports.  Each family yields (invariant, ok, label,
detail) records, and `run_suite` records them in one loop.  The filter
selects records; a family runs whole or not at all.

Where a family is astronomically large as literally quantified (all
reflexive entourages over five points, all towers over a grid), the suite
exhausts the small strata and samples the rest with the given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import attrgetter, or_, xor

from . import rationals as rat
from .equivariant import _candidates, beta_g_proximity, \
    betag_on_subgroup_agrees, check_equinormal, compute_ug, \
    deepest_orbits_coincide, is_action_compatible, is_g_invariant, \
    nu_proximity, semigroup_upgrade, set_partitions
from .errors import InternalCheckFailure, ResourceCap
from .gaction import FiniteGroup, GActionGerm, NeighborhoodBase, classify, \
    saturate_uniformity
from .metricprox import FiniteMetric, PseudometricFamily, is_isometric, \
    metric_g_proximity, metric_uniformity, xi_report, \
    sup_pseudometric
from .proximity import P1_P5, check_axioms, dominates, first_pair, \
    from_uniformity, meets_table
from .setrel import DEFAULT_MAX_CARRIER, Carrier, Rel, diagonal, \
    full_relation, kept_least_entourage
from .uniformity import UnifBase, discrete_basis, is_hausdorff, \
    refinement_equivalent, validate_basis


# ---------------------------------------------------------------------------
# Group and action families


def suite_groups(max_group=6):
    """The standard small groups, with their generator indices."""
    out = []
    for m in (2, 3, 4):
        if m <= max_group:
            g = FiniteGroup.cyclic(m)
            out.append((f"Z{m}", g, (1,)))
    if 6 <= max_group:
        s3, perms = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)])
        gi = (perms.index((1, 0, 2)), perms.index((1, 2, 0)))
        out.append(("S3", s3, gi))
    return out


def _cycle(n, points):
    p = list(range(n))
    for a, b in zip(points, points[1:]):
        p[a] = b
    if points:
        p[points[-1]] = points[0]
    return tuple(p)


def _compose_perms(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def action_from_generator_images(group, gen_indices, images, n):
    """Extend generator images to the whole group by breadth-first words.

    If the images violate a group relation the resulting table fails the
    action law and GActionGerm construction raises.
    """
    act = {group.e: tuple(range(n))}
    frontier = [group.e]
    img = dict(zip(gen_indices, (tuple(p) for p in images)))
    while frontier:
        nxt = []
        for h in frontier:
            for gi in gen_indices:
                gh = group.mul[gi][h]
                if gh not in act:
                    act[gh] = _compose_perms(img[gi], act[h])
                    nxt.append(gh)
        frontier = nxt
    if len(act) != group.order:
        raise ValueError("the listed generators do not generate the group")
    return tuple(act[i] for i in range(group.order))


def curated_actions(gname, group, gen_indices, n):
    """A deterministic list of actions (as per-element permutations) of one
    of the standard groups on an n-point carrier."""
    ident = tuple(range(n))
    candidates = []
    if gname in ("Z2", "Z3", "Z4"):
        m = group.order
        images = [ident]
        for k in range(2, n + 1):
            if m % k == 0:
                images.append(_cycle(n, tuple(range(k))))
        if n >= 4 and m % 2 == 0:
            images.append(_compose_perms(_cycle(n, (0, 1)), _cycle(n, (2, 3))))
        if n >= 5 and m == 4:
            images.append(_compose_perms(_cycle(n, (0, 1, 2, 3)), ident))
        candidates = [(im,) for im in images]
    else:  # S3, generators (transposition, 3-cycle)
        candidates = [(ident, ident)]
        if n >= 2:
            candidates.append((_cycle(n, (0, 1)), ident))  # sign character
        if n >= 3:
            candidates.append((_cycle(n, (0, 1)), _cycle(n, (0, 1, 2))))
        if n >= 5:
            candidates.append((
                _compose_perms(_cycle(n, (0, 1)), _cycle(n, (3, 4))),
                _cycle(n, (0, 1, 2))))
    out = []
    seen = set()
    for images in candidates:
        act = action_from_generator_images(group, gen_indices, images, n)
        if act not in seen:
            seen.add(act)
            out.append(act)
    return out


def germ_chains(group):
    """All valid 1- and 2-level chains built from subgroups: the deepest
    level must be normal, the upper level any subgroup containing it."""
    subs = group.subgroups()
    normals = [h for h in subs if group.is_normal(h)]
    chains = [(h,) for h in normals]
    for h2 in normals:
        for h1 in subs:
            if h2 < h1:
                chains.append((h1, h2))
    return chains


# ---------------------------------------------------------------------------
# Entourage basis pools


def equivalence_rel(carrier, blocks):
    pairs = []
    for block in blocks:
        for x in block:
            for y in block:
                pairs.append((x, y))
    return Rel(carrier, pairs)


def _all_equivalences(carrier):
    out = []
    for part in set_partitions(list(carrier.elements)):
        out.append(equivalence_rel(carrier, part))
    out.sort(key=lambda r: (len(r.pairs), sorted(map(r._pair_key, r.pairs))))
    return out


def _random_partition(carrier, rng):
    blocks = []
    for e in carrier.elements:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(e)
        else:
            blocks.append([e])
    return equivalence_rel(carrier, blocks)


def _random_reflexive_superset(carrier, base, rng, p=0.35):
    masks = list(base.image_masks)
    for i in range(carrier.n):
        for j in range(carrier.n):
            if i != j and not masks[i] >> j & 1 and rng.random() < p:
                masks[i] |= 1 << j
    return Rel.from_masks(carrier, masks)


def basis_pool(carrier, rng):
    """Valid bases over a carrier: singleton equivalences (these are exactly
    the one-entourage bases) and pairs {theta, eps} with theta an
    equivalence inside a reflexive eps.  Exhaustive for n <= 3 equivalences,
    seeded samples beyond."""
    n = carrier.n
    pool = []
    seen = set()

    def add(basis):
        key = tuple(sorted(basis, key=attrgetter("image_masks")))
        if key not in seen:
            seen.add(key)
            pool.append(UnifBase(carrier, basis))

    if n <= 3:
        eqs = _all_equivalences(carrier)
    else:
        # The first and last of the sorted equivalences: the only ones
        # with n and n**2 pairs.
        eqs = [diagonal(carrier), full_relation(carrier)]
        want = 6 if n == 4 else 4
        while len(eqs) < want:
            cand = _random_partition(carrier, rng)
            if cand not in eqs:
                eqs.append(cand)
    for theta in eqs:
        add([theta])
    add([diagonal(carrier), full_relation(carrier)])
    per_theta = {1: 0, 2: 3, 3: 4, 4: 3, 5: 2}.get(n, 2)
    for theta in eqs:
        for _ in range(per_theta):
            eps = _random_reflexive_superset(carrier, theta, rng)
            if eps != theta:
                add([theta, eps])
    return pool


# ---------------------------------------------------------------------------
# Suite plumbing


@dataclass
class InvariantResult:
    name: str
    checked: int = 0
    passed: int = 0
    failure: tuple | None = None  # (label, detail), first one only

    def record(self, ok, label, detail=None):
        self.checked += 1
        if ok:
            self.passed += 1
        elif self.failure is None:
            self.failure = (label, detail)

    @property
    def ok(self):
        return self.checked == self.passed

    def line(self):
        if self.ok:
            return f"{self.name}: {self.checked} checks, all pass"
        label, detail = self.failure
        extra = f" [{detail}]" if detail is not None else ""
        return (f"{self.name}: {self.passed}/{self.checked} pass; "
                f"first counterexample: {label}{extra}")


@dataclass
class SuiteReport:
    seed: int
    max_n: int
    max_group: int
    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def lines(self):
        out = [f"suite: seed={self.seed} max_n={self.max_n} "
               f"max_group={self.max_group}"]
        out.extend(r.line() for r in self.results)
        out.append("RESULT: " + ("all invariants hold" if self.ok
                                 else "INVARIANT VIOLATED"))
        return out

    def to_json(self):
        return {
            "schema": 1,
            "seed": self.seed,
            "max_n": self.max_n,
            "max_group": self.max_group,
            "ok": self.ok,
            "invariants": [
                {
                    "name": r.name,
                    "checked": r.checked,
                    "passed": r.passed,
                    "first_counterexample": (
                        None if r.failure is None
                        else {"instance": r.failure[0],
                              "detail": repr(r.failure[1])}),
                }
                for r in self.results
            ],
        }


def iter_family(max_n=5, seed=0, max_group=6):
    """The main instance family: every standard group, curated actions on
    carriers up to max_n, all subgroup chains, pooled bases and their
    saturations.  Yields (label, germ, basis), each germ's bases in one run.

    Each group's chains are validated once, and each action once: its
    germs over the chains are one germ rebound by `on_chain`, so they
    share one cache, and the bases that `saturate_uniformity` and
    `compute_ug` keep are shared by the chains too."""
    rng = random.Random(seed)
    pools = {n: basis_pool(Carrier(range(n)), rng) for n in range(1, max_n + 1)}
    for gname, group, gens in suite_groups(max_group):
        chains = [NeighborhoodBase(group, levels)
                  for levels in germ_chains(group)]
        for n in range(1, max_n + 1):
            carrier = Carrier(range(n))
            actions = curated_actions(gname, group, gens, n)
            for ai, act in enumerate(actions):
                base = GActionGerm(group, chains[0], carrier, act)
                for ci, ne in enumerate(chains):
                    germ = base.on_chain(ne)
                    seen = set()
                    for bi, u in enumerate(pools[n]):
                        label = f"{gname}/n{n}/act{ai}/chain{ci}/basis{bi}"
                        if u.basis not in seen:
                            seen.add(u.basis)
                            yield label, germ, u
                        sat = saturate_uniformity(germ, u)
                        if sat.basis not in seen:
                            seen.add(sat.basis)
                            yield label + "s", germ, sat


def _corrupt_basis(u):
    """Drop the lexicographically least diagonal pair from the first
    member inside all others (`least_entourage`), which stays inside all
    others: a deterministic defect that any sound comparison catches at
    the least nonempty subset pair."""
    k = u.basis.index(kept_least_entourage(u))
    masks = list(u.basis[k].image_masks)
    i = next(i for i, m in enumerate(masks) if m >> i & 1)
    masks[i] ^= 1 << i
    basis = list(u.basis)
    basis[k] = Rel.from_masks(u.carrier, masks)
    return UnifBase(u.carrier, basis)


def _corrupt_prox(p):
    """Toggle the first point in its own image: on a reflexive table
    {x0} becomes far from itself, a defect that any sound comparison
    catches at the pair ({x0}, {x0})."""
    f = list(p.map)
    f[0] ^= 1
    return meets_table(p.carrier, f)


def run_suite(max_n=5, seed=0, max_group=6, filters=None, inject=None):
    """Run every invariant family and aggregate the report.

    `filters` restricts to a nonempty subset of invariant names (None runs
    them all); `inject` plants a deterministic defect ("bracket", "nu" or
    "betag") to prove the suite catches corruption.  The filter selects
    records; a family runs whole or not at all, and one with no wanted
    invariant is skipped.  A run that could check nothing (no carrier, or
    no standard group) is refused.
    """
    if max_n < 1 or max_group < 2:
        raise ValueError("nothing to check: max_n must be at least 1 and "
                         "max_group at least 2")
    if max_n > DEFAULT_MAX_CARRIER:
        raise ResourceCap(f"the family carrier cap is {DEFAULT_MAX_CARRIER}")
    wanted = set(INVARIANTS if filters is None else filters)
    if not wanted:
        raise ValueError("empty invariant filter: name at least one invariant")
    unknown = wanted - set(INVARIANTS)
    if unknown:
        raise ValueError(f"unknown invariant filter: {sorted(unknown)[0]!r}")
    results = {name: InvariantResult(name) for name in INVARIANTS
               if name in wanted}
    settings = {"max_n": max_n, "seed": seed, "max_group": max_group,
                "inject": inject}
    for family, names in FAMILIES:
        if not wanted.isdisjoint(names):
            for name, ok, label, detail in family(**settings):
                if name in results:
                    results[name].record(ok, label, detail)
    return SuiteReport(seed, max_n, max_group, list(results.values()))


def _main_family(max_n, seed, max_group, inject):
    # The library scans keep their results in the action's shared germ
    # cache, keyed by the values they read; each label is still recorded,
    # and the two sides of an identity are still computed apart.  A germ's
    # bases come in one run, so its checks run at its first.  Every basis
    # the family yields is valid, and none is skipped.
    last_germ = None
    discrete = {}  # one discrete basis per carrier, so its report is kept
    for label, germ, u in iter_family(max_n, seed, max_group):
        cls = classify(germ, u)
        # Composite-verdict inclusion: equiuniform is the stronger notion.
        yield ("gprox", not cls.equiuniform or cls.pi_uniform,
               label + "/inclusion", None)

        if germ is not last_germ:
            last_germ = germ
            yield from _per_germ_checks(label, germ, inject, discrete)

        if not (cls.pi_uniform and cls.action_continuous):
            continue

        nu = nu_proximity(germ, u)
        if inject == "nu":
            nu = _corrupt_prox(nu)
        ug = compute_ug(germ, u)
        if inject == "bracket":
            ug = _corrupt_basis(ug)

        mismatch = first_pair(nu, from_uniformity(ug), xor)
        yield "tgprox", mismatch is None, label, mismatch
        vb = validate_basis(ug)
        ug_cls = classify(germ, ug)
        ok = vb.ok() and ug_cls.bounded
        detail = None
        if not vb.ok():
            detail = f"basis {vb.failures()[0]}"
        elif not ug_cls.bounded:
            detail = "derived basis not bounded"
        if ok and cls.saturated and not ug_cls.saturated:
            ok, detail = False, "saturation not preserved"
        if ok and not refinement_equivalent(u, ug):
            ok, detail = False, "not refinement-equivalent under pi-uniformity"
        yield "ugclaims", ok, label, detail
        inv, invw = is_g_invariant(nu, germ)
        comp, compw = is_action_compatible(nu, germ)
        yield "gprox", inv and comp, label, invw or compw
        if cls.equiuniform:
            delta_u = from_uniformity(u)
            inv2, w2 = is_g_invariant(delta_u, germ)
            comp2, w22 = is_action_compatible(delta_u, germ)
            yield "gprox", inv2 and comp2, label + "/base", w2 or w22
        ok, wit = semigroup_upgrade(nu, germ)
        yield "semigr", ok, label, wit
        if germ.carrier.n <= 4:
            verdicts = germ._kept(_maximality, from_uniformity(u).map, nu.map,
                                  germ.masks[-1], germ.inverse_masks(-1))
            for ri, ok in verdicts:
                yield "maximality", ok, f"{label}/cand{ri}", None


def _per_germ_checks(label, germ, inject, discrete):
    bg = beta_g_proximity(germ)
    if inject == "betag":
        bg = _corrupt_prox(bg)
    carrier = germ.carrier
    if carrier not in discrete:
        discrete[carrier] = discrete_basis(carrier)
    mismatch = first_pair(bg, nu_proximity(germ, discrete[carrier]), xor)
    yield "betag", mismatch is None, label, mismatch
    ok, wit = semigroup_upgrade(bg, germ)
    yield "semigr", ok, label + "/betag", wit
    rep = check_equinormal(germ)
    yield "equinormal", rep.equinormal and rep.agree, label, None
    # The subgroups read only the group: listed once per action, in the
    # cache its germs share.
    group = germ.group
    for h in germ._kept(_subgroups):
        if (group.product_set(h, germ.deepest)
                != frozenset(range(group.order))):
            continue
        if not deepest_orbits_coincide(germ, h):
            continue
        agree, _full, _restr = betag_on_subgroup_agrees(germ, sorted(h))
        yield ("densesub", agree,
               f"{label}/H={sorted(group.names[i] for i in h)}", None)


def _maximality(a, base_map, nu_map, lem, inv):
    """(index, whether ν dominates it) for each G-proximity candidate
    (`equivariant._candidates`, by the deepest point masks lem and inv)
    that δ_U dominates, ν and δ_U being the tables of nu_map and
    base_map; kept per action, since the settings of its chains repeat
    these maps."""
    base = meets_table(a.carrier, base_map)
    nu = meets_table(a.carrier, nu_map)
    return [(ri, dominates(nu, rho))
            for ri, rho in enumerate(a._kept(_candidates, lem, inv))
            if dominates(base, rho)]


def _subgroups(a):
    """The subgroups of the action's group, which `_per_germ_checks` keeps."""
    return a.group.subgroups()


# ---------------------------------------------------------------------------
# Axiom family


def _graph_proximity(carrier, rng):
    """near(A, B) iff some edge of a random reflexive symmetric point graph
    joins them.  Satisfies P1-P4 by construction; P5 holds exactly when the
    graph is transitive, which random graphs routinely violate, so these
    exercise the P5/P5' agreement in both directions."""
    n = carrier.n
    adj = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return meets_table(carrier, adj)


def _random_valid_basis(carrier, rng):
    theta = _random_partition(carrier, rng)
    if rng.random() < 0.5:
        return UnifBase(carrier, [theta])
    eps = _random_reflexive_superset(carrier, theta, rng, p=0.25)
    return UnifBase(carrier, [theta, eps])


def _axiom_family(max_n, seed, **_):
    rng = random.Random(seed + 1)
    # Exhaustive tier: every pooled valid basis on small carriers.
    for n in range(1, min(max_n, 5) + 1):
        for bi, u in enumerate(basis_pool(Carrier(range(n)), rng)):
            ok, detail = _axiom_checks(u)
            yield "axioms", ok, f"axioms/n{n}/basis{bi}", detail
    # Random tier: seeded instances on carriers 6..8.
    per_size = (334, 333, 333)
    for k, n in enumerate((6, 7, 8)):
        carrier = Carrier(range(n))
        for t in range(per_size[k]):
            ok, detail = _axiom_checks(_random_valid_basis(carrier, rng))
            yield "axioms", ok, f"axioms/n{n}/rand{t}", detail
    # P5/P5' agreement on relations that may genuinely fail both.  At
    # n <= 4 every verdict is first held to its definition; a graph table
    # satisfies P1-P4 by construction, so one reported to fail them fails
    # the check.
    for n in (3, 4, 5):
        carrier = Carrier(range(n))
        for t in range(40):
            p = _graph_proximity(carrier, rng)
            rep = check_axioms(p)
            detail = _definition_mismatch(p, rep)
            if detail is None:
                if not rep.ok(("P1", "P2", "P3", "P4")):
                    detail = f"{rep.failures()[0]} fails"
                elif rep.passed("P5") != rep.passed("P5prime"):
                    detail = "P5/P5' disagree"
            yield "axioms", detail is None, f"axioms/graph/n{n}/{t}", detail


def _axiom_checks(u):
    """(ok, detail): the axioms of u's proximity, P6 against the diagonal
    criterion, P5 against P5', and at n <= 4 every map verdict against
    its definition."""
    p = from_uniformity(u)
    rep = check_axioms(p)
    if not rep.ok(P1_P5):
        return False, f"{rep.failures()[0]} fails"
    if rep.passed("P6") != is_hausdorff(u):
        return False, "P6 does not match the diagonal criterion"
    if rep.passed("P5") != rep.passed("P5prime"):
        return False, "P5/P5' disagree"
    detail = _definition_mismatch(p, rep)
    return detail is None, detail


def _definition_mismatch(p, rep):
    """The first of P1, P2, P5 and P5' whose verdict or counterexample in
    the report `rep` of p differs from `_defined_counterexamples(p)`, as
    a detail line, or None; carriers past 4 points are not read."""
    if p.carrier.n > 4:
        return None
    defined = _defined_counterexamples(p)
    for name, cex in defined.items():
        if (rep.passed(name), rep.counterexample(name)) != (cex is None, cex):
            return f"{name} differs from its definition"
    return None


def _defined_counterexamples(p):
    """The first counterexample (A, B) of P1, P2, P5 and P5', or None,
    read off the definitions over every subset pair and cut set, with
    near(A, B) iff B meets the union of the map's values over A.  A set
    of subsets is a bitmask over subset indices:

      far[a]    the B far from A
      cuts[b]   the cut sets C with X \\ C far from B
      strong[a] the strong neighborhoods A1 of A (A far from X \\ A1)
      apart[b]  the sets disjoint from some strong neighborhood of B

    P5 asks a far pair for a C with A far from C and X \\ C far from B,
    P5' for disjoint strong neighborhoods.  This is the axiom family's
    second side to `check_axioms`, which shares none of this code; its
    quantifier volume is 8**n, so it is run on small carriers only.
    """
    f, n = p.map, p.carrier.n
    full = (1 << n) - 1
    subsets = range(full + 1)
    image = [reduce(or_, (f[x] for x in range(n) if a >> x & 1), 0)
             for a in subsets]
    far = [sum(1 << b for b in subsets if not b & image[a])
           for a in subsets]
    cuts = [sum(1 << c for c in subsets if far[full ^ c] >> b & 1)
            for b in subsets]
    strong = [sum(1 << (full ^ c) for c in subsets if far[a] >> c & 1)
              for a in subsets]
    disjoint = [sum(1 << s for s in subsets if not s & t) for t in subsets]
    apart = [reduce(or_, (disjoint[t] for t in subsets
                          if strong[b] >> t & 1), 0) for b in subsets]
    bad = {
        "P1": [sum(1 << b for b in subsets if a & b and far[a] >> b & 1)
               for a in subsets],
        "P2": [sum(1 << b for b in subsets
                   if not far[a] >> b & 1 and far[b] >> a & 1)
               for a in subsets],
        "P5": [sum(1 << b for b in subsets
                   if far[a] >> b & 1 and not far[a] & cuts[b])
               for a in subsets],
        "P5prime": [sum(1 << b for b in subsets
                        if far[a] >> b & 1 and not strong[a] & apart[b])
                    for a in subsets],
    }
    subset = p.carrier.mask_subset
    return {name: next(((subset(a), subset((m & -m).bit_length() - 1))
                        for a, m in enumerate(masks) if m), None)
            for name, masks in bad.items()}


# ---------------------------------------------------------------------------
# Rationals family


# num/den at index num + 2 * den, for den 1 and 2 and |num| <= 2 * den.
_FRACTIONS = {d: [Fraction(n, d) for n in range(-2 * d, 2 * d + 1)]
              for d in (1, 2)}


def _random_fraction(rng):
    den = rng.choice((1, 2))
    num = rng.randint(-2 * den, 2 * den)
    return _FRACTIONS[den][num + 2 * den]


def _random_chain(rng, max_len=4):
    vals = {_random_fraction(rng) for _ in range(rng.randint(0, max_len))}
    return rat.Chain(tuple(sorted(vals)))


def _random_ratset(rng, max_atoms=3):
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if rng.random() < 0.4:
            atoms.append(("pt", _random_fraction(rng)))
        else:
            a, b = _random_fraction(rng), _random_fraction(rng)
            if a == b:
                b = a + 1
            lo, hi = min(a, b), max(a, b)
            if rng.random() < 0.15:
                lo = rat.NEG_INF
            if rng.random() < 0.15:
                hi = rat.POS_INF
            atoms.append(("iv", lo, hi))
    return rat.RatSet(atoms)


def _rationals_family(seed, **_):
    rng = random.Random(seed + 2)

    # Cell-count law, exhaustive in chain length.
    for m in range(11):
        chain = rat.Chain(tuple(Fraction(k) for k in range(m)))
        yield ("rationals", len(rat.orbit_space(chain).cells) == 2 * m + 1,
               f"rat/cells/{m}", None)
    for t in range(50):
        chain = _random_chain(rng, max_len=10)
        yield ("rationals",
               len(rat.orbit_space(chain).cells) == 2 * len(chain) + 1,
               f"rat/cells/rand{t}", None)

    # Towers over the small grid; build_tower raises on any bonding defect.
    fixed = [
        [rat.Chain(())],
        [rat.Chain(()), rat.Chain((Fraction(0),)),
         rat.Chain((Fraction(0), Fraction(1)))],
        [rat.Chain((Fraction(0),)), rat.Chain((Fraction(1),)),
         rat.Chain((Fraction(0), Fraction(1)))],
    ]
    for ti, chains in enumerate(fixed):
        try:
            rat.build_tower(chains)
        except Exception as exc:  # noqa: BLE001 - counterexample reporting
            yield "rationals", False, f"rat/tower/fixed{ti}", exc
        else:
            yield "rationals", True, f"rat/tower/fixed{ti}", None
    for t in range(150):
        chains = [_random_chain(rng) for _ in range(rng.randint(1, 4))]
        try:
            rat.build_tower(chains).threads()
        except Exception as exc:  # noqa: BLE001
            yield "rationals", False, f"rat/tower/rand{t}", exc
        else:
            yield "rationals", True, f"rat/tower/rand{t}", None

    # Farness fixtures with verified-disjoint saturations.
    fixtures = [
        (rat.RatSet.point(0), rat.RatSet.point(1)),
        (rat.RatSet.interval(0, 1), rat.RatSet.point(1)),
        (rat.RatSet.interval(0, 1), rat.RatSet.interval(1, 2)),
    ]
    for fi, (a, b) in enumerate(fixtures):
        verdict = rat.decide_far(a, b)
        ok = verdict.far and not rat.saturate(verdict.witness, a).intersects(
            rat.saturate(verdict.witness, b))
        yield "rationals", ok, f"rat/far/fixture{fi}", verdict
    for t in range(100):
        a, b = _random_ratset(rng), _random_ratset(rng)
        if not a.intersects(b):
            continue
        verdict = rat.decide_far(a, b)
        yield ("rationals", not verdict.far, f"rat/far/near{t}",
               (str(a), str(b)))

    # Saturation monotonicity: bigger chains, smaller saturations.
    for t in range(1000):
        big = _random_chain(rng, max_len=5)
        small = rat.Chain(tuple(sorted(
            p for p in big.points if rng.random() < 0.6)))
        a = _random_ratset(rng)
        ok = rat.saturate(big, a).issubset(rat.saturate(small, a))
        yield ("rationals", ok, f"rat/monotone/{t}",
               (str(small), str(big), str(a)))

    # Endpoint completeness: the chain of all endpoints of two disjoint
    # sets saturates each of them to itself.
    found = 0
    t = 0
    while found < 200 and t < 2000:
        t += 1
        a = _random_ratset(rng)
        b = _random_ratset(rng)
        if a.is_empty or b.is_empty or a.intersects(b):
            continue
        found += 1
        full = rat.Chain.of(a.endpoints() + b.endpoints())
        ok = rat.saturate(full, a) == a and rat.saturate(full, b) == b
        yield "rationals", ok, f"rat/endpoint/{found}", (str(a), str(b))


def _ordcomp_family(seed, **_):
    rng = random.Random(seed + 3)
    for done in range(1, 501):
        o = _random_convex(rng)
        a = _random_subset_of(o, rng)
        claim = rat.check_ordcomp_claim(a, o)
        ok = (not claim.alarm) and rat.saturate(claim.witness, a).issubset(o)
        yield "ordcomp", ok, f"ordcomp/{done}", (str(a), str(o))


def _random_convex(rng):
    kind = rng.random()
    if kind < 0.1:
        return rat.RatSet.interval(rat.NEG_INF, rat.POS_INF)
    a, b = _random_fraction(rng), _random_fraction(rng)
    if a == b:
        b = a + 2
    lo, hi = min(a, b), max(a, b)
    atoms = [("iv", lo, hi)]
    if rng.random() < 0.4:
        atoms.append(("pt", lo))
    if rng.random() < 0.4:
        atoms.append(("pt", hi))
    if kind < 0.2:
        atoms = [("iv", rat.NEG_INF, hi)] + (
            [("pt", hi)] if rng.random() < 0.5 else [])
    elif kind < 0.3:
        atoms = [("iv", lo, rat.POS_INF)] + (
            [("pt", lo)] if rng.random() < 0.5 else [])
    return rat.RatSet(atoms)


def _random_subset_of(o, rng):
    comps = o.components()
    atoms = []
    for lo, lo_in, hi, hi_in in comps:
        if lo_in and rng.random() < 0.5:
            atoms.append(("pt", lo))
        if hi_in and rng.random() < 0.5:
            atoms.append(("pt", hi))
        if lo == rat.NEG_INF or hi == rat.POS_INF:
            continue
        if hi - lo > 0 and rng.random() < 0.8:
            span = hi - lo
            q1 = lo + span * Fraction(rng.randint(0, 3), 4)
            q2 = lo + span * Fraction(rng.randint(1, 4), 4)
            if q1 < q2:
                atoms.append(("iv", q1, q2))
            elif rng.random() < 0.5:
                mid = lo + span / 2
                atoms.append(("pt", mid))
    return rat.RatSet(atoms)


# ---------------------------------------------------------------------------
# Metric family


def _metric_matrices(n):
    """All symmetric matrices with off-diagonal values in {1, 2}; any such
    assignment satisfies the triangle inequality."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(slots)):
        m = [[Fraction(0)] * n for _ in range(n)]
        for k, (i, j) in enumerate(slots):
            v = Fraction(2) if bits >> k & 1 else Fraction(1)
            m[i][j] = m[j][i] = v
        yield m


def _metric_family(max_group, **_):
    groups = [g for g in suite_groups(max_group) if g[0] in ("Z2", "Z4", "S3")]
    # Chains are validated once.  Each matrix gets one fresh germ per
    # (group, action), whose cache its chains share (`on_chain`), and one
    # table per derived basis (`compute_ug` returns kept bases again, and
    # `from_uniformity` keeps its table on the basis).  The sublevel basis
    # keeps each level's brackets by that level's point masks, so chains
    # and actions that reach a level share its brackets, and the metric
    # keeps its zero hulls.
    chains = {gname: [NeighborhoodBase(group, levels)
                      for levels in germ_chains(group)]
              for gname, group, _gens in groups}
    for n in (1, 2, 3, 4):
        carrier = Carrier(range(n))
        actions = [(f"{gname}/act{ai}", group, chains[gname], act)
                   for gname, group, gens in groups
                   for ai, act in enumerate(
                       curated_actions(gname, group, gens, n))]
        for mi, matrix in enumerate(_metric_matrices(n)):
            metric = FiniteMetric(carrier, matrix)
            u = metric_uniformity(metric)
            for name, group, nes, act in actions:
                base = GActionGerm(group, nes[0], carrier, act)
                for ci, ne in enumerate(nes):
                    label = f"metric/n{n}/m{mi}/{name}/chain{ci}"
                    germ = base.on_chain(ne)
                    cls = classify(germ, u)
                    if not cls.pi_uniform:
                        # Isometric actions must pass without hypotheses.
                        if (cls.uniformly_equicontinuous
                                and is_isometric(metric, germ)):
                            yield ("metric", False, label,
                                   "isometric action not pi-uniform")
                        continue
                    mg = metric_g_proximity(metric, germ)
                    ug = compute_ug(germ, u)
                    mismatch = first_pair(mg, from_uniformity(ug), xor)
                    yield "metric", mismatch is None, label, mismatch


# ---------------------------------------------------------------------------
# Pseudometric family checks


def _sigma_family(seed, max_group, **_):
    rng = random.Random(seed + 4)
    groups = suite_groups(max_group)
    for n in (3, 4):
        carrier = Carrier(range(n))
        matrices = list(_metric_matrices(n))
        for gname, group, gens in groups:
            chains = germ_chains(group)
            actions = curated_actions(gname, group, gens, n)
            for t in range(6):
                members = [rng.choice(matrices)]
                if rng.random() < 0.5:
                    members.append(rng.choice(matrices))
                fam = PseudometricFamily(carrier, members)
                act = actions[rng.randrange(len(actions))]
                levels = chains[rng.randrange(len(chains))]
                germ = GActionGerm(group, NeighborhoodBase(group, levels),
                                   carrier, act)
                subs = [frozenset({group.e}),
                        frozenset(range(group.order))]
                if len(germ.deepest) > 1:
                    subs.append(germ.deepest)
                label = f"sigma/n{n}/{gname}/{t}"
                # Worst-case matrices must stay pseudometrics (trap check);
                # xi_report reads them, so a trap fails this instance with
                # the first trap's message, not the run.
                sups, traps = [], []
                for si, s in enumerate(subs):
                    for i in range(len(fam.members)):
                        try:
                            sups.append(sup_pseudometric(fam, germ, s, i))
                        except InternalCheckFailure as exc:
                            traps.append(str(exc))
                            yield ("sigma", False, f"{label}/sup{si}.{i}",
                                   traps[-1])
                        else:
                            yield "sigma", True, f"{label}/sup{si}.{i}", None
                if traps:
                    yield "sigma", False, label, traps[0]
                else:
                    rep = xi_report(fam, germ, subs, sups)
                    yield "sigma", rep.ok(), label, rep.lines()


# Each family with the invariants it records, in report order.  A family
# takes the run's settings by keyword and reads the ones it needs.
FAMILIES = (
    (_main_family, ("tgprox", "betag", "ugclaims", "gprox", "semigr",
                    "maximality", "equinormal", "densesub")),
    (_axiom_family, ("axioms",)),
    (_rationals_family, ("rationals",)),
    (_ordcomp_family, ("ordcomp",)),
    (_metric_family, ("metric",)),
    (_sigma_family, ("sigma",)),
)
INVARIANTS = tuple(name for _family, names in FAMILIES for name in names)
