"""The tower layer against the value-based construction.

`bonding_map` reads cell indices from chain positions, `build_tower`
closes under union one input chain at a time, `_validate_tower` pairs
each map only with the maps out of its target, and `_covers` and
`Tower.threads` read inclusion from the keys of the map table.  Each must
agree with the originals kept in `rationals_reference.py`: maps and
precondition messages, levels, map tables in insertion order, threads,
DOT text, the cap error, and the validator's first failure on corrupted
map tables.  `saturate` must give the union of the cells that hold a
sample point of the set, the oracle that `_cells_hit` is checked against
too.

`intersects`, `issubset` and `saturate` are merges of sorted lists that
share `_below`, which is checked on every pair of grid atoms; each merge
must agree with the all-pairs body kept in `rationals_reference.py`, on
the grid sets and on seeded interleaved sets of up to 2,000 atoms, and
the one-pass `components` that `issubset` merges over must equal the
two-pass fusion kept there.

`decide_far` and `check_ordcomp_claim` share one pass over the cells of
the chain of all endpoints (`_separating_chain`, which locates cells by
bisection in `_cells_hit`); a claim searches A against `_outside(o)`, the
complement of O.  Each must give the verdict, witness or exception of the
chain-by-chain searches kept in `rationals_reference.py`, wherever those
end within their chain cap.  A claim's pool drops the points at which O
is split into atoms inside itself, which cannot change the first witness:
a first witness holding such a point p can trade it for the nearest
endpoint of A below p or for the lower end of O, a smaller chain of the
same size that also separates.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from rationals_reference import _covers_reference, \
    _validate_tower_reference, atoms_intersect_reference, \
    bonding_map_reference, build_tower_reference, \
    check_ordcomp_claim_reference, components_reference, \
    decide_far_reference, intersects_reference, issubset_reference, \
    normalize_reference, saturate_reference, threads_reference, \
    tower_dot_reference

from eqprox import suite
from eqprox.errors import ResourceCap
from eqprox.rationals import NEG_INF, POS_INF, Chain, RatSet, _below, \
    _cells_hit, _covers, _normalize, _outside, _validate_tower, bonding_map, \
    build_tower, check_ordcomp_claim, decide_far, orbit_space, parse_ratset, \
    saturate, tower_dot

GRID = (F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1))
GRID_CHAINS = [Chain(c) for k in range(len(GRID) + 1)
               for c in combinations(GRID, k)]


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of the verdict
        return (type(exc).__name__, str(exc))


def test_normalize_against_the_point_by_interval_scan():
    # Random atom lists over a small grid, so that points fall on
    # endpoints and inside, and intervals nest, touch, overlap and run to
    # the infinities.  One pass by start keeps each atom against the last
    # one kept; the reference tests each point against every merged
    # interval.
    rng = random.Random(11)
    values = [NEG_INF] + [F(k, 2) for k in range(-4, 5)] + [POS_INF]
    for _ in range(3000):
        atoms = []
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.5:
                atoms.append(("pt", rng.choice(values[1:-1])))
            else:
                lo, hi = sorted(rng.sample(values, 2))
                atoms.append(("iv", lo, hi))
        assert _normalize(atoms) == normalize_reference(atoms)


def test_bonding_map_on_every_pair_of_grid_chains():
    nested = 0
    for big in GRID_CHAINS:
        for small in GRID_CHAINS:
            got = outcome(bonding_map, big, small)
            assert got == outcome(bonding_map_reference, big, small)
            nested += got[0] == "ok"
    assert nested == 3 ** len(GRID)


def test_saturate_on_every_grid_chain():
    # Atoms with endpoints on, between and outside the chain points; the
    # saturation is the union of the cells a sample point of the set is in.
    rng = random.Random(11)
    sets = [RatSet([a]) for a in GRID_ATOMS] + [
        RatSet(rng.sample(GRID_ATOMS, rng.randint(2, 4))) for _ in range(150)]
    for chain in GRID_CHAINS:
        cells = orbit_space(chain).cells
        for s in sets:
            qs = [q for q in samples(chain, s) if member(s, q)]
            want = [c for c in cells if any(member(RatSet([c]), q) for q in qs)]
            assert saturate(chain, s).atoms == RatSet(want).atoms


def assert_same_tower(chains):
    got = outcome(build_tower, chains)
    want = outcome(build_tower_reference, chains)
    if want[0] != "ok":
        assert got == want
        return want[0]
    tower, ref = got[1], want[1]
    assert tower.levels == ref.levels
    assert list(tower.maps.items()) == list(ref.maps.items())
    assert tower.threads() == threads_reference(ref)
    if len(ref.levels) <= 16:  # the DOT text already covers the map keys
        pairs = [(i, j) for i in range(len(ref.levels))
                 for j in range(len(ref.levels))]
        assert [_covers(tower, i, j) for i, j in pairs] == \
            [_covers_reference(ref, i, j) for i, j in pairs]
    assert tower_dot(tower) == tower_dot_reference(ref)
    return "ok"


def random_chain(rng, values):
    return Chain(tuple(sorted(rng.sample(values, rng.randint(0, 3)))))


def test_random_families_of_one_to_seven_chains():
    rng = random.Random(13)
    values = [F(n, 2) for n in range(-4, 5)]
    seen = set()
    for _ in range(120):
        chains = [random_chain(rng, values)
                  for _ in range(rng.randint(1, 7))]
        seen.add(assert_same_tower(chains))
    assert seen == {"ok", "ResourceCap"}


@pytest.mark.parametrize("k", range(9))
def test_singleton_families_up_to_and_past_the_cap(k):
    chains = [Chain((F(i),)) for i in range(k)]
    assert assert_same_tower(chains) == ("ok" if k < 7 else "ResourceCap")


@pytest.mark.parametrize("top, verdict", [(7, "ok"), (8, "ResourceCap")])
def test_cap_boundary(top, verdict):
    # Six singletons close to 63 levels; {0..6} adds one level above them
    # all (64, at the cap) and {0..7} one more above that (65).
    chains = [Chain((F(i),)) for i in range(6)]
    chains += [Chain(tuple(F(i) for i in range(m))) for m in range(7, top + 1)]
    assert assert_same_tower(chains) == verdict


def test_raw_chain_inputs_are_sorted_and_deduplicated():
    assert assert_same_tower([[F(1), F(0), F(1)], (F(-1, 2),), []]) == "ok"


def corrupt(rng, maps):
    """A copy of a valid map table with one random defect, in the same or
    a shuffled insertion order."""
    out = dict(maps)
    kind = rng.randrange(5)
    # Maps that neither are identities nor collapse everything to one cell.
    proper = [k for k, m in maps.items() if 0 < max(m) < len(m) - 1]
    key = rng.choice(proper if kind == 3 and proper else list(maps))
    m = list(out[key])
    if kind == 0:
        m[rng.randrange(len(m))] += rng.choice((-1, 1))
    elif kind == 1:
        a, b = rng.randrange(len(m)), rng.randrange(len(m))
        m[a], m[b] = m[b], m[a]
    elif kind == 2:
        m = [min(v, max(m) - 1) for v in m] if max(m) else m
    elif kind == 3:
        # Another monotone map onto the same cells: only the composition
        # check can see it.
        cuts = rng.sample(range(1, len(m)), max(m))
        m = [sum(c <= p for c in cuts) for p in range(len(m))]
    else:
        del out[key]
        m = None
    if m is not None:
        out[key] = tuple(m)
    if rng.random() < 0.3:
        keys = list(out)
        rng.shuffle(keys)
        out = {k: out[k] for k in keys}
    return out


TRAPS = ("not surjective", "not monotone", "do not compose through")


def test_validator_verdict_on_corrupted_map_tables():
    rng = random.Random(29)
    values = [F(n, 2) for n in range(-2, 4)]
    verdicts = set()
    for _ in range(600):
        chains = [random_chain(rng, values) for _ in range(rng.randint(2, 4))]
        try:
            tower = build_tower(chains)
        except ResourceCap:
            continue
        maps = corrupt(rng, tower.maps)
        got = outcome(_validate_tower, tower.levels, maps)
        assert got == outcome(_validate_tower_reference, tower.levels, maps)
        verdicts.add(got[0] if got[0] != "InternalCheckFailure" else
                     next(word for word in TRAPS if word in got[1]))
    assert verdicts >= {"ok", *TRAPS}


def member(s, q):
    return any(a[1] == q if a[0] == "pt" else a[1] < q < a[2]
               for a in s.atoms)


def samples(*sets_and_chains):
    """Rationals that meet every nonempty intersection of cells and sets
    with these endpoints: the endpoints, the midpoints between them and
    one point beyond each end."""
    vals = sorted({v for x in sets_and_chains for v in (
        x.points if isinstance(x, Chain) else x.endpoints())})
    if not vals:
        return [F(0)]
    mids = [(p + q) / 2 for p, q in zip(vals, vals[1:])]
    return vals + mids + [vals[0] - 1, vals[-1] + 1]


GRID_SETS_RNG = random.Random(17)
GRID_VALUES = sorted({F(k, 4) for k in range(-8, 7)} | set(GRID))
GRID_ATOMS = [("pt", q) for q in GRID_VALUES] + [
    ("iv", lo, hi) for lo, hi in
    combinations([NEG_INF] + GRID_VALUES + [POS_INF], 2)]
GRID_SETS = [RatSet()] + [RatSet([a]) for a in GRID_ATOMS] + [
    RatSet(GRID_SETS_RNG.sample(GRID_ATOMS, GRID_SETS_RNG.randint(2, 4)))
    for _ in range(40)]


def test_cells_hit_are_the_cells_meeting_the_set():
    for chain in GRID_CHAINS:
        cells = orbit_space(chain).cells
        for s in GRID_SETS:
            qs = [q for q in samples(chain, s) if member(s, q)]
            want = {i for i, c in enumerate(cells)
                    if any(member(RatSet([c]), q) for q in qs)}
            assert _cells_hit(chain.points, s) == want


def test_below_on_every_pair_of_grid_atoms():
    # Two convex atoms meet iff neither lies wholly below the other, and
    # x lies wholly below y iff every point of x is less than every point
    # of y.
    qs = samples(Chain(tuple(GRID_VALUES)))
    held = {x: [q for q in qs if member(RatSet([x]), q)] for x in GRID_ATOMS}
    kinds = set()
    for x in GRID_ATOMS:
        for y in GRID_ATOMS:
            below = _below(x, y)
            meets = atoms_intersect_reference(x, y)
            assert meets == (not below and not _below(y, x))
            assert below == (not meets and max(held[x]) < min(held[y]))
            kinds.add((below, meets))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_intersects_and_issubset_on_the_grid_sets():
    verdicts = set()
    for a in GRID_SETS:
        assert a.components() == components_reference(a)
        for b in GRID_SETS:
            meets, inside = a.intersects(b), a.issubset(b)
            assert meets == intersects_reference(a, b)
            assert inside == issubset_reference(a, b)
            verdicts.add((meets, inside))
    assert len(verdicts) == 4


def interleaved_sets(rng, size):
    """Two disjoint sets of `size` atoms in all over `size + 1` sorted
    values: each atom a value or the gap above it, dealt to either set,
    so that the sets interleave and a point and the gap it opens are
    often fused into one component."""
    values = sorted(F(v, 3) for v in rng.sample(range(-4 * size, 4 * size),
                                                size + 1))
    a, b = [], []
    for lo, hi in zip(values, values[1:]):
        rng.choice((a, b)).append(
            ("pt", lo) if rng.random() < 0.5 else ("iv", lo, hi))
    return RatSet(a), RatSet(b)


@pytest.mark.parametrize("size", [1, 2, 10, 100, 2000])
def test_merges_on_interleaved_sets(size):
    rng = random.Random(29 + size)
    a, b = interleaved_sets(rng, size)
    # One shared grid atom makes them meet, a sample of a's atoms is
    # inside a, and one more atom of b takes it out again.
    c = RatSet(b.atoms + (rng.choice(GRID_ATOMS),))
    sub = RatSet(rng.sample(a.atoms, len(a.atoms) // 2))
    out = RatSet(sub.atoms + b.atoms[:1])
    for x, y in ((a, b), (a, c), (sub, a), (out, a), (a, sub),
                 (b, RatSet(a.atoms + b.atoms))):
        assert x.components() == components_reference(x)
        assert x.intersects(y) == intersects_reference(x, y)
        assert x.issubset(y) == issubset_reference(x, y)
    assert not a.intersects(b) and sub.issubset(a)
    pool = sorted(set(a.endpoints() + b.endpoints()))
    for k in (0, 1, 50):
        chain = Chain(tuple(sorted(rng.sample(pool, min(k, len(pool))))))
        for s in (a, b, c):
            assert saturate(chain, s).atoms == \
                saturate_reference(chain, s).atoms


def convex_targets(rng):
    """Convex sets from the suite's generator, convex unions of at most
    four grid atoms, grid intervals split into atoms at up to two inner
    points, and the edge cases."""
    out = [suite._random_convex(rng) for _ in range(200)]
    for _ in range(1000):
        o = RatSet(rng.sample(GRID_ATOMS, rng.randint(0, 4)))
        if o.is_convex:
            out.append(o)
    ends = [NEG_INF] + GRID_VALUES + [POS_INF]
    for _ in range(150):
        lo, hi = sorted(rng.sample(ends, 2))
        cuts = sorted(v for v in rng.sample(GRID_VALUES, 2) if lo < v < hi)
        bounds = [lo, *cuts, hi]
        atoms = [("iv", p, q) for p, q in zip(bounds, bounds[1:])]
        atoms += [("pt", v) for v in cuts]
        atoms += [("pt", v) for v in (lo, hi)
                  if v in GRID_VALUES and rng.random() < 0.5]
        out.append(RatSet(atoms))
    out += [parse_ratset(t) for t in (
        "{}", "{0}", "(-inf,inf)", "(-inf,0)", "(-inf,0),{0}", "(0,inf)",
        "{0},(0,inf)", "(0,1)", "{0},(0,1),{1}", "(0,1/2),{1/2},(1/2,1)",
        "(-inf,0),{0},(0,inf)", "{0},(0,1),{1},(1,2)")]
    return out


def test_outside_is_the_complement_of_a_convex_set():
    rng = random.Random(19)
    everything = RatSet.interval(NEG_INF, POS_INF)
    for o in convex_targets(rng):
        out = _outside(o)
        assert not out.intersects(o)
        assert RatSet(o.atoms + out.atoms) == everything
        for q in samples(o, out):
            assert member(o, q) != member(out, q)


def test_decide_far_against_the_chain_by_chain_search():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(3000):
        a, b = suite._random_ratset(rng, 4), suite._random_ratset(rng, 4)
        got = outcome(decide_far, a, b)
        assert got == outcome(decide_far_reference, a, b)
        verdicts.add(got[1].far)
    assert verdicts == {False, True}


def test_decide_far_at_the_cap_against_the_chain_by_chain_search():
    # No chain of fewer than 7 of the 14 endpoints separates these, so
    # the chain-by-chain search stops at its cap; the pass does not.
    a = RatSet([("pt", F(k)) for k in range(0, 14, 2)])
    b = RatSet([("pt", F(k)) for k in range(1, 14, 2)])
    assert outcome(decide_far_reference, a, b) == (
        "ResourceCap", "far search needs more than 4096 chains")
    verdict = decide_far(a, b)
    assert verdict.far and verdict.witness == Chain(tuple(a.endpoints()))
    assert not saturate(verdict.witness, a).intersects(
        saturate(verdict.witness, b))


THREE_CELLS = orbit_space(Chain((F(-1), F(0), F(1, 2)))).cells


def test_every_cell_assignment_over_three_endpoints():
    # Each of the 7 cells goes to a, to b or to neither: 3**7 pairs.
    witnesses = set()
    for owners in product("ab-", repeat=len(THREE_CELLS)):
        a, b = (RatSet([c for c, o in zip(THREE_CELLS, owners) if o == s])
                for s in "ab")
        got = outcome(decide_far, a, b)
        assert got == outcome(decide_far_reference, a, b)
        witnesses.add(len(got[1].witness))
    assert witnesses == {0, 1, 2, 3}


def test_every_claim_from_runs_of_cells_over_three_endpoints():
    # O is a run of consecutive cells, A any union of cells inside it.
    sizes = set()
    n = len(THREE_CELLS)
    for lo, hi in combinations(range(n + 1), 2):
        run = THREE_CELLS[lo:hi]
        o = RatSet(run)
        for picks in product((False, True), repeat=len(run)):
            a = RatSet([c for c, pick in zip(run, picks) if pick])
            got = outcome(check_ordcomp_claim, a, o)
            assert got == outcome(check_ordcomp_claim_reference, a, o)
            sizes.add(len(got[1].witness))
    assert sizes == {0, 1, 2}


def test_claims_against_the_chain_by_chain_search():
    rng = random.Random(23)
    verdicts = set()
    for o in convex_targets(rng):
        inside = [c for c in GRID_ATOMS if RatSet([c]).issubset(o)]
        subsets = [suite._random_subset_of(o, rng), RatSet()]
        subsets += [RatSet(rng.sample(inside, min(len(inside), k)))
                    for k in (1, 2, 3)]
        # Sets that are not inside O, or targets that are not convex.
        subsets.append(RatSet(rng.sample(GRID_ATOMS, 2)))
        for a in subsets:
            for target in (o, RatSet(o.atoms + (("pt", F(7)),))):
                got = outcome(check_ordcomp_claim, a, target)
                assert got == outcome(check_ordcomp_claim_reference, a,
                                      target)
                verdicts.add(got[0] if got[0] != "ok" else
                             len(got[1].witness))
    assert {"PreconditionFailure", 0, 1, 2} <= verdicts
