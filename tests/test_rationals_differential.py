"""The tower layer against the value-based construction.

`bonding_map` reads cell indices from chain positions, `build_tower`
closes under union one input chain at a time, `_validate_tower` pairs
each map only with the maps out of its target, and `_covers` and
`Tower.threads` read inclusion from the keys of the map table.  Each must
agree with the originals kept in `rationals_reference.py`: maps and
precondition messages, levels, map tables in insertion order, threads,
DOT text, the cap error, and the validator's first failure on corrupted
map tables.  `saturate` locates cells by bisection and must give the same
atoms as the cell-by-cell scan.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from rationals_reference import _covers_reference, \
    _validate_tower_reference, bonding_map_reference, build_tower_reference, \
    saturate_reference, threads_reference, tower_dot_reference

from eqprox.errors import ResourceCap
from eqprox.rationals import NEG_INF, POS_INF, Chain, RatSet, _covers, \
    _validate_tower, bonding_map, build_tower, saturate, tower_dot

GRID = (F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1))
GRID_CHAINS = [Chain(c) for k in range(len(GRID) + 1)
               for c in combinations(GRID, k)]


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of the verdict
        return (type(exc).__name__, str(exc))


def test_bonding_map_on_every_pair_of_grid_chains():
    nested = 0
    for big in GRID_CHAINS:
        for small in GRID_CHAINS:
            got = outcome(bonding_map, big, small)
            assert got == outcome(bonding_map_reference, big, small)
            nested += got[0] == "ok"
    assert nested == 3 ** len(GRID)


def test_saturate_on_every_grid_chain():
    # Atoms with endpoints on, between and outside the chain points.
    values = sorted({F(k, 4) for k in range(-8, 7)} | set(GRID))
    ends = [NEG_INF] + values + [POS_INF]
    atoms = [("pt", q) for q in values] + [
        ("iv", lo, hi) for lo, hi in combinations(ends, 2)]
    rng = random.Random(11)
    sets = [RatSet([a]) for a in atoms] + [
        RatSet(rng.sample(atoms, rng.randint(2, 4))) for _ in range(150)]
    for chain in GRID_CHAINS:
        for s in sets:
            assert saturate(chain, s).atoms == \
                saturate_reference(chain, s).atoms


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

