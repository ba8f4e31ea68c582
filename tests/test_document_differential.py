"""The document build against the one it replaced.

`load_instance` reads each uniformity entourage in one pass into image
masks, `FiniteGroup.from_permutations` fills its table a column at a
time, and `FiniteGroup` leaves the identity out of `gens`.  Each document
here is loaded twice: by the current code, and with the loop, the table
fill and the group validation of `document_reference.py` and
`group_reference.py` put in their place.  Both loads must give the same
image masks, group table, names, inverses and action, or the same
`DocumentError` text; the generating sets differ by the identity alone.
"""

import copy
import itertools
import json
import random
from pathlib import Path

import pytest
from document_reference import entourage_reference, generators_reference, \
    permutation_table_reference
from group_reference import finite_group_reference

from eqprox import document
from eqprox.document import load_instance
from eqprox.errors import DocumentError
from eqprox.gaction import FiniteGroup

FIXTURES = Path(__file__).parent / "fixtures"


def reference_group_init(self, names, mul):
    names, mul, inv, e = finite_group_reference(names, mul)
    self.names, self.mul, self.inv, self.e = names, mul, inv, e
    self.name_index = {nm: i for i, nm in enumerate(names)}
    self.gens = generators_reference(mul)


def reference_from_permutations(cls, perms):
    names, mul, order = permutation_table_reference(perms)
    return cls(names, mul), order


@pytest.fixture
def reference_build(monkeypatch):
    """A loader with the replaced build in place of the current one."""
    def load(doc):
        with monkeypatch.context() as m:
            m.setattr(FiniteGroup, "__init__", reference_group_init)
            m.setattr(FiniteGroup, "from_permutations",
                      classmethod(reference_from_permutations))
            m.setattr(document, "_entourage", entourage_reference)
            return outcome(doc)
    return load


def outcome(doc):
    """What a load gives: the error text, or the values the build made."""
    try:
        inst = load_instance(copy.deepcopy(doc))
    except DocumentError as exc:
        return "error", str(exc)
    out = {"carrier": inst.carrier.elements, "masks": None, "group": None}
    if inst.uniformity is not None:
        out["masks"] = [eps.image_masks for eps in inst.uniformity.basis]
    if inst.germ is not None:
        g = inst.germ.group
        out["group"] = (g.names, g.mul, g.inv, g.e, inst.germ.act,
                        inst.germ.ne.levels)
        out["gens"] = g.gens
    return "ok", out


def assert_same_build(doc, reference_build):
    got = outcome(doc)
    want = reference_build(doc)
    if got[0] == want[0] == "ok" and got[1]["group"] is not None:
        e = want[1]["group"][3]
        assert got[1].pop("gens") == tuple(
            g for g in want[1].pop("gens") if g != e), doc
    assert got == want, doc
    return got[0]


def test_fixtures_build_as_before(reference_build):
    kinds = set()
    for path in sorted(FIXTURES.glob("*.json")):
        kinds.add(assert_same_build(
            json.loads(path.read_text(encoding="utf-8")), reference_build))
    assert kinds == {"ok", "error"}


# Abstract permutations of each group kind on its own points, with the
# names a generator-given document uses for them.
def _cyclic(m):
    return {"g": tuple((i + 1) % m for i in range(m))}


KINDS = {
    "Z2": (2, _cyclic(2)),
    "Z3": (3, _cyclic(3)),
    "Z4": (4, _cyclic(4)),
    "S3": (3, {"t": (1, 0, 2), "c": (1, 2, 0)}),
    "S4": (4, {"k1": (1, 0, 3, 2), "k2": (2, 3, 0, 1), "k3": (3, 2, 1, 0),
               "r": (1, 2, 3, 0), "s": (1, 0, 2, 3)}),
}


def closure(perms, d):
    out = {tuple(range(d))}
    while True:
        more = {tuple(p[q[x]] for x in range(d)) for p in out for q in perms}
        if more <= out:
            return sorted(out)
        out |= more


def orbit_classes(perms, n):
    cls = list(range(n))
    for p in perms:
        for x in range(n):
            a, b = cls[x], cls[p[x]]
            cls = [a if c == b else c for c in cls]
    return [[x for x in range(n) if cls[x] == c] for c in sorted(set(cls))]


def bench_shaped(rng, kind, n, by_table):
    """A document in the benchmark's shape: the group acting diagonally on
    up to two seeded blocks of its degree (none when n is smaller), a
    chain, one or two entourages built from merged orbits, and subsets."""
    d, named = KINDS[kind]
    pts = [f"x{i}" for i in range(n)]
    nb = min(2, n // d)
    free = rng.sample(range(n), nb * d)
    blocks = [free[i * d:(i + 1) * d] for i in range(nb)]

    def lift(s):
        p = list(range(n))
        for blk in blocks:
            for i in range(d):
                p[blk[i]] = blk[s[i]]
        return [pts[x] for x in p]

    doc = {"schema": 1, "carrier": pts}
    if by_table:
        elems = closure(list(named.values()), d)
        names = ["e" if s == tuple(range(d)) else f"a{i}"
                 for i, s in enumerate(elems)]
        index = {s: i for i, s in enumerate(elems)}
        doc["group"] = {"elements": names, "table": [
            [names[index[tuple(s[t[x]] for x in range(d))]] for t in elems]
            for s in elems]}
        doc["action"] = {nm: lift(s) for nm, s in zip(names, elems)}
    else:
        names = ["e"] + sorted(named)
        doc["group"] = {"generators": {nm: lift(s)
                                       for nm, s in named.items()}}
    others = [nm for nm in names if nm != "e"]
    top = ["e"] + rng.sample(others, rng.randint(0, len(others)))
    doc["neighborhood_base"] = rng.choice(
        [[top, ["e"]], [["e"]], [names] if by_table else [["e"]]])
    perms = [[pts.index(y) for y in lift(s)] for s in named.values()]
    classes = []
    for orb in orbit_classes(perms, n):
        if classes and rng.random() < 0.35:
            rng.choice(classes).extend(orb)
        else:
            classes.append(orb)
    theta = [[pts[x], pts[y]] for c in classes for x in c for y in c]
    rng.shuffle(theta)
    doc["uniformity"] = [theta]
    if rng.random() < 0.5:
        doc["uniformity"].append([[x, y] for x in pts for y in pts])
    doc["subsets"] = {"A": pts[:1], "B": pts[-1:]}
    return doc


def test_bench_shaped_documents_build_as_before(reference_build):
    rng = random.Random(35)
    kinds = {"ok": 0, "error": 0}
    for kind, n, by_table in itertools.product(KINDS, range(1, 13),
                                               (True, False)):
        for _ in range(2):
            kinds[assert_same_build(bench_shaped(rng, kind, n, by_table),
                                    reference_build)] += 1
    # Generator-given groups on fewer points than their degree act as the
    # identity, which the document refuses to name.
    assert kinds["ok"] >= 200 and kinds["error"] >= 10, kinds


# Values that, in most slots, are no carrier name, no pair or no entourage:
# null, a bool, numbers, nested lists, an object, an unknown name, 1- and
# 3-element lists, and a string.
BAD = [None, True, 0, 1.5, ["x0"], [["x0", "x1"]], {"x0": "x1"}, "nope",
       ["x0", "x1", "x2"], "x0"]


def malformed_uniformities():
    """The uniformity of a four-point document with one bad value in one
    slot: a name in a pair, a pair, an entourage or the whole list, at the
    front or the back of the first or the second entourage."""
    good = [["x0", "x0"], ["x1", "x1"], ["x2", "x3"]]
    for bad in BAD:
        yield bad
        for k in (0, 1):
            for where in (0, len(good)):
                for slot in (0, 1):
                    pair = ["x1", "x2"]
                    pair[slot] = bad
                    ent = good[:where] + [pair] + good[where:]
                    yield [good, ent] if k else [ent]
                ent = good[:where] + [bad] + good[where:]
                yield [good, ent] if k else [ent]
            yield [good, bad] if k else [bad]


def test_malformed_entourages_raise_the_same_text(reference_build):
    errors = 0
    for uniformity in malformed_uniformities():
        doc = {"carrier": ["x0", "x1", "x2", "x3"], "uniformity": uniformity}
        errors += assert_same_build(doc, reference_build) == "error"
    # "x0" is a good name and [["x0", "x1"]] a good entourage: ten loads
    # of the 150 pass.
    assert errors == 140, errors
    # A string or an object of two names unpacks to them, but is no pair.
    for pair in ("ab", {"a": 1, "b": 2}):
        doc = {"carrier": ["a", "b"], "uniformity": [[pair]]}
        assert assert_same_build(doc, reference_build) == "error"
