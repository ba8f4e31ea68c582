"""The bit-matrix axiom oracle against the scalar reference.

Every report must match the reference verdict for verdict and
counterexample for counterexample, in the same axiom order.
"""

import random

from axioms_reference import check_axioms_reference

from eqprox.proximity import Prox, check_axioms, from_uniformity
from eqprox.setrel import Carrier
from eqprox.suite import _graph_proximity, _random_valid_basis, basis_pool


def assert_same_report(p):
    got = check_axioms(p)._results
    want = check_axioms_reference(p)._results
    assert list(got.items()) == list(want.items()), (p.carrier.n, p.rows)


def valid_tables(rng, sizes):
    for n in sizes:
        carrier = Carrier(range(n))
        for u in basis_pool(carrier, rng):
            yield from_uniformity(u)


def test_basis_pool_tables_match_reference():
    rng = random.Random(11)
    for p in valid_tables(rng, range(1, 6)):
        assert_same_report(p)


def test_random_valid_bases_match_reference():
    rng = random.Random(12)
    for n in (6, 7):
        carrier = Carrier(range(n))
        for _ in range(12):
            assert_same_report(from_uniformity(_random_valid_basis(carrier, rng)))


def test_graph_proximities_match_reference():
    # These satisfy P1-P4 and routinely fail P5 and P5'.
    rng = random.Random(13)
    for n in range(3, 7):
        carrier = Carrier(range(n))
        for _ in range(15):
            assert_same_report(_graph_proximity(carrier, rng))


def test_random_row_tables_match_reference():
    rng = random.Random(14)
    for n in range(1, 7):
        carrier = Carrier(range(n))
        N = 1 << n
        for _ in range(40):
            rows = [rng.getrandbits(N) for _ in range(N)]
            # Keep some rows in the P4 shapes that pass: all-near rows and
            # rows with the empty bit clear.
            for a in range(N):
                roll = rng.random()
                if roll < 0.2:
                    rows[a] = (1 << N) - 1
                elif roll < 0.6:
                    rows[a] &= ~1
            assert_same_report(Prox(carrier, rows, normalize=False))


def test_single_bit_flips_match_reference():
    rng = random.Random(15)
    for p in valid_tables(rng, range(1, 6)):
        N = len(p.rows)
        cells = [(a, b) for a in range(N) for b in range(N)]
        if len(cells) > 64:
            cells = rng.sample(cells, 64)
        for a, b in cells:
            rows = list(p.rows)
            rows[a] ^= 1 << b
            assert_same_report(Prox(p.carrier, rows, normalize=False))
