"""β_G and ν against the closed-form oracle of `quotient_oracle.py`.

On every setting of `iter_family(max_n=5, seed=0)` that reaches the
`tgprox` check (a valid basis, pi-uniform and action continuous), the
library's β_G must be the partition proximity of the N-orbits and its ν
that of N·θ·N, N the deepest level and θ the least entourage, both read
from literal pairs.  The same holds on the fixtures that list a germ and
a uniformity.
"""

from pathlib import Path

from quotient_oracle import beta_g_rows, nu_rows

from eqprox.document import load_instance
from eqprox.equivariant import beta_g_proximity, nu_proximity
from eqprox.gaction import classify
from eqprox.suite import iter_family
from eqprox.uniformity import validate_basis

FIXTURES = Path(__file__).parent / "fixtures"


def tgprox_settings():
    """The (label, germ, basis) settings on which the suite compares ν
    with the derived basis's table."""
    for label, germ, u in iter_family(max_n=5, seed=0):
        if not validate_basis(u).ok():
            continue
        cls = classify(germ, u)
        if cls.pi_uniform and cls.action_continuous:
            yield label, germ, u


def test_beta_g_and_nu_are_partition_proximities_on_suite_settings():
    settings = differ = 0
    for label, germ, u in tgprox_settings():
        settings += 1
        beta_g = beta_g_proximity(germ).rows
        assert beta_g == beta_g_rows(germ), label
        nu = nu_proximity(germ, u).rows
        assert nu == nu_rows(germ, u), label
        differ += nu != beta_g
    # Not vacuous: thousands of settings, ν often coarser than β_G.
    assert settings > 2000
    assert settings // 4 < differ < settings


def test_beta_g_and_nu_are_partition_proximities_on_fixtures():
    checked = 0
    for name in ("z3_rotation.json", "twelve_points_s3_orbits.json",
                 "twelve_points_s3_nested.json",
                 "twelve_points_s3_paired.json"):
        inst = load_instance(str(FIXTURES / name))
        germ, u = inst.germ, inst.uniformity
        assert beta_g_proximity(germ).rows == beta_g_rows(germ), name
        assert nu_proximity(germ, u).rows == nu_rows(germ, u), name
        checked += 1
    assert checked == 4
