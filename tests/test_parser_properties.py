"""Property tests: the rational-set and chain grammars refuse a string with
DocumentError, or return a value whose text parses back to an equal value.

Strings are drawn over the grammar's alphabet plus "e", ".", "+" and
spaces, which `Fraction` would accept in some positions, both as free
character strings and as joins of grammar tokens (so that well-formed
sets and chains are common).  Any other exception, or a value that does
not print, would reach the CLI as a traceback instead of exit 2.  The set
properties also draw well-formed sets over exact values, so that they see
intervals: those sets round-trip, and every endpoint of a parsed set is a
Fraction or one of the two infinite endpoints.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqprox.errors import DocumentError  # noqa: E402
from eqprox.rationals import (  # noqa: E402
    NEG_INF, POS_INF, parse_chain, parse_ratset)

ALPHABET = "0123456789/-{}(),inf" + "e.+ "
TOKENS = ("{", "}", "(", ")", ",", "inf", "-inf", "-", "/", "0", "1", "2",
          "7", "10", "1/2", "-3/4", "e", "1e5", "1e5000", ".", "0.5", "+",
          " ")

strings = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=16).map("".join),
)
# Comma-joined points and intervals around the drawn strings.
ratset_strings = st.lists(st.one_of(
    strings,
    strings.map(lambda s: "{" + s + "}"),
    st.tuples(strings, strings).map(lambda p: f"({p[0]},{p[1]})"),
), max_size=3).map(",".join)

# Well-formed sets over exact values, so that intervals are common: p/q,
# integers to 400 digits and decimals, with the infinite endpoints.
finite_endpoints = st.one_of(
    st.fractions().map(lambda q: (q, str(q))),
    st.integers(-10 ** 401, 10 ** 401).map(lambda k: (Fraction(k), str(k))),
    st.decimals(places=3, allow_nan=False, allow_infinity=False).map(
        lambda d: (Fraction(d), format(d, "f"))),
)
endpoints = finite_endpoints | st.sampled_from(
    ((NEG_INF, "-inf"), (POS_INF, "inf")))
well_formed_ratsets = st.lists(st.one_of(
    finite_endpoints.map(lambda v: "{" + v[1] + "}"),
    st.tuples(endpoints, endpoints).filter(lambda p: p[0][0] < p[1][0]).map(
        lambda p: f"({p[0][1]},{p[1][1]})"),
), max_size=5).map(",".join)

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)


def refuses_or_round_trips(parse, text):
    try:
        value = parse(text)
    except DocumentError:
        return
    printed = str(value)
    assert parse(printed) == value, (text, printed)


@SETTINGS
@given(well_formed_ratsets | ratset_strings)
def test_parse_ratset_refuses_or_round_trips(text):
    refuses_or_round_trips(parse_ratset, text)


@SETTINGS
@given(well_formed_ratsets | ratset_strings)
def test_parsed_endpoints_are_fractions_or_the_infinities(text):
    # The infinite endpoints are the only floats: a finite float endpoint
    # would be read as infinite by `endpoints` and `_outside`.
    try:
        value = parse_ratset(text)
    except DocumentError:
        return
    for atom in value.atoms:
        for v in atom[1:]:
            assert type(v) is Fraction or v in (NEG_INF, POS_INF), (text, atom)
    for lo, _, hi, _ in value.components():
        assert type(lo) is Fraction or lo == NEG_INF, (text, lo)
        assert type(hi) is Fraction or hi == POS_INF, (text, hi)


@SETTINGS
@given(strings.map(lambda s: "{" + s + "}") | strings)
def test_parse_chain_refuses_or_round_trips(text):
    refuses_or_round_trips(parse_chain, text)


@pytest.mark.parametrize("ratset, chain", [
    ("{1e5000}", "{1e5000}"),
    ("(0,1e5001)", "{0,1e5001}"),
    ("{1E3}", "{1E3}"),
    ("(1e999999999,inf)", "{1e999999999}"),
])
def test_exponents_are_refused_before_fraction_runs(ratset, chain):
    # 1e999999999 would be a 10**9-digit integer if Fraction saw it.
    with pytest.raises(DocumentError, match="exponents are not supported"):
        parse_ratset(ratset)
    with pytest.raises(DocumentError, match="exponents are not supported"):
        parse_chain(chain)
