"""Property test: a mutated instance document loads or raises DocumentError.

Each example takes a fixture document, picks one node of its JSON tree
(any object member or list item) and deletes it or replaces it with
null, a number, a string or a nested list or object.  Loading must then
either succeed or raise DocumentError (or ResourceCap, the carrier cap),
which the CLI reports with exit 2 (or 3); any other exception would
escape as a traceback.
"""

import copy
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqprox.document import load_instance  # noqa: E402
from eqprox.errors import DocumentError, ResourceCap  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
DOCS = {p.name: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(FIXTURES.glob("*.json"))
        if not p.name.startswith("twelve_points")}
DELETE = object()


def node_paths(node, prefix=()):
    """Every path below the root, as tuples of keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


PATHS = {name: list(node_paths(doc)) for name, doc in DOCS.items()}

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "0", "1", "e", "g", "1/2", "-1", "x", "0/0"]),
    st.text(max_size=4))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["e", "g", "0", "A"]), inner,
                        max_size=3)),
    max_leaves=8)


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(node_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        new = draw(st.one_of(st.just(DELETE), values))
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_documents_load_or_raise_document_error(doc):
    try:
        load_instance(doc)
    except (DocumentError, ResourceCap):
        pass


@pytest.mark.parametrize("name", sorted(DOCS))
def test_every_field_of_every_fixture_set_to_null(name):
    for path in PATHS[name]:
        doc = copy.deepcopy(DOCS[name])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = None
        try:
            load_instance(doc)
        except (DocumentError, ResourceCap):
            pass
