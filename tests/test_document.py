import json
import re
from pathlib import Path

import pytest

from eqprox.document import load_instance
from eqprox.errors import DocumentError
from test_rationals import OFF_GRAMMAR

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def test_load_valid_instance():
    inst = load_instance(fixture("z3_rotation.json"))
    assert inst.carrier.n == 3
    assert inst.germ.group.order == 3
    assert inst.uniformity is not None
    assert inst.subsets["A"] == frozenset({"0"})


def test_load_generator_group():
    inst = load_instance(fixture("s3_generators.json"))
    assert inst.germ.group.order == 6
    assert "s" in inst.germ.group.names
    assert "r" in inst.germ.group.names
    assert len(inst.germ.ne.levels) == 2


def test_order_is_the_listed_tuple():
    doc = json.loads(Path(fixture("z3_rotation.json")).read_text())
    doc["order"] = ["2", "0", "1"]
    assert load_instance(doc).order == ("2", "0", "1")
    assert load_instance(fixture("z3_rotation.json")).order is None
    doc["order"] = ["2", "0", "0"]
    with pytest.raises(DocumentError, match="^order: order must list every"):
        load_instance(doc)


def test_a_path_object_reads_the_file_whatever_its_name(tmp_path):
    doc = tmp_path / "doc"
    doc.write_bytes((FIXTURES / "z3_rotation.json").read_bytes())
    inst = load_instance(doc)
    assert inst.germ.group.order == 3
    assert inst.subsets["A"] == frozenset({"0"})


def test_a_path_object_to_a_missing_file_is_a_document_error(tmp_path):
    missing = tmp_path / "doc"
    with pytest.raises(DocumentError,
                       match=f"^cannot read {re.escape(str(missing))}: "):
        load_instance(missing)


def test_metric_instance_and_derived_uniformity():
    inst = load_instance(fixture("z4_metric.json"))
    assert inst.metric is not None
    u = inst.require_uniformity()
    assert u.carrier == inst.carrier


def test_bad_table_names_the_triple():
    with pytest.raises(DocumentError, match="associative at triple"):
        load_instance(fixture("bad_table.json"))


def test_bad_chain_names_the_levels():
    with pytest.raises(DocumentError, match="levels 0 and 1"):
        load_instance(fixture("bad_chain.json"))


def test_parse_error_carries_location():
    with pytest.raises(DocumentError, match="line"):
        load_instance('{"carrier": [}')


def test_unknown_names_are_reported():
    doc = json.loads(Path(fixture("z3_rotation.json")).read_text())
    doc["subsets"] = {"A": ["7"]}
    with pytest.raises(DocumentError, match="unknown element '7'"):
        load_instance(doc)
    doc2 = json.loads(Path(fixture("z3_rotation.json")).read_text())
    doc2["neighborhood_base"] = [["e", "zz"]]
    with pytest.raises(DocumentError, match="unknown element 'zz'"):
        load_instance(doc2)


def test_rational_strings_only():
    doc = json.loads(Path(fixture("z4_metric.json")).read_text())
    doc["metric"][0][1] = 1.0
    with pytest.raises(DocumentError, match="rationals must be strings"):
        load_instance(doc)


def _metric_doc(entry):
    doc = json.loads(Path(fixture("z4_metric.json")).read_text())
    doc["metric"][0][1] = doc["metric"][1][0] = entry
    return doc


@pytest.mark.parametrize("literal", OFF_GRAMMAR)
def test_rationals_off_the_grammar_are_refused(literal):
    # The document reader shares `rationals.parse_fraction`'s grammar.
    message = "metric: bad rational " + repr(literal)
    with pytest.raises(DocumentError, match="^" + re.escape(message) + "$"):
        load_instance(_metric_doc(literal))


@pytest.mark.parametrize("literal", ["1", "+1", " 1 ", "1.0", "2/2", "01"])
def test_rationals_on_the_grammar_are_read(literal):
    assert load_instance(_metric_doc(literal)).metric.dist == \
        load_instance(fixture("z4_metric.json")).metric.dist


def test_action_must_be_permutation():
    doc = json.loads(Path(fixture("z3_rotation.json")).read_text())
    doc["action"]["g"] = ["1", "1", "0"]
    with pytest.raises(DocumentError, match="permutation"):
        load_instance(doc)
