import gc
import hashlib
import json
import random
import sys
import time
from itertools import combinations, islice, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from equivariant_reference import beta_g_map, classify_reference, nu_maps
from proximity_reference import RowsTable, meets_table_reference

from eqprox import equivariant
from eqprox import rationals as rat
from eqprox.cli import EXIT_INTERNAL, _emit_table_json, _prox_json, \
    build_parser, main
from eqprox.document import load_instance
from eqprox.equivariant import compute_ug, nu_proximity
from eqprox.errors import InternalCheckFailure
from eqprox.gaction import GActionGerm
from eqprox.proximity import Prox, check_axioms, from_uniformity, \
    meets_table
from eqprox.setrel import Carrier
from eqprox.suite import iter_family
from eqprox.uniformity import discrete_basis

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture("z3_rotation.json"))
    assert code == 0
    assert "document: ok" in out
    assert "B1: pass" in out


def test_validate_twelve_points_at_the_cap(capsys):
    # The axiom oracle runs exhaustively on all 4**12 subset pairs.
    code, out, _ = run(capsys, "validate", fixture("twelve_points.json"))
    assert code == 0
    for name in ("P1", "P2", "P3", "P4", "P5"):
        assert f"  {name}: pass" in out


def test_validate_twelve_point_generator_document(capsys):
    # c = (x0 x11 x1) and t = (x1 x11); two of the other elements have
    # images starting 1, 11 and 11, 1, which need a separator in their names.
    code, out, err = run(capsys, "validate",
                         fixture("twelve_points_s3_generators.json"))
    assert (code, err) == (0, "")
    assert out == ("document: ok\ngroup: ok (order 6)\n"
                   "neighborhood_base: ok (2 levels)\naction: ok\n")


ORDER48 = "twelve_points_order48_generators.json"


def test_order48_generator_document_is_s4_times_z2(capsys):
    # r and s act as S4 on x0-x3 and on x4-x7 alike; w swaps those two
    # blocks and the points of the pairs x8, x9 and x10, x11, and commutes
    # with both, so the closure has the cap order 48 and {e, w} is normal.
    inst = load_instance(fixture(ORDER48))
    group, act = inst.germ.group, inst.germ.act
    assert group.order == 48 and len(set(act)) == 48
    assert all(type(x) is int for p in act for x in p)
    w = group.name_index["w"]
    assert all(group.mul[w][g] == group.mul[g][w] for g in range(48))
    assert inst.germ.deepest == {group.e, w}
    code, out, err = run(capsys, "validate", fixture(ORDER48))
    assert (code, err) == (0, "")
    assert out.startswith("document: ok\ngroup: ok (order 48)\n"
                          "neighborhood_base: ok (1 levels)\naction: ok\n")
    assert ("  saturated: pass\n"
            "  bounded: FAIL  witness=(0, 'w', 'x0')\n") in out


@pytest.mark.parametrize("argv, digest", [
    (["validate"],
     "3b05696f46ed12e5d55ae94e2c91b28f2d7b4879ab643183d14ce89fa622a63d"),
    (["equinormal", "--json"],
     "c502939bde4d933d556283408ebf59cd07b729ef1e0b321e7a8d03a6bb7ea354"),
    (["nu"],
     "3f01927a5ef5b0183fd44002f0d7df2d5af59d1c412ea192b5d325993c3e4cdc"),
    (["betag", "--json"],
     "e1910a0646d6cc2841600a456252779da6876be37953b8e5187c8701636075b4"),
    (["nu", "--sets", "A", "B"],
     "f62df300790349ebe729af5c59057a15b208dd0c980229ab5c8d9efeed2ac045"),
    (["ug", "--json"],
     "5b6309767c2fdf2c2e540fee90aefb4e2e9fbf6ff96c3dfe1eefc4c778c148ce"),
    (["massive"],
     "6d0451aa233b4085aff6e4cdcc5dba503ce05a8b3f36cd37fa88dd319db88b0d"),
], ids=["validate", "equinormal-json", "nu", "betag-json", "nu-sets",
        "ug-json", "massive"])
def test_order48_generator_document_outputs(capsys, argv, digest):
    # The bytes the requests wrote before permutation rows were composed
    # as bytes (the first two are pinned in CI as well).
    code, out, err = run(capsys, argv[0], fixture(ORDER48), *argv[1:])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def order48_with_mod4_blocks(tmp_path):
    """The order-48 document with its uniformity replaced by the partition
    {x0, x4, x8}, {x1, x5, x9}, {x2, x6, x10}, {x3, x7, x11}, which the
    action does not keep quasibounded."""
    doc = json.loads((FIXTURES / ORDER48).read_text())
    doc["uniformity"] = [[[f"x{i}", f"x{j}"] for i in range(12)
                          for j in range(12) if i % 4 == j % 4]]
    path = tmp_path / "order48_mod4.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_plain_nu_refuses_a_uniformity_that_is_not_quasibounded(
        capsys, tmp_path):
    # Its translate nearness is no proximity (P5, P5' and P6 fail), so the
    # point classes would overlap; plain nu refuses it as ug and massive
    # do, with the classifier's witness.  The table and one verdict are
    # still written.
    path = order48_with_mod4_blocks(tmp_path)
    inst = load_instance(path)
    assert check_axioms(nu_proximity(inst.germ, inst.uniformity)).failures() \
        == ("P5", "P5prime", "P6")
    code, out, err = run(capsys, "nu", path)
    assert (code, out) == (1, "")
    assert err.startswith("precondition failed: uniformity is not "
                          "quasibounded\nwitness: ")
    for command in ("ug", "massive"):
        assert run(capsys, command, path) == (1, "", err)
    assert run(capsys, "nu", path, "--sets", "A", "B")[0] == 0
    assert run(capsys, "nu", path, "--json")[0] == 0


def test_plain_nu_traps_a_quasibounded_uniformity_without_a_proximity(
        capsys, tmp_path, monkeypatch):
    # If the classifier called that uniformity quasibounded, the failing
    # map would be a defect of eqprox.
    path = order48_with_mod4_blocks(tmp_path)
    monkeypatch.setattr(equivariant, "classify", lambda a, u: SimpleNamespace(
        quasibounded=True))
    code, out, err = run(capsys, "nu", path)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == ("internal error: translate nearness of a quasibounded "
                   "uniformity is no proximity\n")


def test_equinormal_twelve_points_at_the_cap(capsys):
    # The separation check compares two maps of the 12 points.
    code, out, _ = run(capsys, "equinormal", fixture("twelve_points_s3.json"))
    assert code == 0
    assert "equinormal: yes" in out
    assert "pi-disjoint pairs admit pi-disjoint neighborhoods: pass" in out


def rows_hex(p):
    return [format(r, "x") for r in p.rows]


def test_betag_twelve_points_at_the_cap(capsys):
    # The maximal group proximity is nu over the discrete basis.
    path = fixture("twelve_points_s3.json")
    code, out, _ = run(capsys, "betag", path, "--json")
    assert code == 0
    germ = load_instance(path).germ
    expected = nu_proximity(germ, discrete_basis(germ.carrier))
    assert json.loads(out)["rows_hex"] == rows_hex(expected)


def test_nu_twelve_points_at_the_cap(capsys):
    # The headline identity at the cap: translate nearness equals the
    # proximity of the derived bracket basis.
    path = fixture("twelve_points_s3_orbits.json")
    code, out, _ = run(capsys, "nu", path, "--json")
    assert code == 0
    inst = load_instance(path)
    expected = from_uniformity(compute_ug(inst.germ, inst.uniformity))
    assert json.loads(out)["rows_hex"] == rows_hex(expected)


@pytest.mark.parametrize("what, name", [
    ("betag", "twelve_points_s3.json"),
    ("nu", "twelve_points_s3_orbits.json"),
])
def test_table_json_at_the_cap_is_the_table_payload(capsys, what, name):
    # The hand-joined rows_hex text parses, and as the whole payload.
    path = fixture(name)
    code, out, _ = run(capsys, what, path, "--json")
    assert code == 0
    germ = load_instance(path).germ
    expected = nu_proximity(germ, discrete_basis(germ.carrier)
                            if what == "betag" else
                            load_instance(path).uniformity)
    payload = {"schema": 1, "what": what,
               "carrier": list(germ.carrier.elements),
               "subset_indexing": "little-endian bitmask over the carrier "
                                  "order",
               "rows_hex": rows_hex(expected),
               "separated": not any(
                   expected.rows[1 << i] >> (1 << j) & 1 for i, j in
                   permutations(range(germ.carrier.n), 2))}
    assert json.loads(out) == payload
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("what, name, distinct, digest", [
    ("nu", "twelve_points_s3_nested.json", 16,
     "98f30a0dfd5c550cf377bfb70127a4e10a7476be8f2adf09d2e90cb58e5cae3f"),
    ("betag", "twelve_points_s3_generators.json", 4096,
     "7ccc6ae34218fa8fd3e65f50753ec749cbae54e7d5eb2ecf162c344a117baaa9"),
])
def test_table_json_writes_every_row_as_the_per_row_writer(
        capsys, what, name, distinct, digest):
    # The writer builds each distinct image's text once; it must still be
    # `format(r, "x")` of every row, here of the table the in-place
    # builder makes from the same maps, and the bytes those of the
    # per-row writer (the digest CI pins too).
    path = fixture(name)
    code, out, _ = run(capsys, what, path, "--json")
    assert code == 0
    inst = load_instance(path)
    maps = (nu_maps(inst.germ, inst.uniformity) if what == "nu" else
            [beta_g_map(inst.germ)])
    expected = meets_table_reference(inst.germ.carrier, maps)
    assert len(set(expected.rows)) == distinct
    assert json.loads(out)["rows_hex"] == rows_hex(expected)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prox_json_writes_equal_rows_held_by_distinct_objects():
    # Rows are written from the map, so subsets with one image get one
    # text object, and the text is that of the same table given by its
    # rows, equal rows there being distinct int objects.  Sixteen-bit
    # rows, past the small ints an interpreter may keep as one object each.
    c = Carrier(range(4))
    p = meets_table(c, [0b0011, 0b0011, 0b1100, 0b1100])
    copy = RowsTable(c, [int(str(r)) for r in p.rows])
    assert copy.rows[1] == copy.rows[2] and copy.rows[1] is not copy.rows[2]
    text = _prox_json(p)["rows_hex"]
    assert text == rows_hex(copy) == rows_hex(p)
    assert text[1] is text[2] is text[3] and len(set(map(id, text))) == 4


@pytest.mark.parametrize("what, name, digest", [
    ("nu", "twelve_points_s3_nested.json",
     "98f30a0dfd5c550cf377bfb70127a4e10a7476be8f2adf09d2e90cb58e5cae3f"),
    ("betag", "twelve_points_s3_generators.json",
     "7ccc6ae34218fa8fd3e65f50753ec749cbae54e7d5eb2ecf162c344a117baaa9"),
    ("nu", "twelve_points_s3_paired.json",
     "02259b5a7d93eafb41c58a362e4c25436c9736b5e897b5efa2500653eed3c8e0"),
])
def test_table_json_at_the_cap_derives_no_row(capsys, monkeypatch, what,
                                               name, digest):
    # `--json` writes the 4096 rows of the table from its map: deriving a
    # row fails the request, and the bytes are those CI pins.
    def derive(n, f):
        raise AssertionError("a row was derived")
    monkeypatch.setattr("eqprox.proximity._meets_rows", derive)
    code, out, err = run(capsys, what, fixture(name), "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rows_hex"]) == 4096
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def module_cache_values():
    """Every value held by a `functools` cache of an `eqprox` module."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "eqprox":
            continue
        for f in vars(module).values():
            if hasattr(f, "cache_info"):
                for ref in gc.get_referents(f):
                    if isinstance(ref, dict) and ref is not f.__dict__:
                        yield from ref.values()


def test_twelve_point_requests_keep_no_subset_table(capsys):
    # The paired fixture is the 12-point one whose continuity witness has
    # g0 != e.  After a `validate` and a `ug --json` on it no module cache
    # keeps a table with an entry per subset.
    doc = fixture("twelve_points_s3_paired.json")
    code, out, err = run(capsys, "validate", doc)
    assert (code, err) == (0, "")
    assert "  action_continuous: FAIL  witness=('c', 'x0', 0)\n" in out
    code, out, err = run(capsys, "ug", doc, "--json")
    assert (code, err) == (0, "")
    sizes = [len(v) for v in module_cache_values() if hasattr(v, "__len__")]
    assert 1 << 12 not in sizes


def test_prox_json_writes_the_empty_row_as_zero():
    # One point: the empty set is near nothing, and {a} is near {a}.
    p = Prox.overlap(Carrier(["a"]))
    assert _prox_json(p)["rows_hex"] == ["0", "2"] == rows_hex(p)


def twelve_point_documents(tmp_path):
    """The four 12-point fixtures with eight seeded subsets each; the one
    without a uniformity gets the diagonal basis, the nested one lists
    three entourages, its least last, and the paired one has ν maps that
    differ by level."""
    rng = random.Random(6)
    for name in ("twelve_points_s3.json", "twelve_points_s3_orbits.json",
                 "twelve_points_s3_nested.json",
                 "twelve_points_s3_paired.json"):
        doc = json.loads(Path(fixture(name)).read_text(encoding="utf-8"))
        carrier = doc["carrier"]
        doc.setdefault("uniformity", [[[x, x] for x in carrier]])
        doc["subsets"] = {f"S{k}": rng.sample(carrier, rng.randint(1, 3))
                          for k in range(8)}
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        yield str(path), carrier, sorted(doc["subsets"])


@pytest.mark.parametrize("what", ["nu", "betag"])
def test_queries_at_the_cap_read_the_json_table(tmp_path, capsys, what):
    # Plain output and `--sets` read the maps; `--json` writes the table.
    verdicts = set()
    for path, carrier, names in twelve_point_documents(tmp_path):
        code, out, _ = run(capsys, what, path, "--json")
        assert code == 0
        table = json.loads(out)
        rows = [int(h, 16) for h in table["rows_hex"]]
        inst = load_instance(path)
        lines = [f"proximity on {carrier}; separated: "
                 f"{'yes' if table['separated'] else 'no'}",
                 "point nearness classes:"]
        seen = set()
        for i, x in enumerate(carrier):
            if x not in seen:
                cls = [y for j, y in enumerate(carrier)
                       if i == j or rows[1 << i] >> (1 << j) & 1]
                seen.update(cls)
                lines.append(f"  {cls}")
        assert run(capsys, what, path) == (0, "\n".join(lines) + "\n", "")
        for a in names:
            for b in names:
                am, bm = (inst.carrier.subset_mask(inst.subsets[s])
                          for s in (a, b))
                verdict = "near" if rows[am] >> bm & 1 else "far"
                verdicts.add(verdict)
                assert run(capsys, what, path, "--sets", a, b) == \
                    (0, verdict + "\n", ""), (path, a, b)
    assert verdicts == {"near", "far"}


ODD_NAMES = ['"', "\\", "\n", "caf\u00e9", "\u96ea", '"rows_hex": []',
             '\n  "rows_hex": []', "x,\n", "\t"]


def test_table_json_writer_matches_json_dumps(capsys):
    rng = random.Random(5)
    for n in range(1, 13):
        k = min(n, len(ODD_NAMES))
        names = rng.sample(ODD_NAMES, k) + [f"x{i}" for i in range(k, n)]
        # Random rows, not a proximity: the writer only formats them.
        rows = [0] + [rng.getrandbits(1 << n) for _ in range((1 << n) - 1)]
        payload = {"schema": 1, "what": "nu", "carrier": names,
                   "subset_indexing": "little-endian bitmask",
                   "rows_hex": [format(r, "x") for r in rows],
                   "separated": bool(n % 2)}
        _emit_table_json(payload)
        assert capsys.readouterr().out == \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_equinormal_exits_1_when_a_mask_route_disagrees(capsys, monkeypatch):
    # Pulling point 0 back to the whole carrier breaks the inverse route,
    # so the pairs split off from point 0 are no longer witnessed.
    real = GActionGerm.inverse_masks

    def corrupt(self, level_index):
        masks = real(self, level_index)
        return ((1 << self.carrier.n) - 1,) + masks[1:]

    monkeypatch.setattr(GActionGerm, "inverse_masks", corrupt)
    code, out, _ = run(capsys, "equinormal", fixture("s3_generators.json"))
    assert code == 1
    assert "pi-disjoint pairs admit pi-disjoint neighborhoods: FAIL" in out


def test_validate_bad_table_exits_2_naming_triple(capsys):
    code, _, err = run(capsys, "validate", fixture("bad_table.json"))
    assert code == 2
    assert "associative at triple" in err


def test_validate_bad_chain_exits_2_naming_levels(capsys):
    code, _, err = run(capsys, "validate", fixture("bad_chain.json"))
    assert code == 2
    assert "levels 0 and 1" in err


def test_validate_bad_metric_exits_2_naming_the_triangle(capsys):
    code, out, err = run(capsys, "validate", fixture("bad_metric.json"))
    assert (code, out) == (2, "")
    assert err == ("input error: metric: triangle inequality fails at "
                   "('0', '1', '2')\n")


@pytest.mark.parametrize("name", ["doc", "doc.JSON"])
def test_validate_reads_a_document_file_whatever_its_name(tmp_path, capsys,
                                                          name):
    path = tmp_path / name
    path.write_bytes(Path(fixture("z3_rotation.json")).read_bytes())
    assert run(capsys, "validate", str(path)) == \
        run(capsys, "validate", fixture("z3_rotation.json"))
    assert load_instance(path).carrier.n == 3


def test_validate_a_missing_json_path_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {path}: ")


def test_validate_reads_json_text_as_the_file_that_holds_it(tmp_path,
                                                             capsys):
    # A one-line document on argv, as the benchmark passes it.
    text = json.dumps(json.loads(Path(fixture("z3_rotation.json")).read_text()))
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", text)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "validate", str(path))


def test_validate_metric_document(capsys):
    code, out, err = run(capsys, "validate", fixture("z4_metric.json"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "metric: ok (4 points)"


@pytest.mark.parametrize("name, field, value, message", [
    ("z3_rotation.json", "action", None, "action must be an object"),
    ("z3_rotation.json", "neighborhood_base", None,
     "neighborhood_base must be a list"),
    ("z3_rotation.json", "uniformity", None, "uniformity must be a list"),
    ("z3_rotation.json", "uniformity", [None],
     "uniformity entourage 0 must be a list"),
    ("z4_metric.json", "metric", None, "metric: the matrix must be a list"),
    ("z3_rotation.json", "subsets", None, "subsets must be an object"),
])
def test_null_document_field_exits_2_naming_it(tmp_path, capsys, name, field,
                                               value, message):
    doc = json.loads(Path(fixture(name)).read_text(encoding="utf-8"))
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "Traceback" not in err
    assert message in err


SWAP, CYC, IDENT = ["2", "1", "3"], ["2", "3", "1"], ["1", "2", "3"]


@pytest.mark.parametrize("gens, message", [
    ({"a": SWAP, "b": SWAP, "c": CYC}, "'a' and 'b' are the same permutation"),
    ({"e": SWAP, "r": CYC}, "'e' is reserved for the identity"),
    ({"i": IDENT, "s": SWAP, "r": CYC}, "'i' is the identity permutation"),
    ({"p102": CYC, "t": ["1", "3", "2"]},
     "'p102' already names another element"),
])
def test_generator_names_are_never_lost(tmp_path, capsys, gens, message):
    doc = json.loads(Path(fixture("s3_generators.json")).read_text("utf-8"))
    doc["group"]["generators"] = gens
    doc["neighborhood_base"] = [sorted(gens)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "betag", str(path), "--sets", "A", "B")
    assert (code, out) == (2, "")
    assert err == f"input error: group.generators: {message}\n"


def test_generator_named_e_may_be_the_identity(tmp_path, capsys):
    doc = json.loads(Path(fixture("s3_generators.json")).read_text("utf-8"))
    doc["group"]["generators"]["e"] = IDENT
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_instance(str(path)).germ.group.names[:3] == ("e", "r", "s")
    code, out, _ = run(capsys, "betag", str(path), "--sets", "A", "B")
    assert (code, out) == (0, "far\n")


def _write_with_order(tmp_path, order):
    doc = json.loads(Path(fixture("z3_rotation.json")).read_text("utf-8"))
    doc["order"] = order
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_reports_a_valid_order(tmp_path, capsys):
    code, out, _ = run(capsys, "validate",
                       _write_with_order(tmp_path, ["2", "0", "1"]))
    assert code == 0
    assert out.endswith("\norder: ok\n")


ORDER_NOT_A_CHAIN = "order: order must list every carrier element exactly once"


@pytest.mark.parametrize("order, message", [
    (["0", "1", "7"], ORDER_NOT_A_CHAIN),
    (["0", "1", "1"], ORDER_NOT_A_CHAIN),
    (["0", "1"], ORDER_NOT_A_CHAIN),
    (["0", "1", "2", "0"], ORDER_NOT_A_CHAIN),
    (["0", 1, "2"], ORDER_NOT_A_CHAIN),
    ([["0"], "1", "2"], ORDER_NOT_A_CHAIN),
    ("012", "order: order must be a list, got '012'"),
    (None, "order: order must be a list, got None"),
    ({"0": 0}, "order: order must be a list, got {'0': 0}"),
])
def test_bad_order_exits_2_with_its_message(tmp_path, capsys, order, message):
    code, out, err = run(capsys, "validate", _write_with_order(tmp_path, order))
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_validate_bad_basis_exits_1_with_counterexample(capsys):
    code, out, _ = run(capsys, "validate", fixture("bad_basis.json"))
    assert code == 1
    assert "B1: FAIL" in out
    assert "counterexample" in out


def test_validate_intransitive_basis_fails_only_b4(capsys):
    # One reflexive, symmetric entourage that is not transitive: the least
    # member is no equivalence, so the scan runs and names B4 alone.
    code, out, _ = run(capsys, "validate", fixture("intransitive_basis.json"))
    assert code == 1
    assert out.splitlines()[-4:] == ["  B1: pass", "  B2: pass", "  B3: pass",
                                     "  B4: FAIL  counterexample=(0)"]


CLASSIFICATION_LINES = ("saturated", "bounded", "quasibounded", "equiuniform",
                        "pi_uniform", "equicontinuous",
                        "uniformly_equicontinuous", "action_continuous")


def reference_classification_lines(germ, u):
    """The classification section of `validate`, formatted from the
    reference verdicts and witnesses."""
    ref = classify_reference(germ, u)
    good = {name: verdict for name, (verdict, _wit) in ref.items()}
    good["equiuniform"] = good["bounded"] and good["saturated"]
    good["pi_uniform"] = good["quasibounded"] and good["saturated"]
    out = ["classification:"]
    for name in CLASSIFICATION_LINES:
        wit = ref.get(name, (None, None))[1]
        out.append(f"  {name}: {'pass' if good[name] else 'FAIL'}"
                   + ("" if wit is None else f"  witness={wit}"))
    return out


def setting_document(germ, u):
    """An instance document for a suite setting, every name a string."""
    names = germ.group.names
    pts = [str(x) for x in germ.carrier.elements]
    return {
        "schema": 1,
        "carrier": pts,
        "group": {"elements": list(names),
                  "table": [[names[c] for c in row]
                            for row in germ.group.mul]},
        "action": {names[g]: [pts[y] for y in p]
                   for g, p in enumerate(germ.act)},
        "neighborhood_base": [[names[v] for v in sorted(level)]
                              for level in germ.ne.levels],
        "uniformity": [[[pts[x], pts[y]] for x, y in sorted(eps.pairs)]
                       for eps in u.basis],
    }


def test_validate_classification_matches_reference(tmp_path, capsys):
    # Seeded suite settings up to four points, failing verdicts among
    # them, and the z3_rotation fixture: the printed section must be the
    # reference's verdicts and witnesses, line for line.
    settings = list(iter_family(max_n=4, seed=0))
    rng = random.Random(11)
    paths = [fixture("z3_rotation.json")]
    for k, (_label, germ, u) in enumerate(rng.sample(settings, 120)):
        path = tmp_path / f"setting{k}.json"
        path.write_text(json.dumps(setting_document(germ, u)),
                        encoding="utf-8")
        paths.append(str(path))
    marks = set()
    for path in paths:
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (0, "")
        section = out.splitlines()[-len(CLASSIFICATION_LINES) - 1:]
        inst = load_instance(path)
        assert section == reference_classification_lines(inst.germ,
                                                         inst.uniformity)
        marks.update(line.split("  witness")[0] for line in section[1:])
    assert marks == {f"  {name}: {mark}" for name in CLASSIFICATION_LINES
                     for mark in ("pass", "FAIL")}


def test_nu_sets_verdict(capsys):
    code, out, _ = run(capsys, "nu", fixture("z3_rotation.json"),
                       "--sets", "A", "B")
    assert code == 0
    assert out.strip() == "near"


def test_betag_equals_nu_with_discrete_basis(capsys):
    # The z3 fixture's uniformity is the diagonal basis, so the two
    # commands must agree verdict for verdict.
    code1, out1, _ = run(capsys, "nu", fixture("z3_rotation.json"),
                         "--sets", "A", "B", "--json")
    code2, out2, _ = run(capsys, "betag", fixture("z3_rotation.json"),
                         "--sets", "A", "B", "--json")
    assert code1 == code2 == 0
    assert json.loads(out1)["verdict"] == json.loads(out2)["verdict"]


def test_betag_far_on_two_level_s3(capsys):
    code, out, _ = run(capsys, "betag", fixture("s3_generators.json"),
                       "--sets", "A", "B")
    assert code == 0
    assert out.strip() == "far"


def test_ug_json_deterministic(capsys):
    code, out1, _ = run(capsys, "ug", fixture("z3_rotation.json"), "--json")
    assert code == 0
    payload = json.loads(out1)
    assert payload["schema"] == 1
    _, out2, _ = run(capsys, "ug", fixture("z3_rotation.json"), "--json")
    assert out1 == out2


def test_equinormal_and_massive(capsys):
    code, out, _ = run(capsys, "equinormal", fixture("z3_rotation.json"))
    assert code == 0 and "equinormal: yes" in out
    code, out, _ = run(capsys, "massive", fixture("z3_rotation.json"))
    assert code == 0 and "massive: yes" in out


Z2_NOT_QUASIBOUNDED = {
    # g swaps 0 and 1, so it moves the entourage pair (0, 2) to (1, 2),
    # which the entourage lacks.
    "schema": 1, "carrier": ["0", "1", "2"],
    "group": {"elements": ["e", "g"], "table": [["e", "g"], ["g", "e"]]},
    "action": {"e": ["0", "1", "2"], "g": ["1", "0", "2"]},
    "neighborhood_base": [["e", "g"]],
    "uniformity": [[["0", "0"], ["1", "1"], ["2", "2"],
                    ["0", "2"], ["2", "0"]]],
}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("what", ["massive", "ug"])
def test_massive_and_ug_exit_paths(tmp_path, capsys, what, flags):
    doc = tmp_path / "z2.json"
    doc.write_text(json.dumps(Z2_NOT_QUASIBOUNDED))
    assert run(capsys, what, str(doc), *flags) == (
        1, "", "precondition failed: uniformity is not quasibounded\n"
               "witness: (0, 'g', '0', '2')\n")
    code, out, err = run(capsys, what, fixture("bad_basis.json"), *flags)
    assert (code, out) == (1, "")
    assert err.startswith(
        "precondition failed: input basis fails condition B1\n")
    assert run(capsys, what, fixture("twelve_points_s3_generators.json"),
               *flags) == (2, "", "input error: instance has neither a "
                                  "uniformity nor a metric\n")


def test_ug_plain_lists_the_derived_basis_it_writes_as_json(capsys):
    # The bytes are pinned in CI as well.
    paired = fixture("twelve_points_s3_paired.json")
    code, out, err = run(capsys, "ug", paired)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "45e3a7d79ff566b953c7e97472c818c5467587f4b08984fc76b767949842011c")
    basis = json.loads(run(capsys, "ug", paired, "--json")[1])["basis"]
    assert len(basis) == 2
    assert out.splitlines() == [f"derived basis: {len(basis)} entourages"] + [
        f"  [{k}] {r}" for k, r in enumerate(basis)]


def test_massive_json_writes_the_verdict(capsys):
    assert run(capsys, "massive", fixture("twelve_points_s3_orbits.json"),
               "--json") == (0, '{\n  "massive": true,\n  "schema": 1,\n'
                                '  "what": "massive"\n}\n', "")


@pytest.mark.parametrize("argv", [["validate"], ["ug"], ["massive"],
                                  ["nu", "--sets", "A", "B"]])
def test_uniformity_and_metric_together_are_refused(tmp_path, capsys, argv):
    # Each command would read the uniformity and ignore the metric.  An
    # order may accompany either, so it is no part of the refusal.
    doc = json.loads(Path(fixture("z4_metric.json")).read_text("utf-8"))
    doc["uniformity"] = [[[x, x] for x in doc["carrier"]]]
    doc["order"] = doc["carrier"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, argv[0], str(path), *argv[1:]) == (
        2, "", "input error: uniformity and metric: give at most one of "
               "them\n")


def test_metric_instance_nu(capsys):
    code, out, _ = run(capsys, "nu", fixture("z4_metric.json"),
                       "--sets", "A", "B")
    assert code == 0
    assert out.strip() == "near"  # transitive rotation saturates everything


def test_rat_far_and_near(capsys):
    code, out, _ = run(capsys, "rat", "far", "{0}", "{1}")
    assert code == 0 and out.strip() == "far, witness F={0}"
    code, out, _ = run(capsys, "rat", "far", "(0,1)", "(1/2,2)")
    assert code == 0 and out.strip() == "near"


def points_text(values):
    return ",".join(f"{{{k}}}" for k in values)


BIG = 10 ** 400


@pytest.mark.parametrize("argv, out", [
    (("far", f"(-inf,{-BIG})", f"({BIG},inf)"),
     f"far, witness F={{{-BIG}}}\n"),
    (("far", f"{{{BIG}}}", f"({BIG},inf)"), f"far, witness F={{{BIG}}}\n"),
    (("far", f"(-inf,{BIG})", f"({BIG},inf)", "--json"),
     '{\n  "schema": 1,\n  "verdict": "far",\n  "what": "far",\n'
     f'  "witness": "{{{BIG}}}"\n}}\n'),
    (("claim", f"{{{BIG - 1}}}", f"(-inf,{BIG})"),
     f"witness F={{{BIG - 1}}}\n"),
    (("claim", f"({-BIG},0)", f"(-inf,{BIG})", "--json"),
     '{\n  "alarm": false,\n  "schema": 1,\n  "what": "claim",\n'
     '  "witness": "{0}"\n}\n'),
    (("claim", f"({-BIG},inf)", "(-inf,inf)"), "witness F={}\n"),
], ids=["far-rays", "far-point-ray", "far-json", "claim-point", "claim-json",
        "claim-ray"])
def test_rat_400_digit_endpoint_beside_an_infinite_one(capsys, argv, out):
    # 10**400 is past the float range, where math.isinf raises.
    assert run(capsys, "rat", *argv) == (0, out, "")


def long_chain_document(path, levels):
    """twelve_points_s3.json with its two levels each repeated to fill
    the given number of levels."""
    doc = json.loads((FIXTURES / "twelve_points_s3.json").read_text())
    top, deep = doc["neighborhood_base"]
    half = levels // 2
    doc["neighborhood_base"] = [top] * half + [deep] * (levels - half)
    path.write_text(json.dumps(doc))
    return str(path)


def long_basis_document(path, members, least=True):
    """Twelve points under Z2 and the given number of distinct
    entourages, a core with two more pairs each and then the tail.  With
    a least member, the core is θ, the diagonal with 0-1 and 1-2 both
    ways, which is not transitive, and the tail is θ.  Without one, the
    core is the diagonal with 0-1 both ways, and the tail its two
    halves, the diagonal with 0-1 and the diagonal with 1-0."""
    pts = [f"p{i}" for i in range(12)]
    diag = [[x, x] for x in pts]
    if least:
        core = diag + [["p0", "p1"], ["p1", "p0"], ["p1", "p2"], ["p2", "p1"]]
        tail = [core]
    else:
        core = diag + [["p0", "p1"], ["p1", "p0"]]
        tail = [diag + [["p0", "p1"]], diag + [["p1", "p0"]]]
    extra = [[x, y] for x in pts for y in pts
             if x != y and [x, y] not in core]
    pairs = islice(combinations(extra, 2), members - len(tail))
    doc = {"schema": 1, "carrier": pts,
           "group": {"elements": ["e", "g"],
                     "table": [["e", "g"], ["g", "e"]]},
           "action": {"e": pts, "g": pts[6:] + pts[:6]},
           "neighborhood_base": [["e", "g"]],
           "uniformity": [core + [a, b] for a, b in pairs] + tail}
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_a_two_thousand_level_chain(tmp_path, capsys):
    # The deepest level witnesses every level: 0.2 s on 2 shared cores
    # under Python 3.11.7, where trying every level took 9-11 s.
    path = long_chain_document(tmp_path / "chain.json", 2000)
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (0, "")
    assert out == ("document: ok\ngroup: ok (order 6)\n"
                   "neighborhood_base: ok (2000 levels)\naction: ok\n")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("what", ["betag", "equinormal"])
def test_a_two_thousand_level_chain_reads_like_its_two_levels(
        tmp_path, capsys, what):
    # The repeated levels change nothing that the deepest level decides.
    want = run(capsys, what, fixture("twelve_points_s3.json"))
    path = long_chain_document(tmp_path / "chain.json", 2000)
    start = time.perf_counter()
    assert run(capsys, what, path) == want
    assert time.perf_counter() - start < 5.0
    assert want[0] == 0


def test_validate_eight_hundred_entourages_with_a_least_member(
        tmp_path, capsys):
    # B2 and B4 read θ alone and B3 holds: 0.3 s on 2 shared cores under
    # Python 3.11.7, where the scan over every pair of members took 59 s.
    path = long_basis_document(tmp_path / "basis.json", 800)
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (1, "")
    assert out == ("document: ok\ngroup: ok (order 2)\n"
                   "neighborhood_base: ok (1 levels)\naction: ok\n"
                   "basis conditions:\n  B1: pass\n  B2: pass\n"
                   "  B3: pass\n  B4: FAIL  counterexample=(0)\n")
    assert time.perf_counter() - start < 5.0


def test_validate_eight_hundred_entourages_without_a_least_member(
        tmp_path, capsys):
    # B3 fails at the last pair: each member gets the set of members
    # inside it, and a pair fails when the two sets are disjoint.  0.2 s
    # on 2 shared cores under Python 3.11.7, where testing each pair's
    # intersection against every member took about 50 s.
    path = long_basis_document(tmp_path / "basis.json", 800, least=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (1, "")
    assert out == ("document: ok\ngroup: ok (order 2)\n"
                   "neighborhood_base: ok (1 levels)\naction: ok\n"
                   "basis conditions:\n  B1: pass\n  B2: pass\n"
                   "  B3: FAIL  counterexample=(798, 799)\n  B4: pass\n")
    assert time.perf_counter() - start < 5.0


def test_rat_far_interleaved_seven_point_sets(capsys):
    # Two interleaved 7-point sets have 14 endpoints, and no chain of
    # fewer than 7 of them separates: the first witness, {0,2,...,12}, is
    # the 7,555th chain by size and then lexicographically.
    start = time.perf_counter()
    code, out, err = run(capsys, "rat", "far", points_text(range(0, 14, 2)),
                         points_text(range(1, 14, 2)))
    assert (code, out, err) == (0, "far, witness F={0,2,4,6,8,10,12}\n", "")
    assert time.perf_counter() - start < 1.0


def test_rat_far_interleaved_two_hundred_point_sets(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "rat", "far", points_text(range(0, 400, 2)),
                         points_text(range(1, 400, 2)))
    want = "far, witness F={" + ",".join(map(str, range(0, 400, 2))) + "}\n"
    assert (code, out, err) == (0, want, "")
    assert time.perf_counter() - start < 2.0


def test_rat_far_interleaved_five_thousand_point_sets(capsys):
    # The intersection test and the two saturations are merges: 0.35-0.5 s
    # on 2 shared cores under Python 3.11.7.
    start = time.perf_counter()
    code, out, err = run(capsys, "rat", "far",
                         points_text(range(0, 10000, 2)),
                         points_text(range(1, 10000, 2)))
    want = "far, witness F={" + ",".join(map(str, range(0, 10000, 2))) + "}\n"
    assert (code, out, err) == (0, want, "")
    assert time.perf_counter() - start < 5.0


def test_rat_claim_five_thousand_intervals_in_a_convex_target(capsys):
    # 0.2-0.4 s on 2 shared cores under Python 3.11.7.
    start = time.perf_counter()
    a = ",".join(f"({2 * k},{2 * k + 1})" for k in range(5000))
    code, out, err = run(capsys, "rat", "claim", a, "(-1,10000)")
    assert (code, out, err) == (0, "witness F={-1,9999}\n", "")
    assert time.perf_counter() - start < 5.0


def test_rat_far_many_endpoints_one_cut(capsys):
    # 5,001 endpoints, but the one-point chain {4999} separates.
    code, out, err = run(capsys, "rat", "far", points_text(range(5000)),
                         "{99999}")
    assert (code, out, err) == (0, "far, witness F={4999}\n", "")


def test_rat_far_large_pool_with_an_early_witness(capsys):
    # 15 endpoints, but the one-point chain {13} separates.
    code, out, _ = run(capsys, "rat", "far",
                       "(0,1),(2,3),(4,5),(6,7),(8,9),(10,11),(12,13)",
                       "{20}")
    assert (code, out) == (0, "far, witness F={13}\n")


def test_rat_far_bug_trap_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("eqprox.rationals._cells_hit",
                        lambda points, s: set(range(2 * len(points) + 1)))
    code, out, err = run(capsys, "rat", "far", "{0}", "{1}")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal error: the endpoint chain does not "
                          "separate disjoint sets")


@pytest.mark.parametrize("argv", [
    ("far", "{0}", "{1}"),
    ("claim", "{0},(0,1),{1}", "(-1,2)"),
], ids=["far", "claim"])
def test_rat_witness_reverification_trap_exits_4(capsys, monkeypatch, argv):
    # The search finds a witness on cell indices; saturate, which here
    # claims every cell, is the independent check that rejects it.
    everything = rat.RatSet.interval(rat.NEG_INF, rat.POS_INF)
    monkeypatch.setattr("eqprox.rationals.saturate",
                        lambda chain, ratset: everything)
    code, out, err = run(capsys, "rat", *argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal error: witness re-verification failed\n"


def test_rat_far_grammar_error(capsys):
    code, _, err = run(capsys, "rat", "far", "(0,1", "{1}")
    assert code == 2
    assert "input error" in err


def test_rat_tower_dot(tmp_path, capsys):
    out_file = tmp_path / "tower.dot"
    code, out, _ = run(capsys, "rat", "tower", "{}", "{0}", "{0,1}",
                       "--dot", str(out_file))
    assert code == 0
    dot = out_file.read_text()
    assert dot.count('"L') > 9  # 1 + 3 + 5 nodes plus edges
    assert "digraph tower" in dot
    assert "threads: 5" in out


def test_rat_tower_dot_write_error_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "rat", "tower", "{0}", "--dot", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
def test_rat_tower_builds_dot_text_only_for_dot(capsys, monkeypatch, flags):
    def unused(tower):
        raise AssertionError("tower_dot called without --dot")

    monkeypatch.setattr("eqprox.rationals.tower_dot", unused)
    code, out, err = run(capsys, "rat", "tower", "{0}", "{1}", *flags)
    assert (code, err) == (0, "")
    assert "threads" in out


def test_rat_tower_bug_trap_exits_4(capsys, monkeypatch):
    # A bonding map onto one cell is not surjective onto {0}'s three.
    monkeypatch.setattr("eqprox.rationals.bonding_map",
                        lambda fbig, fsmall: (0,) * (2 * len(fbig) + 1))
    code, out, err = run(capsys, "rat", "tower", "{0}", "{1}")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal error: bonding {0} -> {0} is not surjective\n"


def test_rat_tower_chain_text_is_sorted_and_deduplicated(capsys):
    code, out, err = run(capsys, "rat", "tower", "{1,0}", "{0,0}")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        "level 0: F={0}  cells=['(-inf,0)', '{0}', '(0,inf)']",
        "level 1: F={0,1}  cells=['(-inf,0)', '{0}', '(0,1)', '{1}', "
        "'(1,inf)']",
    ]


def test_rat_tower_level_cap_bounds_time(capsys):
    # k singleton chains close under union to 2**k - 1 levels: six give
    # 63, within the cap of 64; seven give 127 and stop at the cap.
    start = time.perf_counter()
    code, out, _ = run(capsys, "rat", "tower", *(f"{{{i}}}" for i in range(6)))
    assert code == 0 and out.count("level ") == 63
    code, out, err = run(capsys, "rat", "tower",
                         *(f"{{{i}}}" for i in range(7)))
    assert (code, out) == (3, "")
    assert err == "resource cap: tower needs more than 64 levels\n"
    assert time.perf_counter() - start < 1.0


def test_rat_claim(capsys):
    code, out, _ = run(capsys, "rat", "claim", "{0},(0,1),{1}", "(-1,2)")
    assert code == 0 and out.startswith("witness F=")
    code, _, err = run(capsys, "rat", "claim", "{0}", "(0,1),(2,3)")
    assert code == 2 and "not convex" in err


@pytest.mark.parametrize("a, o, message", [
    ("{0}", "(0,1),(2,3)", "target set (0,1),(2,3) is not convex"),
    ("{5}", "(0,1)", "{5} is not contained in (0,1)"),
])
def test_rat_claim_precondition_messages(capsys, a, o, message):
    code, out, err = run(capsys, "rat", "claim", a, o)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("claim", "{1e5000}", "(0,1e5001)"),
    ("tower", "{1e5000}"),
    ("far", "{0}", "(0,1E3)"),
])
def test_rat_exponent_literal_exits_2(capsys, argv):
    # Exponents are not part of the p/q grammar; 1e5000 would otherwise
    # build an integer too long to print.
    code, _, err = run(capsys, "rat", *argv)
    assert code == 2
    assert "Traceback" not in err
    assert "exponents are not supported" in err


@pytest.mark.parametrize("literal", ["1_000", "\u0661"])
def test_rat_literal_off_the_ascii_grammar_exits_2(capsys, literal):
    # `Fraction` reads both (the first from Python 3.11 on); the grammar
    # is ASCII digits without separators on every version.
    code, out, err = run(capsys, "rat", "far", "{" + literal + "}", "{1}")
    assert (code, out) == (2, "")
    assert f"bad rational {literal!r}" in err


@pytest.mark.parametrize("literal", ["1_000", "\u0661"])
def test_document_rational_off_the_ascii_grammar_exits_2(tmp_path, capsys,
                                                         literal):
    doc = json.loads(Path(fixture("z4_metric.json")).read_text(
        encoding="utf-8"))
    doc["metric"][0][1] = doc["metric"][1][0] = literal
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert f"bad rational {literal!r}" in err


@pytest.mark.parametrize("literal", ["1e5000", "1E5000"])
def test_document_exponent_rational_exits_2(tmp_path, capsys, literal):
    doc = json.loads(Path(fixture("z4_metric.json")).read_text(
        encoding="utf-8"))
    doc["metric"][0][1] = doc["metric"][1][0] = literal
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert f"bad rational '{literal}'" in err


def test_suite_filter_and_determinism(capsys):
    code, out1, _ = run(capsys, "suite", "--max-n", "2", "--seed", "7",
                        "--filter", "tgprox,betag")
    assert code == 0
    assert "tgprox" in out1 and "betag" in out1 and "axioms" not in out1
    code2, out2, _ = run(capsys, "suite", "--max-n", "2", "--seed", "7",
                         "--filter", "tgprox,betag")
    assert code2 == 0 and out1 == out2


def test_suite_unknown_filter(capsys):
    code, _, err = run(capsys, "suite", "--filter", "nonsense")
    assert code == 2
    assert "unknown invariant" in err


@pytest.mark.parametrize("value", [",", "", ",,"])
def test_suite_filter_naming_no_invariant_is_refused(capsys, value):
    # An empty filter is not "no filter": it would run the whole suite.
    assert run(capsys, "suite", "--filter", value) == (
        2, "", "input error: empty invariant filter: name at least one "
               "invariant\n")


@pytest.mark.parametrize("flag, value", [("--max-n", "-3"), ("--max-n", "0"),
                                         ("--max-group", "1")])
def test_suite_that_can_check_nothing_is_refused(capsys, flag, value):
    # No carrier, or no standard group: the main family, or the metric and
    # sigma families, would report "0 checks, all pass".
    code, out, err = run(capsys, "suite", flag, value,
                         "--filter", "tgprox,axioms,metric,sigma")
    assert (code, out) == (2, "")
    assert "nothing to check" in err


def test_suite_negative_control_bracket(capsys):
    code, out, _ = run(capsys, "suite", "--max-n", "2",
                       "--filter", "tgprox", "--inject", "bracket")
    assert code == 1
    assert "first counterexample" in out


def test_suite_negative_control_betag(capsys):
    code, out, _ = run(capsys, "suite", "--max-n", "2",
                       "--filter", "betag", "--inject", "betag")
    assert code == 1
    assert "first counterexample" in out


def test_suite_negative_control_nu(capsys):
    code, out, _ = run(capsys, "suite", "--max-n", "2",
                       "--filter", "tgprox", "--inject", "nu")
    assert code == 1
    assert "first counterexample" in out


@pytest.mark.parametrize("inject, sha256", [
    ("bracket",
     "0235b643dc9dbd4d3b44be8b7dd31fa03c604ea817f5e3bedeb7281b83e6e92d"),
    ("nu", "ef2e2bea1a6483232c832dac1bce583f2fcd7b0e96c54ac51687c7311e985a2d"),
    ("betag",
     "a916078babe7d31da9322b0c05ce261961b2d814321eaf1c67bf207f33a2e39c"),
])
def test_injected_suite_report_is_pinned(capsys, inject, sha256):
    # The counterexamples of an injected run pass through the beta_G,
    # translate-nearness and semigroup paths, so their report pins those
    # paths on inputs the uninjected digests never reach.
    code, out, err = run(capsys, "suite", "--json", "--max-n", "3",
                         "--filter", "tgprox,betag,ugclaims,gprox,semigr,"
                         "maximality,equinormal,densesub", "--inject", inject)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_one_parser_serves_consecutive_commands(capsys):
    assert build_parser() is build_parser()
    code1, out1, _ = run(capsys, "nu", fixture("z3_rotation.json"),
                         "--sets", "A", "B")
    code2, out2, _ = run(capsys, "ug", fixture("z3_rotation.json"), "--json")
    assert code1 == code2 == 0
    assert out1.strip() == "near"
    assert json.loads(out2)["what"] == "ug"
    with pytest.raises(SystemExit) as exc:
        main(["nu", fixture("z3_rotation.json"), "--sets", "A"])
    assert exc.value.code == 2
    capsys.readouterr()
    code3, out3, _ = run(capsys, "nu", fixture("z3_rotation.json"),
                         "--sets", "A", "B", "--json")
    assert code3 == 0
    assert json.loads(out3)["verdict"] == "near"


@pytest.mark.parametrize("flags", [["--json"], [], ["--sets", "A", "B"]],
                         ids=["table-json", "query-plain", "query-sets"])
def test_bug_trap_exits_4_not_as_a_failed_check(capsys, monkeypatch, flags):
    # `--json` writes the table; plain output and `--sets` read its map.
    def trap(a, u):
        raise InternalCheckFailure("planted trap")

    monkeypatch.setattr("eqprox.cli.nu_proximity", trap)
    code, out, err = run(capsys, "nu", fixture("z3_rotation.json"), *flags)
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err.strip() == "internal error: planted trap"
