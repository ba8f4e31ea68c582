"""The three workloads: their inputs, their timed operations and the checks
made on each operation's output outside the timed region.

A workload builds each pass's list of operations from the seed and the
pass index, so no pass repeats a request of another: every pass has the
same operation slots (the same shapes of input, in labels that name the
slot), with fresh contents.  The traced pass has an index of its own.
Each operation is one call into a public entry point, `run_suite` or the
CLI's `main`, and carries the check its output must pass.  The program is
reached only through `self.mods`, the modules imported by the latest
set-up, so that the tracer and the set-up see the same functions.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import inputs
from common import FAMILIES, SUITE_SCALES, SUITE_SEEDS, digest, \
    family_filters, load_digests


class Op:
    """One timed call.  `cls` groups operations for the detail metrics."""

    __slots__ = ("label", "cls", "call", "check")

    def __init__(self, label, cls, call, check):
        self.label = label
        self.cls = cls
        self.call = call
        self.check = check


def _cli(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The pass index of the traced pass.  It never equals an untraced pass's
# index, so the traced pass issues requests no other pass has issued.
TRACED = -1


def pass_rng(seed, pass_index):
    """The generator for one pass's inputs: the same seed and pass index
    give the same inputs."""
    return random.Random(f"{seed}/{pass_index}")


def _expect_exit0(result):
    code, _out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    return None


class _CliWorkload:
    """A workload of CLI requests.  Its warm-up requests, `warm_argv`, are
    built at construction, so that set-up times only the program."""

    mods = None

    def warm_up(self, mods):
        for argv in self.warm_argv:
            _cli(mods, argv)

    def _caller(self, argv):
        return lambda: _cli(self.mods, argv)


# ---------------------------------------------------------------------------
# suite-default


class SuiteDefault:
    """The default `eqprox suite` run as one `run_suite` call per family
    group.  The report must be ok and match the digest recorded for the
    suite seed.  Pass p runs suite seed (seed + p) mod SUITE_SEEDS and the
    traced pass (seed - 1) mod SUITE_SEEDS, all of them recorded seeds."""

    name = "suite-default"
    min_passes = 1

    def __init__(self, seed, scale, inject=None):
        cfg = SUITE_SCALES[scale]
        self.max_n, self.max_group = cfg["max_n"], cfg["max_group"]
        self.families = cfg["families"]
        self.seed = seed
        self.inject = inject
        self.digests = load_digests().get(scale, {})
        missing = [s for s in range(SUITE_SEEDS)
                   if str(s) not in self.digests]
        if missing:
            raise SystemExit(f"perfbench: no recorded suite digest for "
                             f"scale {scale} seeds {missing}")
        self.mods = None

    def warm_up(self, mods):
        mods.suite.run_suite(max_n=2, max_group=2, filters=["tgprox"])

    def ops(self, pass_index):
        suite_seed = (self.seed + pass_index) % SUITE_SEEDS
        return [self._op(fam, suite_seed) for fam in self.families]

    def _op(self, fam, suite_seed):
        filters = list(family_filters(fam))
        recorded = self.digests[str(suite_seed)][fam]

        def call():
            return self.mods.suite.run_suite(
                max_n=self.max_n, seed=suite_seed,
                max_group=self.max_group, filters=filters,
                inject=self.inject)

        def check(report):
            data = report.to_json()
            if not data["ok"]:
                bad = [r for r in data["invariants"]
                       if r["passed"] != r["checked"]]
                return f"report not ok: {bad[0]['name']} " \
                       f"{bad[0]['first_counterexample']}"
            if digest(data["invariants"]) != recorded:
                return "report differs from the recorded digest"
            return None

        return Op(fam, fam, call, check)

    def details(self, samples):
        out = {"suite_s": (samples.total(), "s")}
        for fam, _ in FAMILIES:
            if fam in self.families:
                out[f"family_{fam}_s"] = (samples.total(fam), "s")
        return out


# ---------------------------------------------------------------------------
# instance-queries


QUERY_SCALES = {
    "full": {"sizes": (10, 11, 12), "rat_each": 80},
    "tiny": {"sizes": (6, 7), "rat_each": 8},
}

# The instance commands run on every document: 14 per document, so the
# 15 full-scale documents give 210 instance requests per pass, enough for
# ten samples beyond the 95th percentile.
INSTANCE_COMMANDS = tuple(
    [(what, flags) for what in ("nu", "betag") for flags in (
        (), ("--json",), ("--sets", "A", "B"), ("--sets", "B", "A"),
        ("--sets", "A", "B", "--json"))]
    + [("ug", ()), ("ug", ("--json",)), ("massive", ()),
       ("massive", ("--json",))])


def _hex_digest(rows_hex):
    return hashlib.sha256(",".join(rows_hex).encode("ascii")).hexdigest()


class InstanceQueries(_CliWorkload):
    """One-shot CLI requests on seeded documents at the carrier cap, with
    `rat` requests mixed in.  Closed loop, one caller."""

    name = "instance-queries"
    min_passes = 4

    def __init__(self, seed, scale, inject=None):
        cfg = QUERY_SCALES[scale]
        self.seed = seed
        self.sizes, self.rat_each = cfg["sizes"], cfg["rat_each"]
        rng = random.Random(0)
        self.warm_argv = [
            ["betag", inputs.make_document(rng, n, "Z2", 1, 1),
             "--sets", "A", "B"] for n in self.sizes]
        self.warm_argv.append(["rat", "far", "{0}", "{1}"])

    def _expect(self, doc):
        """Expected answers for one document, from the library's other
        path: nu must equal the proximity of the derived basis, betag must
        equal nu over the discrete basis."""
        m = self.mods
        inst = m.document.load_instance(doc)
        germ, u = inst.germ, inst.require_uniformity()
        carrier = inst.carrier
        ug = m.equivariant.compute_ug(germ, u)
        nu = m.proximity.from_uniformity(ug)
        bg = m.equivariant.nu_proximity(
            germ, m.uniformity.discrete_basis(carrier))
        a, b = inst.subsets["A"], inst.subsets["B"]
        return {
            "nu": self._summary(m, nu, carrier, a, b),
            "betag": self._summary(m, bg, carrier, a, b),
            "ug": [m.document.rel_to_json(r) for r in ug.basis],
        }

    @staticmethod
    def _summary(m, prox, carrier, a, b):
        """What the CLI must print for this table, in each output form."""
        els = carrier.elements
        separated = m.proximity.is_separated(prox)
        lines = [f"proximity on {list(els)}; separated: "
                 f"{'yes' if separated else 'no'}",
                 "point nearness classes:"]
        seen = set()
        for i, x in enumerate(els):
            if x in seen:
                continue
            cls = [y for j, y in enumerate(els)
                   if i == j or prox.rows[1 << i] >> (1 << j) & 1]
            seen.update(cls)
            lines.append(f"  {cls}")
        return {"digest": _hex_digest(format(r, "x") for r in prox.rows),
                "separated": separated,
                "text": "\n".join(lines) + "\n",
                "AB": prox.near(a, b), "BA": prox.near(b, a)}

    def ops(self, pass_index):
        """The pass's documents and rat requests, in seeded order.  The
        document shapes and the request kinds are fixed per slot; the seed
        and the pass index pick their contents."""
        rng = pass_rng(self.seed, pass_index)
        ops = []
        di = 0
        for n in self.sizes:
            for k, kind in enumerate(inputs.GROUP_KINDS):
                doc = inputs.make_document(
                    rng, n, kind, 1 + (n + k) % 2, 1 + k % 2, deep=n + k)
                expect = self._expect(doc)
                for what, flags in INSTANCE_COMMANDS:
                    argv = [what, doc, *flags]
                    label = f"{what}{''.join(flags)}/n{n}/doc{di}"
                    ops.append(Op(label, "instance", self._caller(argv),
                                  self._instance_check(expect, what, flags)))
                di += 1
        rat = []
        for i in range(self.rat_each):
            json_flag = ("--json",) if i % 2 else ()
            a, b = inputs.make_far_pair(rng, intersecting=i % 4 >= 2)
            rat.append(("far", (a, b), json_flag))
            rat.append(("tower", tuple(inputs.make_tower_chains(rng)),
                        json_flag))
            a, o = inputs.make_claim(rng)
            rat.append(("claim", (a, o), json_flag))
        for ri, (sub, args, flags) in enumerate(rat):
            argv = ["rat", sub, *args, *flags]
            ops.append(Op(f"rat-{sub}{''.join(flags)}/{ri}", "rat",
                          self._caller(argv),
                          self._rat_check(sub, args, bool(flags))))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _instance_check(exp, what, flags):
        def check(result):
            bad = _expect_exit0(result)
            if bad:
                return bad
            out = result[1]
            if what == "massive":
                got = (json.loads(out)["massive"] if flags
                       else out == "massive: yes\n")
                return None if got is True else f"massive: {out!r}"
            if what == "ug":
                if flags:
                    got = json.loads(out)["basis"] == exp["ug"]
                else:
                    got = out == "".join(
                        [f"derived basis: {len(exp['ug'])} entourages\n"]
                        + [f"  [{k}] {r}\n" for k, r in enumerate(exp["ug"])])
                return None if got else "ug basis differs"
            e = exp[what]
            if "--sets" in flags:
                near = e[flags[1] + flags[2]]
                want = "near" if near else "far"
                got = (json.loads(out)["verdict"] if "--json" in flags
                       else out.strip())
                return None if got == want else f"verdict {got}, want {want}"
            if "--json" in flags:
                payload = json.loads(out)
                if _hex_digest(payload["rows_hex"]) != e["digest"]:
                    return f"{what} table differs"
                if payload["separated"] != e["separated"]:
                    return f"{what} separated flag differs"
                return None
            return None if out == e["text"] else f"{what} classes differ"
        return check

    def _rat_check(self, sub, args, as_json):
        def check(result):
            bad = _expect_exit0(result)
            if bad:
                return bad
            out = result[1]
            rat = self.mods.rationals
            if sub == "tower":
                return _check_tower(args, out, as_json)
            if as_json:
                payload = json.loads(out)
                witness = payload["witness"]
                verdict = payload.get("verdict")
            else:
                text = out.strip()
                witness = text.split("F=", 1)[1] if "F=" in text else None
                verdict = text.split(",")[0]
            if sub == "far":
                a, b = (rat.parse_ratset(s) for s in args)
                if a.intersects(b):
                    return None if verdict == "near" else "intersecting far"
                if verdict != "far" or witness is None:
                    return "disjoint sets not far"
                chain = rat.parse_chain(witness)
                if rat.saturate(chain, a).intersects(rat.saturate(chain, b)):
                    return f"witness {witness} does not separate"
                return None
            a, o = (rat.parse_ratset(s) for s in args)
            if witness is None:
                return "claim alarm"
            chain = rat.parse_chain(witness)
            if not rat.saturate(chain, a).issubset(o):
                return f"witness {witness} leaves the target"
            return None
        return check

    def details(self, samples):
        out = {}
        for cls, key in (("instance", "query"), ("rat", "rat")):
            out[f"{key}_p50_ms"] = (1e3 * samples.pct(50, cls), "ms")
            out[f"{key}_p95_ms"] = (1e3 * samples.pct(95, cls), "ms")
        return out


def _chain_values(text):
    inner = text.strip()[1:-1].strip()
    return frozenset(Fraction(p) for p in inner.split(",")) if inner else \
        frozenset()


def _chain_text(values):
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _check_tower(chains, out, as_json):
    """Levels are the union closure of the input chains, each level has
    2m+1 cells, and the threads are the cells of the top level."""
    family = {_chain_values(c) for c in chains}
    grown = True
    while grown:
        grown = False
        for f in list(family):
            for g in list(family):
                if f | g not in family:
                    family.add(f | g)
                    grown = True
    want_levels = sorted(_chain_text(f) for f in family)
    top = max(len(f) for f in family)
    if as_json:
        payload = json.loads(out)
        levels, cells = payload["levels"], payload["cells"]
        threads = payload["threads"]
    else:
        lines = out.splitlines()
        levels = [ln.split("F=", 1)[1].split("  cells=")[0]
                  for ln in lines if ln.startswith("level ")]
        cells = [ast.literal_eval(ln.split("  cells=", 1)[1])
                 for ln in lines if ln.startswith("level ")]
        threads = int(lines[-1].split(":")[1])
    if sorted(levels) != want_levels:
        return f"tower levels {levels} != {want_levels}"
    for lev, cl in zip(levels, cells):
        if len(cl) != 2 * len(_chain_values(lev)) + 1:
            return f"level {lev} has {len(cl)} cells"
    if threads != 2 * top + 1:
        return f"{threads} threads, want {2 * top + 1}"
    return None


# ---------------------------------------------------------------------------
# cap-checks


CAP_SCALES = {
    "full": {"validate": (9, 10, 11), "equinormal": (8, 9, 10)},
    "tiny": {"validate": (5, 6), "equinormal": (4, 5)},
}


class CapChecks(_CliWorkload):
    """A few huge exhaustive tables: `validate` and `equinormal` near the
    carrier cap, on documents of fixed shape whose contents the seed and
    the pass index pick."""

    name = "cap-checks"
    min_passes = 2

    def __init__(self, seed, scale, inject=None):
        self.seed = seed
        self.cfg = CAP_SCALES[scale]
        rng = random.Random(0)
        self.warm_argv = [
            ["validate", inputs.make_document(rng, 5, "S3", 2, 2)],
            ["equinormal", inputs.make_document(rng, 4, "S4", 1, 1, deep=1)]]

    def ops(self, pass_index):
        rng = pass_rng(self.seed, pass_index)
        ops = []
        for n in self.cfg["validate"]:
            doc = inputs.make_document(rng, n, "S3", 2, 2)
            ops.append(Op(f"validate/n{n}", "validate",
                          self._caller(["validate", doc]), _check_validate))
        for n in self.cfg["equinormal"]:
            doc = inputs.make_document(rng, n, "S4", 1, 1, deep=1)
            ops.append(Op(f"equinormal/n{n}", "equinormal",
                          self._caller(["equinormal", doc, "--json"]),
                          _check_equinormal))
        return ops

    def details(self, samples):
        return {"validate_s": (samples.total("validate"), "s"),
                "equinormal_s": (samples.total("equinormal"), "s")}


def _check_validate(result):
    bad = _expect_exit0(result)
    if bad:
        return bad
    lines = result[1].splitlines()
    for header, names in (("basis conditions:", ("B1", "B2", "B3", "B4")),
                          ("induced proximity axioms:",
                           ("P1", "P2", "P3", "P4", "P5"))):
        if header not in lines:
            return f"no {header!r} section"
        section = lines[lines.index(header) + 1:]
        for name in names:
            if f"  {name}: pass" not in section:
                return f"{name} does not pass"
    return None


def _check_equinormal(result):
    code, out, err = result
    payload = json.loads(out) if out.startswith("{") else {}
    if payload.get("definitions_agree") is not True:
        return f"definitions disagree (exit {code}) {err.strip()[:200]}"
    if code != 0 or payload.get("equinormal") is not True:
        return f"not equinormal (exit {code})"
    return None


WORKLOADS = {w.name: w for w in (SuiteDefault, InstanceQueries, CapChecks)}
