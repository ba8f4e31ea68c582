"""Command-line surface.

Commands: validate, ug, nu, betag, equinormal, massive, rat (far | tower |
claim), suite.  Exit codes: 0 all checks pass, 1 a mathematical check
failed (a counterexample is printed), 2 input or parse error, 3 resource
cap exceeded, 4 internal error (a bug trap fired: a defect in eqprox, not
in the input).  Output is deterministic: identical inputs (and seed, for
the suite) give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import rationals as rat
from .document import load_instance, rel_to_json, subset_to_json
from .equivariant import beta_g_proximity, check_equinormal, compute_ug, \
    is_massive, nu_proximity, require_quasibounded
from .errors import DocumentError, InternalCheckFailure, \
    PreconditionFailure, ResourceCap
from .gaction import classify
from .proximity import P1_P5, _join_table, _map_passes, check_axioms, \
    from_uniformity, is_separated, meets_hex
from .suite import run_suite
from .uniformity import validate_basis

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_table_json(payload):
    """`_emit_json` for a payload with a proximity table, byte for byte.

    Every key but `rows_hex` goes through `json.dumps` with an empty list
    in its place, a line found exactly: `json.dumps` escapes every newline
    inside a string, so a newline, two spaces and a quote can only start a
    top-level key.  The list, 2**n >= 2 hex strings that JSON never
    escapes, goes to stdout a string at a time: joining and encoding the
    4 MB whole took 6-9 ms of a one-shot request at n = 12, the writes 2.
    """
    text = json.dumps({**payload, "rows_hex": []}, indent=2, sort_keys=True)
    head, tail = text.split('\n  "rows_hex": []', 1)
    *rows, last = payload["rows_hex"]
    write = sys.stdout.write
    write(head + '\n  "rows_hex": [\n    "')
    for row in rows:
        write(row)
        write('",\n    "')
    print(last, '"\n  ]', tail, sep="")


def _resolve_sets(instance, names):
    out = []
    for name in names:
        if name not in instance.subsets:
            raise DocumentError(f"no subset named {name!r} in the instance")
        out.append(instance.subsets[name])
    return out


def _prox_json(p):
    """The JSON fields of a one-map table (`meets_table`), written from
    its map without deriving a row: the join table of the map gives each
    subset's image, `meets_hex` the text of each image's row, and
    `separated` reads the map as the point block."""
    return {
        "carrier": list(p.carrier.elements),
        "subset_indexing": "little-endian bitmask over the carrier order",
        "rows_hex": meets_hex(p.carrier.n, _join_table(p.map)),
        "separated": is_separated(p),
    }


def cmd_validate(args):
    instance = load_instance(args.file)
    lines = ["document: ok"]
    failed = False
    if instance.germ is not None:
        g = instance.germ
        lines.append(f"group: ok (order {g.group.order})")
        lines.append(f"neighborhood_base: ok ({len(g.ne.levels)} levels)")
        lines.append("action: ok")
    if instance.uniformity is not None:
        rep = validate_basis(instance.uniformity)
        lines.append("basis conditions:")
        lines.extend("  " + ln for ln in rep.lines())
        if not rep.ok():
            failed = True
        else:
            axioms = check_axioms(from_uniformity(instance.uniformity))
            lines.append("induced proximity axioms:")
            lines.extend("  " + ln for ln in axioms.lines())
            if not axioms.ok(P1_P5):
                failed = True
        if instance.germ is not None and rep.ok():
            cls = classify(instance.germ, instance.uniformity)
            lines.append("classification:")
            lines.extend("  " + ln for ln in cls.lines())
    if instance.metric is not None:
        lines.append(f"metric: ok ({instance.metric.carrier.n} points)")
    if instance.order is not None:
        lines.append("order: ok")
    print("\n".join(lines))
    return EXIT_MATH if failed else EXIT_OK


def cmd_compute(args):
    instance = load_instance(args.file)
    germ = instance.require_germ()

    if args.what == "ug":
        u = instance.require_uniformity()
        out = compute_ug(germ, u)
        _classify_in_full(germ, u)
        if args.json:
            _emit_json({"schema": 1, "what": "ug",
                        "basis": [rel_to_json(r) for r in out.basis]})
        else:
            print(f"derived basis: {len(out.basis)} entourages")
            for k, r in enumerate(out.basis):
                print(f"  [{k}] {rel_to_json(r)}")
        return EXIT_OK

    if args.what in ("nu", "betag"):
        return _query(args, instance, germ)
    if args.what == "equinormal":
        rep = check_equinormal(germ)
        if args.json:
            _emit_json({"schema": 1, "what": "equinormal",
                        "equinormal": rep.equinormal,
                        "definitions_agree": rep.agree})
        else:
            print("\n".join(rep.lines()))
        return EXIT_OK if rep.equinormal and rep.agree else EXIT_MATH
    # massive, the last choice argparse allows
    u = instance.require_uniformity()
    verdict = is_massive(germ, u)
    _classify_in_full(germ, u)
    if args.json:
        _emit_json({"schema": 1, "what": "massive", "massive": verdict})
    else:
        print(f"massive: {'yes' if verdict else 'no'}")
    return EXIT_OK if verdict else EXIT_MATH


def _classify_in_full(germ, u):
    """Decide all six verdicts of the setting, though `ug` and `massive`
    print none of them.

    Both commands did this work while `classify` decided every verdict at
    once, and the benchmark's layer map (`EXERCISED` in
    `perfbench/test_perfbench.py`) still lists action continuity among the
    layers that `instance-queries` reaches.  The call goes when that entry
    does (ROADMAP item 22).
    """
    return classify(germ, u).witnesses


def _query(args, instance, germ):
    """A `nu` or `betag` request.  `--json` alone writes the table; plain
    output prints only its point block and `--sets` one verdict, read
    from its one map (`meets_table`) without a row.  A plain `nu` request
    whose map is no proximity (`_map_passes`) is refused as `ug` refuses
    it, or trapped."""
    prox = (nu_proximity(germ, instance.require_uniformity())
            if args.what == "nu" else beta_g_proximity(germ))
    if args.json and not args.sets:
        _emit_table_json({"schema": 1, "what": args.what,
                          **_prox_json(prox)})
        return EXIT_OK
    if args.sets:
        verdict = ("near" if prox.near(*_resolve_sets(instance, args.sets))
                   else "far")
        if args.json:
            _emit_json({"schema": 1, "what": args.what,
                        "sets": list(args.sets), "verdict": verdict})
        else:
            print(verdict)
        return EXIT_OK

    points = prox.map
    carrier = germ.carrier
    if args.what == "nu" and not _map_passes(points):
        require_quasibounded(germ, instance.require_uniformity())
        raise InternalCheckFailure(
            "translate nearness of a quasibounded uniformity is no proximity")
    print(f"proximity on {list(carrier.elements)}; "
          f"separated: {'yes' if is_separated(prox) else 'no'}")
    print("point nearness classes:")
    seen = set()
    for i, x in enumerate(carrier.elements):
        if x in seen:
            continue
        cls = [y for j, y in enumerate(carrier.elements)
               if points[i] >> j & 1 or i == j]
        seen.update(cls)
        print(f"  {subset_to_json(carrier, cls)}")
    return EXIT_OK


def cmd_rat(args):
    if args.ratcmd == "far":
        a = rat.parse_ratset(args.a)
        b = rat.parse_ratset(args.b)
        verdict = rat.decide_far(a, b)
        if args.json:
            _emit_json({"schema": 1, "what": "far",
                        "verdict": "far" if verdict.far else "near",
                        "witness": None if verdict.witness is None
                        else str(verdict.witness)})
        else:
            print(str(verdict))
        return EXIT_OK

    if args.ratcmd == "tower":
        chains = [rat.parse_chain(c) for c in args.chains]
        tower = rat.build_tower(chains)
        if args.dot:
            try:
                with open(args.dot, "w", encoding="utf-8") as fh:
                    fh.write(rat.tower_dot(tower))
            except OSError as exc:
                raise DocumentError(f"cannot write {args.dot}: {exc}") from None
        if args.json:
            _emit_json({
                "schema": 1, "what": "tower",
                "levels": [str(c) for c in tower.levels],
                "cells": [list(rat.orbit_space(c).labels())
                          for c in tower.levels],
                "threads": len(tower.threads()),
            })
        else:
            for i, chain in enumerate(tower.levels):
                labels = rat.orbit_space(chain).labels()
                print(f"level {i}: F={chain}  cells={list(labels)}")
            print(f"threads: {len(tower.threads())}")
            if args.dot:
                print(f"dot written to {args.dot}")
        return EXIT_OK

    # claim, the last subcommand argparse allows
    a = rat.parse_ratset(args.a)
    o = rat.parse_ratset(args.o)
    try:
        claim = rat.check_ordcomp_claim(a, o)
    except PreconditionFailure as exc:
        raise DocumentError(str(exc)) from None
    if args.json:
        _emit_json({"schema": 1, "what": "claim",
                    "witness": None if claim.alarm else str(claim.witness),
                    "alarm": claim.alarm})
    else:
        print(str(claim))
    return EXIT_MATH if claim.alarm else EXIT_OK


def cmd_suite(args):
    filters = None
    if args.filter:
        filters = [f for group in args.filter for f in group.split(",") if f]
    try:
        report = run_suite(max_n=args.max_n, seed=args.seed,
                           max_group=args.max_group, filters=filters,
                           inject=args.inject)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if args.json:
        _emit_json(report.to_json())
    else:
        print("\n".join(report.lines()))
    return EXIT_OK if report.ok else EXIT_MATH


@cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="eqprox",
        description="Finite-instance computations for group-aware "
                    "proximities and uniformities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    for what, needs_sets in (("ug", False), ("nu", True), ("betag", True),
                             ("equinormal", False), ("massive", False)):
        p = sub.add_parser(what, help=f"compute {what} for an instance")
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        if needs_sets:
            p.add_argument("--sets", nargs=2, metavar=("A", "B"),
                           help="named subsets to compare")
        else:
            p.set_defaults(sets=None)
        p.set_defaults(func=cmd_compute, what=what)

    p = sub.add_parser("rat", help="symbolic ordered-rationals model")
    ratsub = p.add_subparsers(dest="ratcmd", required=True)
    pf = ratsub.add_parser("far", help="decide farness of two sets")
    pf.add_argument("a")
    pf.add_argument("b")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_rat)
    pt = ratsub.add_parser("tower", help="build an orbit-space tower")
    pt.add_argument("chains", nargs="+")
    pt.add_argument("--dot", metavar="FILE")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_rat)
    pc = ratsub.add_parser("claim", help="find a chain keeping the "
                                         "saturation of A inside convex O")
    pc.add_argument("a")
    pc.add_argument("o")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_rat)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--max-group", type=int, default=6, dest="max_group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", action="append",
                   help="restrict to named invariants (comma-separated, "
                        "repeatable)")
    p.add_argument("--inject", choices=("bracket", "nu", "betag"),
                   help="plant a deterministic defect (negative control)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionFailure as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return EXIT_MATH
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalCheckFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
