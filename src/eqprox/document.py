"""Loading and validating instance documents.

An instance is a single UTF-8 JSON object describing a carrier, a group
(full table or permutation generators), an identity-neighborhood chain, an
action, at most one of an entourage basis and a metric, an optional order
(which may accompany either), and any named subsets.  Rational numbers travel as strings "p/q" so no float ever
enters the pipeline.  All referential-integrity failures raise
DocumentError naming the offending field and datum.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocumentError, ResourceCap
from .gaction import FiniteGroup, GActionGerm, NeighborhoodBase
from .metricprox import FiniteMetric, metric_uniformity
from .rationals import parse_fraction
from .setrel import DEFAULT_MAX_CARRIER, Carrier, Rel
from .uniformity import UnifBase


@dataclass
class Instance:
    carrier: Carrier
    germ: GActionGerm | None
    uniformity: UnifBase | None
    metric: FiniteMetric | None
    order: tuple | None
    subsets: dict

    def require_germ(self):
        if self.germ is None:
            raise DocumentError("instance has no group/action/neighborhood_base")
        return self.germ

    def require_uniformity(self):
        """The entourage basis, deriving one from the metric if needed."""
        if self.uniformity is not None:
            return self.uniformity
        if self.metric is not None:
            return metric_uniformity(self.metric)
        raise DocumentError("instance has neither a uniformity nor a metric")


def load_instance(source):
    """Parse an instance from a path, a JSON string, or a dict.

    A path-like source is a path.  A string with no newline is a path
    when it names an existing file or ends in ".json", and JSON text
    otherwise."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        name = str(source)
        if isinstance(source, os.PathLike) or "\n" not in name and (
                name.endswith(".json") or os.path.isfile(name)):
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DocumentError(f"cannot read {source}: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be a JSON object")
    return _build(doc)


def _build(doc):
    if "carrier" not in doc:
        raise DocumentError("missing field: carrier")
    carrier_names = doc["carrier"]
    if (not isinstance(carrier_names, list) or not carrier_names
            or not all(isinstance(x, str) for x in carrier_names)):
        raise DocumentError("carrier must be a nonempty list of strings")
    if len(carrier_names) > DEFAULT_MAX_CARRIER:
        raise ResourceCap(
            f"carrier size {len(carrier_names)} exceeds the exhaustive-check "
            f"cap of {DEFAULT_MAX_CARRIER}")
    try:
        carrier = Carrier(carrier_names)
    except ValueError as exc:
        raise DocumentError(f"carrier: {exc}") from None

    germ = None
    if "group" in doc:
        group, act = _build_group_action(doc, carrier)
        if "neighborhood_base" not in doc:
            raise DocumentError("a group requires a neighborhood_base")
        levels = []
        for li, level in enumerate(_typed(doc["neighborhood_base"], list,
                                          "neighborhood_base")):
            ids = []
            for name in _typed(level, list, f"neighborhood_base level {li}"):
                if not _known(name, group.name_index):
                    raise DocumentError(
                        f"neighborhood_base level {li}: unknown element {name!r}")
                ids.append(group.name_index[name])
            levels.append(frozenset(ids))
        try:
            ne = NeighborhoodBase(group, levels)
        except ValueError as exc:
            raise DocumentError(f"neighborhood_base: {exc}") from None
        try:
            germ = GActionGerm(group, ne, carrier, act)
        except ValueError as exc:
            raise DocumentError(f"action: {exc}") from None

    if "uniformity" in doc and "metric" in doc:
        raise DocumentError("uniformity and metric: give at most one of them")
    uniformity = None
    if "uniformity" in doc:
        basis = [_entourage(carrier, k, ent) for k, ent in
                 enumerate(_typed(doc["uniformity"], list, "uniformity"))]
        if not basis:
            raise DocumentError("uniformity must list at least one entourage")
        uniformity = UnifBase(carrier, basis)

    metric = None
    if "metric" in doc:
        try:
            rows = [[_rational(v) for v in _typed(row, list, "row")]
                    for row in _typed(doc["metric"], list, "the matrix")]
            metric = FiniteMetric(carrier, rows)
        except (ValueError, DocumentError) as exc:
            raise DocumentError(f"metric: {exc}") from None

    order = None
    if "order" in doc:
        order = tuple(_typed(doc["order"], list, "order: order"))
        if (not all(isinstance(x, str) for x in order)
                or sorted(order) != sorted(carrier.elements)):
            raise DocumentError(
                "order: order must list every carrier element exactly once")

    subsets = {}
    subsets_doc = _typed(doc.get("subsets", {}), dict, "subsets")
    for name, members in subsets_doc.items():
        bad = [m for m in _typed(members, list, f"subset {name!r}")
               if not _known(m, carrier.index)]
        if bad:
            raise DocumentError(f"subset {name!r}: unknown element {bad[0]!r}")
        subsets[name] = frozenset(members)

    return Instance(carrier=carrier, germ=germ, uniformity=uniformity,
                    metric=metric, order=order, subsets=subsets)


def _typed(value, kind, what):
    if not isinstance(value, kind):
        article = "a list" if kind is list else "an object"
        raise DocumentError(f"{what} must be {article}, got {value!r}")
    return value


def _known(name, index):
    # Only strings name keys; a list or object would raise in `in`.
    return isinstance(name, str) and name in index


def _entourage(carrier, k, pairs):
    """Entourage k of the document, each pair checked once: here that it
    is a list, and in the one pass of `Rel` that it unpacks to two carrier
    names, as it is read into the image masks.  A refused entourage is
    scanned again in order to name its first bad pair."""
    pairs = _typed(pairs, list, f"uniformity entourage {k}")
    try:
        if all(isinstance(pair, list) for pair in pairs):
            return Rel(carrier, pairs)
    except (TypeError, ValueError):
        # A name that is no carrier element, unhashable, or a pair of
        # another length.
        pass
    bad = next(pair for pair in pairs
               if not isinstance(pair, list) or len(pair) != 2
               or not all(_known(p, carrier.index) for p in pair))
    raise DocumentError(f"uniformity entourage {k}: bad pair {bad!r}")


def _rational(v):
    if isinstance(v, bool):
        raise DocumentError(f"bad rational {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return parse_fraction(v)
        except DocumentError:
            raise DocumentError(f"bad rational {v!r}") from None
    raise DocumentError(f"rationals must be strings or integers, got {v!r}")


def _build_group_action(doc, carrier):
    gdoc = doc["group"]
    if not isinstance(gdoc, dict):
        raise DocumentError("group must be an object")

    if "generators" in gdoc:
        gens = gdoc["generators"]
        if not isinstance(gens, dict) or not gens:
            raise DocumentError("group.generators must be a nonempty object")
        perms = []
        names = []
        for name in sorted(gens):
            perms.append(_perm(gens[name], carrier, f"group.generators.{name}"))
            names.append(name)
        try:
            group, elem_perms = FiniteGroup.from_permutations(perms)
        except ValueError as exc:
            raise DocumentError(f"group.generators: {exc}") from None
        # Re-label the generator elements with their given names; no
        # given name may be lost or land on a second element.
        index = {p: i for i, p in enumerate(elem_perms)}
        rename = {}
        for name, p in zip(names, perms):
            i = index[p]
            if i == group.e and name != "e":
                raise DocumentError(
                    f"group.generators: {name!r} is the identity permutation")
            if name == "e" and i != group.e:
                raise DocumentError(
                    "group.generators: 'e' is reserved for the identity")
            if i in rename:
                raise DocumentError(
                    f"group.generators: {rename[i]!r} and {name!r} are the "
                    "same permutation")
            rename[i] = name
        for i, name in rename.items():
            j = group.name_index.get(name, i)
            if j != i and j not in rename:
                raise DocumentError(
                    f"group.generators: {name!r} already names another element")
        return group.renamed(rename.get(i, nm) for i, nm in
                             enumerate(group.names)), elem_perms

    if "elements" not in gdoc or "table" not in gdoc:
        raise DocumentError("group needs either generators or elements+table")
    names = gdoc["elements"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise DocumentError("group.elements must be a list of strings")
    index = {nm: i for i, nm in enumerate(names)}
    table = gdoc["table"]
    if (not isinstance(table, list) or len(table) != len(names)
            or any(not isinstance(row, list) or len(row) != len(names)
                   for row in table)):
        raise DocumentError("group.table must be square over group.elements")
    mul = []
    for row in table:
        out = []
        for v in row:
            if not _known(v, index):
                raise DocumentError(f"group.table: unknown element {v!r}")
            out.append(index[v])
        mul.append(out)
    try:
        group = FiniteGroup(names, mul)
    except ValueError as exc:
        raise DocumentError(f"group.table: {exc}") from None

    if "action" not in doc:
        raise DocumentError("a table-given group requires an explicit action")
    act_spec = _typed(doc["action"], dict, "action")
    act = [None] * group.order
    for name, images in act_spec.items():
        if name not in index:
            raise DocumentError(f"action: unknown group element {name!r}")
        act[index[name]] = _perm(images, carrier, f"action.{name}")
    missing = [names[i] for i, p in enumerate(act) if p is None]
    if missing:
        raise DocumentError(f"action: missing permutation for {missing[0]!r}")
    return group, act


def _perm(images, carrier, where):
    if (not isinstance(images, list) or len(images) != carrier.n
            or not all(_known(x, carrier.index) for x in images)):
        raise DocumentError(f"{where}: must be a permutation of the carrier")
    p = tuple(carrier.index[x] for x in images)
    if sorted(p) != list(range(carrier.n)):
        raise DocumentError(f"{where}: images are not a permutation")
    return p


def rel_to_json(rel):
    return [[x, y] for x, y in rel._ordered_pairs()]


def subset_to_json(carrier, subset):
    return sorted(subset, key=lambda e: carrier.index[e])
