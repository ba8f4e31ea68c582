"""Paths, the suite family split and report digests shared by the bench scripts."""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

# The default suite split into one `run_suite(filters=...)` call per family
# group, in the suite's INVARIANTS order.  The main-family invariants share
# one pass over the instance family, so they stay together.
FAMILIES = (
    ("main", ("tgprox", "betag", "ugclaims", "gprox", "semigr", "maximality",
              "equinormal", "densesub")),
    ("axioms", ("axioms",)),
    ("rationals", ("rationals", "ordcomp")),
    ("metric", ("metric", "sigma")),
)

# Suite parameters per scale.  "full" is the default `eqprox suite` run;
# "tiny" keeps the bench's own test fast (the axiom and metric families
# have fixed sizes that max_n does not shrink, so tiny leaves them out).
SUITE_SCALES = {
    "full": {"max_n": 5, "max_group": 6,
             "families": ("main", "axioms", "rationals", "metric")},
    "tiny": {"max_n": 3, "max_group": 4, "families": ("main", "rationals")},
}

# Workload seeds map onto the suite seeds whose reports are recorded.
SUITE_SEEDS = 10


def family_filters(name):
    return dict(FAMILIES)[name]


def bootstrap():
    """Put the checkout's `src` first on sys.path; fail if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "eqprox", "__init__.py")):
        raise SystemExit(f"perfbench: no eqprox package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def digest(obj):
    """sha256 of the JSON text the CLI would print for `obj`."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)
