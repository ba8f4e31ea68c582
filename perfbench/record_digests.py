"""Record the suite report digests that the suite-default workload checks.

For each scale and suite seed this runs the suite once unfiltered and once
as the per-family calls the benchmark makes, asserts that the merged
per-family report equals the unfiltered one, and writes the digests to
digests.json.  Run it from the repository root only when the suite's
output is meant to change:

    python3 perfbench/record_digests.py

It records every suite seed below SUITE_SEEDS at every scale of
SUITE_SCALES, the seeds the benchmark maps its workload seeds onto.
"""

from __future__ import annotations

import json
import os
import sys

from common import DIGESTS, SUITE_SCALES, SUITE_SEEDS, bootstrap, digest, \
    family_filters


def merged_report(seed, max_n, max_group, invariants):
    """The `--json` suite report assembled from per-family invariant lists."""
    return {"schema": 1, "seed": seed, "max_n": max_n,
            "max_group": max_group,
            "ok": all(r["passed"] == r["checked"] for r in invariants),
            "invariants": invariants}


def record(scale, seed):
    from eqprox.suite import run_suite
    cfg = SUITE_SCALES[scale]
    params = {"max_n": cfg["max_n"], "max_group": cfg["max_group"],
              "seed": seed}
    wanted = [f for fam in cfg["families"] for f in family_filters(fam)]
    whole = run_suite(filters=None if scale == "full" else wanted,
                      **params).to_json()
    out = {}
    invariants = []
    for fam in cfg["families"]:
        part = run_suite(filters=list(family_filters(fam)), **params).to_json()
        out[fam] = digest(part["invariants"])
        invariants.extend(part["invariants"])
    merged = merged_report(seed, cfg["max_n"], cfg["max_group"], invariants)
    if merged != whole:
        raise SystemExit(f"{scale} seed {seed}: per-family reports differ "
                         "from the single call")
    if not whole["ok"]:
        raise SystemExit(f"{scale} seed {seed}: the suite report is not ok")
    out["report"] = digest(whole)
    return out


def main():
    bootstrap()
    data = {}
    for scale in sorted(SUITE_SCALES):
        table = data.setdefault(scale, {})
        for seed in range(SUITE_SEEDS):
            table[str(seed)] = record(scale, seed)
            print(f"{scale} seed {seed}: {table[str(seed)]['report']}",
                  flush=True)
    with open(DIGESTS + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(DIGESTS + ".tmp", DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
