"""Check the default-scale suite reports against perfbench/digests.json.

For every recorded suite seed this runs the suite's four per-family
`run_suite` calls at the full (default `eqprox suite`) scale, as
perfbench/record_digests.py does, and compares the digest of each family's
invariants and of the merged report with the recorded ones.  It also runs
the plain `eqprox suite` path, one unfiltered `run_suite` call over every
family, and compares its report with the recorded report digest, which
record_digests.py took from that call.  The digest file is only read.
Run it from any directory:

    python3 tools/check_suite_digests.py

It prints one line per seed, the verdict followed by the CPU seconds of
each family and of the unfiltered run, and exits 1 if any digest differs.
"""

from __future__ import annotations

import os
import sys
import time

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH_DIR)

from common import SUITE_SCALES, bootstrap, digest, family_filters, \
    load_digests  # noqa: E402
from record_digests import merged_report  # noqa: E402

SCALE = "full"


def seed_digests(seed):
    """Each family's invariants digest, the merged report's and the
    unfiltered report's, by name, and the CPU seconds of each."""
    from eqprox.suite import run_suite
    cfg = SUITE_SCALES[SCALE]
    out = {}
    cpu = {}
    invariants = []
    for fam in cfg["families"]:
        start = time.process_time()
        part = run_suite(filters=list(family_filters(fam)),
                         max_n=cfg["max_n"], max_group=cfg["max_group"],
                         seed=seed).to_json()
        cpu[fam] = time.process_time() - start
        out[fam] = digest(part["invariants"])
        invariants.extend(part["invariants"])
    out["report"] = digest(merged_report(seed, cfg["max_n"], cfg["max_group"],
                                         invariants))
    start = time.process_time()
    whole = run_suite(max_n=cfg["max_n"], max_group=cfg["max_group"],
                      seed=seed).to_json()
    cpu["unfiltered"] = time.process_time() - start
    out["unfiltered"] = digest(whole)
    return out, cpu


def main():
    bootstrap()
    recorded = load_digests()[SCALE]
    bad = 0
    for seed in sorted(recorded, key=int):
        got, cpu = seed_digests(int(seed))
        # The unfiltered report is the one the recorded digest was taken of.
        want = dict(recorded[seed], unfiltered=recorded[seed]["report"])
        diff = sorted(k for k in want if got.get(k) != want[k])
        verdict = "ok" if not diff else "DIFFERS in " + ", ".join(diff)
        times = ", ".join(f"{fam} {s:.1f} s" for fam, s in cpu.items())
        print(f"{SCALE} seed {seed}: {verdict}  {times}", flush=True)
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
