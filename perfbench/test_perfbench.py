"""The benchmark's own test: every declared metric is printed with its unit,
a planted suite defect shows up as failed operations, not as a time, and
the speed probe scales times and notices a slowed interpreter.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from speed import REF_S, Probe  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The layers each workload exercises at the tiny scale, after the layer ->
# workload map of NOTES.md.  Every other layer reads 0 calls there by
# design.  The tiny suite leaves out the axiom and metric families, so no
# tiny run reaches metricprox; the full suite-default run does.
SUITE_LAYERS = {
    "proximity.check_axioms", "proximity.from_uniformity",
    "gaction.classify", "gaction.check_action_continuity",
    "uniformity.validate_basis", "setrel.compose", "setrel.invert",
    "setrel.Rel", "equivariant.nu_proximity", "equivariant.beta_g_proximity",
    "equivariant.compute_ug", "equivariant.is_g_invariant",
    "equivariant.is_action_compatible", "equivariant.semigroup_upgrade",
    "equivariant.check_equinormal", "rationals.decide_far",
    "rationals.build_tower", "rationals.saturate",
    "rationals.check_ordcomp_claim", "suite.run_suite", "suite.iter_family",
}
CLI_LAYERS = {
    "cli.main", "document.load_instance", "gaction.classify",
    "gaction.check_action_continuity", "uniformity.validate_basis",
    "setrel.compose", "setrel.invert", "setrel.Rel",
}
EXERCISED = {
    "suite-default": SUITE_LAYERS,
    "instance-queries": CLI_LAYERS | {
        "equivariant.nu_proximity", "equivariant.beta_g_proximity",
        "equivariant.compute_ug", "rationals.decide_far",
        "rationals.build_tower", "rationals.saturate",
        "rationals.check_ordcomp_claim", "rationals.parse_ratset"},
    "cap-checks": CLI_LAYERS | {
        "proximity.check_axioms", "proximity.from_uniformity",
        "equivariant.check_equinormal"},
}


def bench(workload, trace, *extra, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], (int, float))
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$"
        assert any(re.match(pattern, ln) for ln in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    lines, result = bench(workload, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed(workload):
    lines, result = bench(workload, 1)
    assert_metrics(lines, result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    for layer in sorted(EXERCISED[workload]):
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer


def test_same_seed_same_layer_counts():
    _, first = bench("instance-queries", 1, seed=11)
    _, second = bench("instance-queries", 1, seed=11)
    for name, value in first["metrics"].items():
        if name.endswith(".calls"):
            assert second["metrics"][name]["value"] == value["value"], name


def test_planted_defect_is_a_failure_not_a_timing():
    lines, result = bench("suite-default", 0, "--inject", "nu")
    assert result["failed"] > 0 and not result["correct"]
    assert_metrics(lines, result, SPEC["end_to_end"])
    frac = [ln for ln in lines if ln.startswith("detail failed_frac = ")]
    assert frac and float(frac[0].split()[3]) > 0
    assert any(ln.startswith("FAILED main: report not ok: tgprox")
               for ln in lines)


def test_probe_scales_to_reference_speed():
    probe = Probe()
    for k in range(40):  # the machine at half speed, one probe a second
        probe.at.append(float(k))
        probe.dur.append(2 * REF_S)
    probe.dur[20] = 50 * REF_S  # one probe cut by a context switch
    assert probe.normalise(10.0, 30.0, 4.0) == pytest.approx(2.0)
    assert probe.normalise(20.2, 20.3, 0.1) == pytest.approx(0.05)
    assert Probe().normalise(0.0, 1.0, 0.3) == 0.3


def test_probe_notices_a_slowed_interpreter():
    probe = Probe()
    probe.start()
    try:
        assert probe.intact() is None
        sys.setprofile(lambda *_: None)
        try:
            assert "profile" in probe.intact()
        finally:
            sys.setprofile(None)
    finally:
        probe.stop()
    assert probe.intact() == "the SIGALRM handler was replaced"
