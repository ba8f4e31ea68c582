"""eqprox benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` of the
checkout and measured in-process, one caller, no threads.  With
`--trace 0` the run reports the end-to-end metrics, as times at the
reference speed that speed.py's probe reads while the program runs; with
`--trace 1` it makes one traced pass on inputs of its own, then the
untraced passes, and reports the per-layer metrics (see spans.py).
Outputs are checked outside the timed region; every failed check counts
in `failed`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (the
machine, the Python version, the commit, every detail metric and every
failure) is written to perfbench/out/.  See NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from common import OUT_DIR, ROOT, SRC, bootstrap
from speed import Probe

SETUPS = 5


def percentile(values, p):
    """Inclusive-method percentile (p = 50 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Samples:
    """Per-operation times over the run's passes.

    Every pass has the same operation slots, each filled with a request no
    other pass issues (see workloads.py), so a cache kept across calls
    cannot serve a later pass.  Only in a traced run does the first
    untraced pass replay the traced one.  An operation's time is its net
    wall time (less the probe's time inside it) at reference speed, once
    `settle` has read the probe; a slot's time is the median over its
    passes.
    """

    def __init__(self):
        # [pass index, slot label, class, start, end, net s, value s]
        self.ops = []
        self.passes = []   # net seconds per complete pass

    def settle(self, probe):
        for op in self.ops:
            op[6] = probe.normalise(op[3], op[4], op[5]) if probe else op[5]

    def slots(self, cls=None, field=6):
        out = {}
        for op in self.ops:
            if cls is None or op[2] == cls:
                out.setdefault(op[1], []).append(op[field])
        return [statistics.median(v) for v in out.values()]

    def total(self, cls=None):
        return sum(self.slots(cls))

    def pct(self, p, cls=None):
        return percentile(self.slots(cls), p)


def _purge():
    for name in [m for m in sys.modules
                 if m == "eqprox" or m.startswith("eqprox.")]:
        del sys.modules[name]


class Modules:
    """The eqprox modules of one import."""

    NAMES = ("cli", "suite", "document", "equivariant", "proximity",
             "uniformity", "rationals")

    def __init__(self):
        importlib.import_module("eqprox")
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"eqprox.{name}"))
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: eqprox imported from "
                             f"{self.cli.__file__}, not from {SRC}")


def set_up(workload, probe):
    """SETUPS fresh imports, each followed by the workload's warm-up;
    returns their (start, end, net seconds) and the modules of the last
    one.  The warm-up inputs are built before, so only the program's work
    is timed."""
    times = []
    for _ in range(SETUPS):
        _purge()
        spent = probe.spent if probe else 0.0
        t0 = perf_counter()
        mods = Modules()
        workload.warm_up(mods)
        t1 = perf_counter()
        times.append((t0, t1, t1 - t0 - (probe.spent - spent if probe
                                         else 0.0)))
    return times, mods


class Runner:
    def __init__(self, workload, tracer=None, probe=None):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failures = []
        self.op_counter = 0

    def run_pass(self, ops, samples, pass_index):
        tracer, probe = self.tracer, self.probe
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.current_op = self.op_counter
                tracer.enabled = True
            spent = probe.spent if probe else 0.0
            t0 = perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # noqa: BLE001 - a bug trap is a failure
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            net = t1 - t0 - (probe.spent - spent if probe else 0.0)
            self.op_counter += 1
            total += net
            samples.ops.append([pass_index, op.label, op.cls, t0, t1, net,
                                net])
            self.attempted += 1
            if error is None and probe is not None:
                error = probe.intact()
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # noqa: BLE001 - unreadable output
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
        samples.passes.append(total)

    def run_for(self, seconds, samples, first=None):
        """Complete passes until `seconds` have elapsed, and at least the
        workload's minimum number of passes.  Each pass's inputs are built
        (and its expected outputs computed) before the pass starts.  When
        `first` is given, the first pass runs those operations instead."""
        start = perf_counter()
        while (len(samples.passes) < self.workload.min_passes
               or perf_counter() - start < seconds):
            index = len(samples.passes)
            ops = first if index == 0 and first is not None \
                else self.workload.ops(index)
            self.run_pass(ops, samples, index)


def measure(args, workload, runner):
    """The traced pass, if asked for, then the untraced passes."""
    from workloads import TRACED

    samples = Samples()
    traced_ops = traced = tracer = None
    if args.trace:
        # The traced pass follows only the warm-up, so it sees no request
        # made before it.  The first untraced pass then replays its
        # operations: the overhead is the difference of the two.
        from spans import Tracer
        traced_ops = workload.ops(TRACED)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        traced = Samples()
        try:
            runner.run_pass(traced_ops, traced, TRACED)
        finally:
            tracer.uninstall()
            runner.tracer = None
    runner.run_for(args.seconds, samples, traced_ops)
    return samples, traced, tracer


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit()}


def commit():
    """HEAD of the checkout's git metadata, read directly; "unknown" when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="eqprox benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload (for the bench's test)")
    ap.add_argument("--inject", choices=("bracket", "nu", "betag"),
                    help="plant a suite defect (suite-default only)")
    args = ap.parse_args(argv)

    bootstrap()
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.inject)
    # The probe reads the machine's speed in untraced runs only: in a
    # traced one its time would land in the spans of the layers.
    probe = None if args.trace else Probe()
    if probe:
        probe.start()
    try:
        setups, mods = set_up(workload, probe)
        workload.mods = mods
        runner = Runner(workload, probe=probe)
        samples, traced, tracer = measure(args, workload, runner)
    finally:
        if probe:
            probe.stop()
    samples.settle(probe)
    setup_s = statistics.median(
        probe.normalise(*t) if probe else t[2] for t in setups)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "machine": machine()}

    if args.trace:
        metrics = tracer.metrics(traced.passes[0] - samples.passes[0])
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (samples.total(), "s"),
            "op_p50_ms": (1e3 * samples.pct(50), "ms"),
            "op_p95_ms": (1e3 * samples.pct(95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    details = workload.details(samples)
    details["raw_pass_s"] = (sum(samples.slots(field=5)), "s")
    if probe:
        details["mean_slowdown"] = (probe.mean_slowdown(), "x")
    failed = len(runner.failures)
    attempted = runner.attempted

    m = record["machine"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} "
          f"python={m['python']} commit={m['commit']}")
    replay = ", the first replaying the traced pass" if args.trace else ""
    speed = ("times at reference speed" if probe
             else "net wall times")
    print(f"samples: {len(samples.ops)} operations in {len(samples.passes)} "
          f"untraced passes with fresh inputs{replay}, each operation slot "
          f"timed by the median of its passes, {speed}; "
          f"set-up is the median of {SETUPS}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in details.items():
        print(f"detail {name} = {value:.6g} {unit}")
    print(f"detail failed_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations failed a check)")
    for line in runner.failures[:20]:
        print(f"FAILED {line}")

    record.update({
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u}
                    for k, (v, u) in details.items()},
        "attempted": attempted, "failed": failed,
        "failures": runner.failures,
        "samples": samples.ops,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
