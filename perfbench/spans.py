"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions listed in LAYERS.  Every
module namespace that binds one of them is patched, because
`from .x import f` makes a separate binding in each importing module.
A wrapped call records a span: function, parent span, operation id, start
and end.  Generator functions are timed over their whole iteration: each
resumption is a span of its own, and the call is counted once.  Spans stay
in memory in flat arrays and are written out when the benchmark ends.

Self time is a span's duration minus the time its direct child spans
cover.  For classify, check_action_continuity and validate_basis the
tracer also counts repeats: calls whose (germ, basis) arguments, compared
by value, were already seen in the same traced pass.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

# (module, attribute).  "setrel.Rel" is the relation constructor: its
# __init__ is wrapped, so the class object itself stays untouched.
LAYERS = (
    ("proximity", "check_axioms"),
    ("proximity", "from_uniformity"),
    ("gaction", "classify"),
    ("gaction", "check_action_continuity"),
    ("uniformity", "validate_basis"),
    ("setrel", "compose"),
    ("setrel", "invert"),
    ("setrel", "Rel"),
    ("equivariant", "nu_proximity"),
    ("equivariant", "beta_g_proximity"),
    ("equivariant", "compute_ug"),
    ("equivariant", "is_g_invariant"),
    ("equivariant", "is_action_compatible"),
    ("equivariant", "semigroup_upgrade"),
    ("equivariant", "check_equinormal"),
    ("metricprox", "metric_uniformity"),
    ("metricprox", "metric_g_proximity"),
    ("metricprox", "is_isometric"),
    ("rationals", "decide_far"),
    ("rationals", "build_tower"),
    ("rationals", "saturate"),
    ("rationals", "check_ordcomp_claim"),
    ("rationals", "parse_ratset"),
    ("document", "load_instance"),
    ("cli", "main"),
    ("suite", "run_suite"),
    ("suite", "iter_family"),
)

# Layers whose repeated (germ, basis) arguments are counted.
REPEAT_LAYERS = ("gaction.classify", "gaction.check_action_continuity",
                 "uniformity.validate_basis")

LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)


def _germ_key(a):
    return (a.group.mul, a.ne.levels, a.carrier.elements, a.act)


def _basis_key(u):
    return (u.carrier.elements, tuple(r.pairs for r in u.basis))


class Tracer:
    def __init__(self):
        self.fn = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.calls = [0] * len(LAYERS)
        self.repeats = [0] * len(LAYERS)
        self.stack = []
        self.current_op = -1
        self.enabled = False
        self._repeat_idx = {LAYER_NAMES.index(n) for n in REPEAT_LAYERS}
        self._seen = set()
        self._keys = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, idx):
        span = len(self.fn)
        self.fn.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self.stack.append(span)
        self.t0.append(perf_counter())
        return span

    def _close(self, span):
        self.t1[span] = perf_counter()
        self.stack.pop()

    def _key(self, obj, make):
        # Objects stay referenced so that their ids are never reused.
        hit = self._keys.get(id(obj))
        if hit is None:
            hit = self._keys[id(obj)] = (obj, make(obj))
        return hit[1]

    def _count_repeat(self, idx, args):
        if idx in self._repeat_idx:
            if len(args) == 2:  # (germ, basis); validate_basis takes a basis
                key = (idx, self._key(args[0], _germ_key),
                       self._key(args[1], _basis_key))
            else:
                key = (idx, self._key(args[0], _basis_key))
            if key in self._seen:
                self.repeats[idx] += 1
            else:
                self._seen.add(key)

    def _wrap(self, idx, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                tracer.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[idx] += 1
            tracer._count_repeat(idx, args + tuple(kwargs.values()))
            span = tracer._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return wrapper

    def install(self):
        """Patch every eqprox module namespace that binds a layer function."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "eqprox" or name.startswith("eqprox.")}
        for idx, (mname, attr) in enumerate(LAYERS):
            home = mods[f"eqprox.{mname}"]
            orig = getattr(home, attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._undo.append((orig, "__init__", init))
                orig.__init__ = self._wrap(idx, init)
                continue
            wrapped = self._wrap(idx, orig)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        child = [0.0] * len(dur)
        for span, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[span]
        out = [0.0] * len(LAYERS)
        for span, idx in enumerate(self.fn):
            out[idx] += dur[span] - child[span]
        return out

    def metrics(self, overhead_s):
        selfs = self.self_times()
        out = {}
        for idx, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (selfs[idx], "s")
            if name in REPEAT_LAYERS:
                calls = self.calls[idx]
                frac = self.repeats[idx] / calls if calls else 0.0
                out[f"{name}.repeat_frac"] = (frac, "fraction")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path):
        """One line per span: layer, operation, parent span, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tlayer\top\tparent\tstart_s\tend_s\n")
            for span, idx in enumerate(self.fn):
                fh.write(f"{span}\t{LAYER_NAMES[idx]}\t{self.op[span]}\t"
                         f"{self.parent[span]}\t{self.t0[span]:.9f}\t"
                         f"{self.t1[span]:.9f}\n")
