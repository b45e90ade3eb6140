"""Wrapper-based tracer for the per-layer run.

`Tracer.install()` replaces each function in TRACED with a wrapper that
records a span (name, start, end, parent span, op id) around every call.
The wrapper is bound in every `fcpm` module namespace that holds the
original object, so calls through `from .x import f` names are traced too.
Spans stay in memory; `summary()` turns them into per-layer calls, busy
time and self time, where a span's self time is its duration minus the
durations of its child spans. The root span of each op is "bench.op"; its
self time is the op's time that no traced function covers. Once set-up is
over (`reset()`), only calls inside an op are recorded. `check_spans()`
verifies that the spans of every op nest, which is what makes the self
times of an op add up to its wall time.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# (module, attribute) -> layer metric prefix. "MPoly.__mul__" is patched on
# the class, so every product (including those inside __pow__) is traced.
TRACED = (
    ("params", "validate"),
    ("params", "transform_parameters"),
    ("series", "evaluate"),
    ("series", "evaluate_phi"),
    ("series", "coefficient_table"),
    ("series", "phi_series"),
    ("diffops", "apply"),
    ("diffops", "annihilation_residual"),
    ("singular", "build_R_x"),
    ("singular", "evaluate_R_x"),
    ("charvar", "specialize"),
    ("charvar", "symbols"),
    ("charvar", "hilbert_function"),
    ("charvar", "rank_at"),
    ("rings", "rank_exact"),
    ("rings", "MPoly.__mul__"),
    ("integral", "coefficient_via_integral"),
    ("integral", "dirichlet_integral"),
    ("integral", "gamma_value"),
    ("cli", "run"),
)

ROOT = "bench.op"


def span_name(module, attr):
    return f"{module}.{attr.replace('.__mul__', '.mul')}"


LAYER_NAMES = tuple(span_name(mod, attr) for mod, attr in TRACED)

# Work counters filled by the wrappers' `after` hooks.
COUNTERS = (
    "series.evaluate.shells",
    "series.evaluate.terms",
    "series.evaluate.capped",
    "series.coefficient_table.entries",
    "diffops.apply.coeffs_out",
    "charvar.macaulay.rows",
    "charvar.macaulay.cols",
    "singular.build_R_x.terms",
    "singular.build_R_x.misses",
    "integral.dirichlet_integral.order_used",
)


def _evaluate_counts(counters, args, kwargs, out):
    ps = args[0]
    tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-10)
    counters["series.evaluate.shells"] += out.N_used
    counters["series.evaluate.terms"] += math.comb(out.N_used + ps.m, ps.m)
    counters["series.evaluate.capped"] += out.tail_bound >= tol


def _hilbert_counts(counters, args, kwargs, out):
    # hilbert_function(p, m, z, d_max): one Macaulay matrix per degree
    # d = p..d_max, with m * C(d-p+m-1, m-1) rows over C(d+m-1, m-1) columns.
    p, m, _, d_max = args[:4]
    for d in range(p, d_max + 1):
        counters["charvar.macaulay.rows"] += m * math.comb(d - p + m - 1, m - 1)
        counters["charvar.macaulay.cols"] += math.comb(d + m - 1, m - 1)


def _count(key, measure):
    def hook(counters, args, kwargs, out):
        counters[key] += measure(out)
    return hook


AFTER = {
    "series.evaluate": _evaluate_counts,
    "series.coefficient_table": _count("series.coefficient_table.entries", len),
    "diffops.apply": _count("diffops.apply.coeffs_out", lambda out: len(out.coeffs)),
    "charvar.hilbert_function": _hilbert_counts,
    "singular.build_R_x": _count("singular.build_R_x.terms", lambda out: len(out.terms)),
    "integral.dirichlet_integral": _count("integral.dirichlet_integral.order_used",
                                          lambda out: out.order_used),
}


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, op id] lists."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.root = -1
        self.counters = defaultdict(int)
        self.build_R_x = None
        self.misses0 = 0
        self.setup = {}
        self.in_window = False  # after reset(): record only inside an op

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_window and not stack:
                return fn(*args, **kwargs)  # between ops: inputs of the next pass
            rec = [name, clock(), 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer.counters, args, kwargs, out)
            return out

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        """Import every fcpm module and bind the wrappers in place."""
        mods = {name: importlib.import_module(f"fcpm.{name}")
                for name in {mod for mod, _ in TRACED}}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "fcpm" or key.startswith("fcpm.")]
        for mod, attr in TRACED:
            name = span_name(mod, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
            if name == "singular.build_R_x":
                self.build_R_x = original  # the lru_cache object, for cache_info()

    def _misses(self):
        return self.build_R_x.cache_info().misses if self.build_R_x else 0

    def reset(self):
        """Drop what set-up recorded, keeping its R(x) builds (the cold cost
        the warm-up moves into set-up); counting starts again from here."""
        self.setup = {
            "singular.build_R_x.setup_ms": sum(
                end - start for name, start, end, _, _ in self.spans
                if name == "singular.build_R_x") / 1e6,
            "singular.build_R_x.setup_misses": self._misses()}
        self.spans.clear()
        self.counters.clear()
        self.misses0 = self._misses()
        self.in_window = True

    def begin_op(self, op_id):
        self.op_id = op_id
        self.root = len(self.spans)
        self.stack.append(self.root)
        self.spans.append([ROOT, time.perf_counter_ns(), 0, -1, op_id])

    def end_op(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def adopt(self, doc, op_id):
        """Attach spans and counters written by a traced child process to
        the last op's root span (the op that ran the process)."""
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end,
                               self.root if parent < 0 else base + parent, op_id])
        for key, value in doc["counters"].items():
            self.counters[key] += value

    def dump(self):
        counters = dict(self.counters)
        counters["singular.build_R_x.misses"] = (
            counters.get("singular.build_R_x.misses", 0) + self._misses() - self.misses0)
        return {"spans": self.spans, "counters": counters, "setup": self.setup}


def summary(spans, group=lambda op_id: 0):
    """Calls, busy and self time (ns) per span name, per group of ops.

    `group` maps an op id to its group (the harness uses the pass index).
    busy counts a span only when no ancestor has the same name, so a
    recursive function (gamma_value) is not counted twice. Returns
    {group: {name: [calls, busy_ns, self_ns]}}.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    stats = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        dur = end - start
        st = stats[group(op_id)][name]
        st[0] += 1
        st[2] += dur - child[i]
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            st[1] += dur
    return stats


def check_spans(spans):
    """Problems with the nesting of the spans, at most five ("" if none).

    Every op must have exactly one root span "bench.op"; every other span
    must belong to the same op as its parent and lie inside the parent's
    [start, end]; children of one parent must not overlap. Then every self
    time is >= 0, and the self times of an op's spans add up to the wall
    time of its root span, each instant counted once.
    """
    problems = []
    roots = defaultdict(int)
    children = defaultdict(list)
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent < 0:
            roots[op_id] += 1
            if name != ROOT:
                problems.append(f"span {i} ({name}) of op {op_id} has no parent")
            continue
        pname, pstart, pend, _, pop = spans[parent]
        if pop != op_id:
            problems.append(f"span {i} ({name}) of op {op_id} has a parent in op {pop}")
        if start < pstart or end > pend:
            problems.append(f"span {i} ({name}) [{start}, {end}] is not inside its "
                            f"parent {pname} [{pstart}, {pend}]")
        children[parent].append((start, end, i))
    problems += [f"op {op_id} has {n} root spans" for op_id, n in roots.items() if n != 1]
    for parent, kids in children.items():
        kids.sort()
        for (_, end, i), (start, _, j) in zip(kids, kids[1:]):
            if start < end:
                problems.append(f"spans {i} and {j} under span {parent} overlap")
    return "; ".join(problems[:5])
