"""Traced run: per-layer metrics of heiszeta, measured from outside src/.

The workload's cases run in this process, each through `cli.main` as the
console script would call it.  Two untraced passes alternate with two
traced passes.  For a traced pass the public functions of each layer module
(exactalg, combinat, counts, igusa, zeta, oracle, cli), plus the exact-kernel
entry points `_p_mul`, `FactoredRational.sum/__eq__/reduced/series_in_T`,
`oracle._smith_diagonal` and the `verify` checks, are replaced by wrappers in
every module namespace that holds them and in `cli.FORMS`/`cli.CHECKS`; all
of them are restored after the pass.  Methods of other classes are not
wrapped, so their time counts as their caller's self time.

Each wrapped call records a span (name, start, end, busy time, parent, case)
in memory.  A generator's span covers its resumptions only and counts the
items it yields.  Self time is a span's busy time minus the busy time of its
child spans.  The spans are written to bench/out/ when the run ends.

Wrappers read arguments and results but never change them: the caches hand
out shared mutable values.  Before each case every lru_cache in heiszeta.* is
read (cache_info) and cleared, so each case starts cold, as in a fresh
process.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import random
import statistics
import sys
import time
from array import array
from collections import defaultdict

import workloads

LAYERS = ("exactalg", "combinat", "counts", "igusa", "zeta", "oracle", "cli")

# Span names other than the function's own: (module, attribute) -> name.
NAMES = {
    ("exactalg", "_p_mul"): "mul",
    ("exactalg", "divide_out_factor"): "divide",
    ("exactalg", "expand_factors"): "expand",
    ("oracle", "_smith_diagonal"): "smith",
    ("oracle", "hnf_enumerate"): "hnf",
    ("oracle", "enum_subalgebras"): "subalgebras",
    ("oracle", "enum_lagrangians"): "lagrangian",
    ("oracle", "enum_sublattices"): "sublattice",
    ("igusa", "igusa_B_residue"): "residue",
    ("igusa", "igusa_B_residue_limit"): "residue",
    ("igusa", "fibre_F"): "fibre",
    ("igusa", "fibre_E"): "fibre",
    ("igusa", "fibre_I"): "fibre",
    ("igusa", "fibre_K"): "fibre",
    ("igusa", "fibre_prefactor"): "fibre",
    ("igusa", "epsilon_kr"): "fibre",
    ("igusa", "Y_slot"): "fibre",
    ("igusa", "E_at_minus_T"): "fibre",
    ("igusa", "check_I_equals_K"): "fibre",
    ("zeta", "zeta_igusa_sum"): "form.a",
    ("zeta", "zeta_compact"): "form.b",
    ("zeta", "zeta_hyperoctahedral"): "form.c",
    ("zeta", "zeta_graded"): "form.graded",
    ("zeta", "reduced_zeta"): "form.reduced",
    ("zeta", "global_factor"): "form.global",
}
METHODS = {
    ("exactalg", "FactoredRational", "sum"): "sum",
    ("exactalg", "FactoredRational", "__eq__"): "eq",
    ("exactalg", "FactoredRational", "reduced"): "reduced",
    ("exactalg", "FactoredRational", "series_in_T"): "series",
}
# Spans whose inclusive time is a metric; nested calls of the same name are
# counted once.
INCLUSIVE = (
    ["oracle.subalgebras", "oracle.lagrangian", "oracle.sublattice"]
    + ["zeta.form." + f for f in ("a", "b", "c", "graded", "reduced", "global")]
    + ["cli.check." + c for c in ("crossform", "funeq", "poles", "fibre", "residue", "reduced")]
)
# Exact counts that must repeat across two traced passes.
DETERMINISTIC = (
    "exactalg.mul.term_products",
    "exactalg.divide.calls",
    "combinat.signed_perms.yielded",
    "oracle.hnf.enumerated",
    "oracle.subalgebras.kept",
)


def _sizes(counters, name, value):
    """Record the size of a closed form, read from the returned value only."""
    num = getattr(value, "num", value)
    den = getattr(value, "den", {})
    coeffs = num.terms.values()
    for key, size in (
        ("num_terms", len(num.terms)),
        ("den_mult", sum(den.values())),
        ("coeff_bits_max", max((abs(c).bit_length() for c in coeffs), default=0)),
    ):
        key = "%s.%s" % (name, key)
        counters[key] = max(counters[key], size)


def _hook(name):
    """Counter update run after a successful call, or None."""
    if name == "exactalg.mul":
        def hook(counters, args, result):
            counters["exactalg.mul.term_products"] += len(args[0]) * len(args[1])
    elif name == "exactalg.sum":
        def hook(counters, args, result):
            counters["exactalg.sum.lcm_factors"] += sum(result.den.values())
    elif name == "exactalg.divide":
        def hook(counters, args, result):
            counters["exactalg.divide.hits"] += result is not None
    elif name == "oracle.subalgebras":
        def hook(counters, args, result):
            counters["oracle.subalgebras.kept"] += sum(result)
    elif name.startswith("zeta.form."):
        def hook(counters, args, result):
            _sizes(counters, name, result)
    else:
        return None
    return hook


class Tracer:
    """Span table and counters of one traced pass; installs the wrappers."""

    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("q")
        self.case_of = array("i")
        self.items = array("q")
        self.stack: list[int] = []
        self.case = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list = []

    def _open(self, name_id: int, t0: float) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t0)
        self.busy.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.case_of.append(self.case)
        self.items.append(0)
        return sid

    def _label(self, name: str) -> int:
        if name not in self.label_ids:
            self.label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self.label_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._label(name)
        hook = _hook(name)
        perf = time.perf_counter
        stack, counters = self.stack, self.counters
        end, busy, items = self.end, self.busy, self.items

        if inspect.isgeneratorfunction(fn):
            def drive(sid, it):
                n, total, last = 0, 0.0, perf()
                try:
                    while True:
                        stack.append(sid)
                        t0 = perf()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            last = perf()
                            stack.pop()
                            total += last - t0
                        n += 1
                        yield item
                finally:
                    it.close()
                    end[sid], busy[sid], items[sid] = last, total, n

            def wrapper(*args, **kwargs):
                return drive(self._open(name_id, perf()), fn(*args, **kwargs))

            return wrapper

        def wrapper(*args, **kwargs):
            sid = self._open(name_id, 0.0)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[sid], end[sid], busy[sid] = t0, t1, t1 - t0
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def install(self, modules: dict):
        """Wrap every traced callable and rebind it wherever heiszeta holds it."""
        cli = modules["cli"]
        wrapped = {}  # id(original) -> (original, wrapper)
        for key, fn in cli.CHECKS.items():
            wrapped[id(fn)] = (fn, self.wrap("cli.check." + key, fn))
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in NAMES:
                    continue
                name = "%s.%s" % (layer, NAMES.get((layer, attr), attr))
                wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for space in namespaces(modules):
            for key, obj in list(space.items()):
                hit = wrapped.get(id(obj))
                if hit and hit[0] is obj:
                    self._rebind(space, key, obj, hit[1])
        for (layer, cls_name, attr), short in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self.wrap("%s.%s" % (layer, short), fn)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._rebind(cls, attr, raw, wrapper)

    def _rebind(self, holder, key, original, replacement):
        if isinstance(holder, dict):
            holder[key] = replacement
        else:
            setattr(holder, key, replacement)
        self._restore.append((holder, key, original))

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of this pass; wall is the traced wall time."""
        n = len(self.name)
        covered = [0.0] * n
        has_expand = bytearray(n)
        expand = self.label_ids.get("exactalg.expand", -1)
        for p, b, nm in zip(self.parent, self.busy, self.name):
            if p >= 0:
                covered[p] += b
                if nm == expand:
                    has_expand[p] = 1
        calls = defaultdict(int)
        self_s = defaultdict(float)
        items = defaultdict(int)
        inclusive = defaultdict(float)
        inclusive_ids = {self.label_ids[x] for x in INCLUSIVE if x in self.label_ids}
        eq = self.label_ids.get("exactalg.eq", -1)
        hnf = self.label_ids.get("oracle.hnf", -1)
        subalg = self.label_ids.get("oracle.subalgebras", -1)
        eq_fast = hnf_in_subalg = 0
        for sid in range(n):
            nm = self.name[sid]
            calls[nm] += 1
            self_s[nm] += self.busy[sid] - covered[sid]
            items[nm] += self.items[sid]
            if nm == eq and not has_expand[sid]:
                eq_fast += 1
            elif nm == hnf and self.parent[sid] >= 0 and self.name[self.parent[sid]] == subalg:
                hnf_in_subalg += self.items[sid]
            elif nm in inclusive_ids:
                p = self.parent[sid]
                while p >= 0 and self.name[p] != nm:
                    p = self.parent[p]
                if p < 0:
                    inclusive[nm] += self.busy[sid]

        out = {}
        layer_self = defaultdict(float)
        for nm, label in enumerate(self.labels):
            layer_self[label.split(".")[0]] += self_s[nm]
            out[label + ".calls"] = calls[nm]
            out[label + ".self_s"] = self_s[nm]
            out[label + ".yielded"] = items[nm]
            if nm in inclusive_ids:
                out[label + ".s"] = inclusive[nm]
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        out.update(self.counters)

        def ratio(a, b):
            return a / b if b else 0.0

        out["exactalg.eq.fast_path_ratio"] = ratio(eq_fast, out.get("exactalg.eq.calls", 0))
        out["exactalg.divide.hit_ratio"] = ratio(
            self.counters["exactalg.divide.hits"], out.get("exactalg.divide.calls", 0))
        out["oracle.hnf.enumerated"] = out.get("oracle.hnf.yielded", 0)
        out["oracle.subalgebras.accept_ratio"] = ratio(
            self.counters["oracle.subalgebras.kept"], hnf_in_subalg)
        out["trace.uncovered_s"] = wall - sum(layer_self.values())
        return out

    def write(self, fh, pass_no: int):
        for sid in range(len(self.name)):
            fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%.9f\t%d\t%d\t%d\n" % (
                pass_no, sid, self.labels[self.name[sid]], self.start[sid], self.end[sid],
                self.busy[sid], self.parent[sid], self.case_of[sid], self.items[sid]))


def find_caches(modules: dict) -> dict:
    """name -> lru_cache wrapper, for every cache in the heiszeta modules."""
    out = {}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                if getattr(obj, "__module__", None) == mod.__name__:
                    out[attr] = obj
    return out


def reset_caches(caches: dict, counters) -> None:
    for name, cache in caches.items():
        if counters is not None:
            info = cache.cache_info()
            counters["cache.%s.hits" % name] += info.hits
            counters["cache.%s.misses" % name] += info.misses
        cache.cache_clear()


def run_pass(cases, modules, caches, tracer, speed):
    """Run every case in this process; (wall, scaled wall, [(case, problem)]).

    The scaled wall uses the reference loop of run.py after each case, as
    the untraced benchmark does, so that the overhead ratio compares like
    with like on a machine whose speed drifts.
    """
    counters = tracer.counters if tracer else None
    wall, scaled, problems = 0.0, 0.0, []
    for case in cases:
        reset_caches(caches, counters)
        if tracer:
            tracer.case = case.index
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = modules["cli"].main(case.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # a crash is a failed case, not a failed run
                code, problem = -1, "raised %r" % exc
            dt = time.perf_counter() - t0
        wall += dt
        scaled += dt * speed.scale()
        problem = problem or case.check(code, out.getvalue())
        problems.append((case, problem))
    reset_caches(caches, counters)
    return wall, scaled, problems


def namespaces(modules: dict) -> list[dict]:
    """The module namespaces and tables in which wrapped functions are rebound."""
    mods = [m for n, m in sys.modules.items() if n == "heiszeta" or n.startswith("heiszeta.")]
    return [vars(m) for m in mods] + [modules["cli"].FORMS, modules["cli"].CHECKS]


def run(workload: str, seed: int, src: str, speed) -> dict:
    """The traced run; speed scales wall times as in run.py."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    modules = {layer: importlib.import_module("heiszeta." + layer) for layer in LAYERS}
    pkg = sys.modules["heiszeta"]
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit("bench: heiszeta imported from %s, not from %s" % (pkg.__file__, src))
    caches = find_caches(modules)
    cases = workloads.cases(workload)
    rng = random.Random(seed)
    spaces = namespaces(modules) + [vars(modules["exactalg"].FactoredRational)]
    before = [dict(ns) for ns in spaces]

    def order():
        o = list(cases)
        rng.shuffle(o)
        return o

    # Untraced and traced passes alternate, so that drift of the machine
    # does not show up as tracing overhead.
    untraced, tracers, walls, traced_scaled, problems = [], [], [], [], []
    for _ in range(2):
        _, scaled, more = run_pass(order(), modules, caches, None, speed)
        untraced.append(scaled)
        problems += more
        tracer = Tracer()
        tracer.install(modules)
        try:
            wall, scaled, more = run_pass(order(), modules, caches, tracer, speed)
        finally:
            tracer.uninstall()
        problems += more
        tracers.append(tracer)
        walls.append(wall)
        traced_scaled.append(scaled)
    restored = all(ns.get(k) is v for old, ns in zip(before, spaces) for k, v in old.items())

    passes = [t.metrics(w) for t, w in zip(tracers, walls)]
    metrics = {}
    for key in sorted(set().union(*passes)):
        values = [p.get(key, 0) for p in passes]
        exact = all(isinstance(v, int) for v in values)
        metrics[key] = statistics.median_low(values) if exact else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced_scaled) / statistics.median(untraced)
    drift = [k for k in DETERMINISTIC if passes[0].get(k, 0) != passes[1].get(k, 0)]

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans-%s.tsv" % workload), "w") as fh:
        fh.write("pass\tspan\tname\tstart\tend\tbusy\tparent\tcase\titems\n")
        for i, t in enumerate(tracers):
            t.write(fh, i + 1)

    failed = [(c, p) for c, p in problems if p]
    for case, problem in failed:
        print("FAILED case %d (%s): %s" % (case.index, case.line, problem), file=sys.stderr)
    for k in drift:
        print("NOT DETERMINISTIC: %s = %s then %s" % (k, passes[0].get(k), passes[1].get(k)),
              file=sys.stderr)
    if not restored:
        print("NOT RESTORED: a wrapped name is still bound after the traced passes",
              file=sys.stderr)
    traced = statistics.median(walls)
    print("# traced wall %.3f s (median of %d passes), %d spans per pass, overhead ratio %.3f"
          % (traced, len(walls), len(tracers[0].name), metrics["trace.overhead_ratio"]))
    print("# layer self time, share of traced wall:")
    for layer in LAYERS:
        v = metrics.get(layer + ".self_s", 0.0)
        print("%-9s %8.3f s  %5.1f%%" % (layer, v, 100 * v / traced))
    v = metrics["trace.uncovered_s"]
    print("%-9s %8.3f s  %5.1f%%" % ("uncovered", v, 100 * v / traced))
    return {
        "correct": not failed and not drift and restored,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": metrics,
    }
