"""Spans and counts around calls into tlurkit's modules, for the traced run.

``Tracer.install`` wraps public functions and methods of each layer and
changes no source file.  A function is rebound under every name a tlurkit
module holds it by (``from .x import f`` copies), and the dispatch tables
are rebuilt too: ``scan.DV_CRITERIA`` entries hold closures over the
evaluators they captured at import time, and ``cli._COMMANDS`` maps
subcommands to handlers.  ``uninstall`` restores everything.

A span records (id, parent id, name, start ns, end ns, op id).  Spans are
kept in memory and written out at the end of the run.  A span opened in a
sweep's worker thread with nothing open in that thread takes the innermost
span open in the main thread (the sweep) as its parent.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
import time
import types

# (module, attribute) -> span name; the class methods are patched on the class
SPANS = {
    ("states", "StateFamily.instantiate"): "states.instantiate",
    ("states", "state_from_spec"): "states.state_from_spec",
    ("observables", "observables_from_spec"): "observables.observables_from_spec",
    ("observables", "schmidt_loo_pair"): "observables.schmidt_loo_pair",
    ("observables", "operator_schmidt"): "observables.operator_schmidt",
    ("criteria", "eval_lur"): "criteria.eval_lur",
    ("criteria", "eval_tlur"): "criteria.eval_tlur",
    ("criteria", "eval_tlur_dual"): "criteria.eval_tlur_dual",
    ("criteria", "eval_lemma1"): "criteria.eval_lemma1",
    ("criteria", "eval_corollary1"): "criteria.eval_corollary1",
    ("criteria", "eval_nonlinear_witness"): "criteria.eval_nonlinear_witness",
    ("criteria", "eval_ppt"): "criteria.eval_ppt",
    ("criteria", "eval_ccnr"): "criteria.eval_ccnr",
    ("criteria", "loo_bases_from_set"): "criteria.loo_bases_from_set",
    ("scan", "sweep"): "scan.sweep",
    ("scan", "bisect_threshold"): "scan.bisect_threshold",
    ("scan", "ScanResult.to_csv"): "scan.to_csv",
    ("cvgauss", "gaussian_from_spec"): "cvgauss.gaussian_from_spec",
    ("cvgauss", "eval_corollary2"): "cvgauss.eval_corollary2",
    ("cli", "main"): "cli.main",
}

# counted calls: too many and too cheap for a span each
COUNTS = {
    ("linops", "DensityMatrix.__post_init__"): "linops.density_matrices",
    ("linops", "variance"): "linops.variance_calls",
    ("observables", "LocalObservableSet.__post_init__"): "observables.sets_built",
    ("report", "CriterionReport.__post_init__"): "report.reports",
}

EVALS = {name for name in SPANS.values() if name.startswith("criteria.eval_")}


class Tracer:
    def __init__(self, tk):
        self.tk = tk
        self.spans = []
        self.counts = {}
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            span_name = name
            if name == "observables.observables_from_spec" and _is_declared(args, kwargs):
                span_name = "observables.declared_set"
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, span_name, t0, t1, tracer.op))
                if span_name in EVALS:
                    tracer._count("criteria.evals")

        return wrapper

    def _count(self, name):
        key = (name, self.op)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _modules(self):
        tk = self.tk
        return {"linops": tk.linops, "states": tk.states, "observables": tk.observables,
                "criteria": tk.criteria, "report": tk.report, "scan": tk.scan,
                "cvgauss": tk.cvgauss, "cli": tk.cli, "tlurkit": tk}

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mods = self._modules()
        swapped = {}
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for (mod, attr), name in table.items():
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[mod], cls_name)
                    self._set(cls, meth, make(name, cls.__dict__[meth]))
                    continue
                original = getattr(mods[mod], attr)
                wrapped = make(name, original)
                swapped[id(original)] = wrapped
                for m in mods.values():  # every module-level copy of the name
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)
        self._rebuild_registry(mods["scan"].DV_CRITERIA, swapped)
        commands = mods["cli"]._COMMANDS
        for key, fn in list(commands.items()):
            self._set_item(commands, key, self._span("cli." + key.replace("-", "_"), fn))

    def _set_item(self, table, key, value):
        self._undo.append((table, key, table[key]))
        table[key] = value

    def _rebuild_registry(self, registry, swapped):
        """Registry closures captured the evaluators; give them the wrappers.
        ``swapped`` maps id(original) to its wrapper (the originals stay alive)."""
        for key, entry in list(registry.items()):
            fn = entry.evaluate
            if not fn.__closure__:
                continue
            cells = tuple(types.CellType(swapped.get(id(c.cell_contents), c.cell_contents))
                          for c in fn.__closure__)
            new = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                     fn.__defaults__, cells)
            self._set_item(registry, key, dataclasses.replace(entry, evaluate=new))

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[key] = value
            else:
                setattr(obj, key, value)

    # -- results -----------------------------------------------------------

    def write(self, path, info):
        names = sorted({s[2] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"info": info, "span_names": names,
                       "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
                       "spans": [[s[0], s[1], index[s[2]], s[3], s[4], s[5]]
                                 for s in self.spans],
                       "counts": [[n, op, c] for (n, op), c in sorted(
                           self.counts.items(), key=lambda kv: (kv[0][0], kv[0][1]))]},
                      fh, separators=(",", ":"))

    def layer_metrics(self, n_ops: int) -> dict:
        """The per-layer metrics: medians per call in ms, counts per op."""
        by_id = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            children.setdefault(s[1], []).append(s)

        def ms(name):
            return [(s[4] - s[3]) / 1e6 for s in self.spans if s[2] == name]

        def self_ms(name):
            out = []
            for s in self.spans:
                if s[2] == name:
                    covered = _union_ns([(max(c[3], s[3]), min(c[4], s[4]))
                                         for c in children.get(s[0], ())])
                    out.append((s[4] - s[3] - covered) / 1e6)
            return out

        def median(values):
            return statistics.median(values) if values else 0.0

        def per_op(name):
            return sum(c for (n, _), c in self.counts.items() if n == name) / n_ops

        def under(span, name):
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == name:
                    return True
                parent = by_id.get(parent[1])
            return False

        states_built = sum(1 for s in self.spans if s[2].startswith("states.")
                           and not by_id.get(s[1], (0, 0, ""))[2].startswith("states."))
        bisections = sum(1 for s in self.spans if s[2] == "scan.bisect_threshold")
        probes = sum(1 for s in self.spans if s[2] == "states.instantiate"
                     and under(s, "scan.bisect_threshold"))
        return {
            "states.instantiate_ms": median(ms("states.instantiate")),
            "states.built_per_op": states_built / n_ops,
            "states.state_from_spec_ms": median(ms("states.state_from_spec")),
            "linops.density_matrices_per_op": per_op("linops.density_matrices"),
            "linops.variance_calls_per_op": per_op("linops.variance_calls"),
            "observables.schmidt_loo_pair_ms": median(ms("observables.schmidt_loo_pair")),
            "observables.operator_schmidt_ms": median(ms("observables.operator_schmidt")),
            "observables.set_certify_ms": median(self_ms("observables.schmidt_loo_pair")),
            "observables.declared_set_ms": median(ms("observables.declared_set")),
            "observables.sets_built_per_op": per_op("observables.sets_built"),
            "criteria.eval_lur_ms": median(ms("criteria.eval_lur")),
            "criteria.eval_tlur_ms": median(ms("criteria.eval_tlur")),
            "criteria.eval_nonlinear_witness_ms": median(ms("criteria.eval_nonlinear_witness")),
            "criteria.eval_corollary1_ms": median(ms("criteria.eval_corollary1")),
            "criteria.loo_bases_from_set_ms": median(ms("criteria.loo_bases_from_set")),
            "criteria.eval_ppt_ms": median(ms("criteria.eval_ppt")),
            "criteria.evals_per_op": per_op("criteria.evals"),
            "report.reports_per_op": per_op("report.reports"),
            "scan.sweep_self_ms": median(self_ms("scan.sweep")),
            "scan.bisect_self_ms": median(self_ms("scan.bisect_threshold")),
            "scan.probes_per_bisection": probes / bisections if bisections else 0.0,
            "scan.to_csv_ms": median(ms("scan.to_csv")),
            "cvgauss.gaussian_from_spec_ms": median(ms("cvgauss.gaussian_from_spec")),
            "cvgauss.eval_corollary2_ms": median(ms("cvgauss.eval_corollary2")),
            "cli.evaluate_ms": median(ms("cli.evaluate")),
            "cli.cv_evaluate_ms": median(ms("cli.cv_evaluate")),
            "cli.scan_ms": median(ms("cli.scan")),
            "cli.self_ms": median(self_ms("cli.main")),
        }


def _is_declared(args, kwargs) -> bool:
    spec = args[0] if args else kwargs.get("spec")
    return isinstance(spec, dict) and ("opsA" in spec or "opsB" in spec)


def _union_ns(intervals) -> int:
    """Total length covered by possibly overlapping intervals (threads overlap)."""
    total, end = 0, None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
