"""Run-time spans around the public functions of each ``geomstates`` module.

``Tracer.install`` replaces every public function of the seven layer
modules, wherever a module namespace binds it, by a wrapper that records a
span: name, start, end, the span that caused it and its thread id.  A few
methods and the LAPACK Schur call that contraction makes are wrapped too.
``Tracer.uninstall`` puts the originals back, so the program's files are
never touched.  Spans stay in memory until ``dump`` writes them out.

A call that a worker thread starts has no open span in its own thread; its
parent is the innermost span open in the main thread at that moment, which
is the call that handed the work to the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter

LAYERS = ("algebra", "states", "poly", "tensors", "dynamics", "contraction", "cli")

# span name -> function giving a JSON-ready summary of the call's result
_INSPECT = {
    "dynamics.integrate": lambda tr: tr.method,
    # dense superoperator plus the basis tensors T0..T2 and their images
    # U0..U2 that build_superoperator allocates, from the array shapes
    "contraction.build_superoperator": lambda sup: [
        sup.size,
        8e-6 * (sup.size ** 2 + 2 * sup.size * sum(sup.m ** k for k in (2, 3, 4))),
    ],
}


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, parent, name, t0, t1, thread id)
        self.extra = {}  # sid -> _INSPECT summary
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._stacks = {}  # thread id -> open span ids
        self._main = threading.get_ident()
        self._patches = []

    # ----------------------------------------------------------- recording
    def wrap(self, name, fn):
        inspect = _INSPECT.get(name)
        stacks, spans, extra = self._stacks, self.spans, self.extra
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(main) if tid != main else None
                parent = outer[-1] if outer else None
            with self._ids_lock:
                sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tid))
            if inspect is not None:
                extra[sid] = inspect(out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import scipy.linalg

        pkg = importlib.import_module("geomstates")
        mods = [importlib.import_module(f"geomstates.{l}") for l in LAYERS]
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for nm in names:
                obj = getattr(mod, nm)
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{nm}", obj)
        for ns in [pkg] + mods:
            for nm, val in list(vars(ns).items()):
                if id(val) in wrapped:
                    self._patch(ns, nm, wrapped[id(val)])
        poly, contraction = mods[2], mods[5]
        self._patch(poly.PolyVectorField, "__call__",
                    self.wrap("poly.vf_eval", poly.PolyVectorField.__call__))
        self._patch(contraction.TensorFlowFamily, "tensor_at",
                    self.wrap("contraction.tensor_at",
                              contraction.TensorFlowFamily.tensor_at))
        self._patch(scipy.linalg, "schur",
                    self.wrap("contraction.schur", scipy.linalg.schur))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, extra = list(self.spans), dict(self.extra)
        self.spans.clear()
        self.extra.clear()
        return spans, extra

    @staticmethod
    def dump(path, spans, extra, meta):
        t_base = min((s[3] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "meta": meta,
                "columns": ["id", "parent", "name", "start_s", "end_s", "thread"],
                "spans": [[s[0], s[1], s[2], round(s[3] - t_base, 9),
                           round(s[4] - t_base, 9), s[5]] for s in spans],
                "results": {str(k): v for k, v in extra.items()},
            }, fh, separators=(",", ":"))


# ------------------------------------------------------------------ analysis


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanSet:
    """Busy time, self time and counts from one list of spans."""

    def __init__(self, spans, extra):
        self.spans = spans
        self.extra = extra
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def _has_ancestor_in(self, span, names):
        p = span[1]
        while p is not None and p in self.by_id:
            anc = self.by_id[p]
            if anc[2] in names:
                return True
            p = anc[1]
        return False

    def select(self, names):
        names = set(names)
        return [s for s in self.spans if s[2] in names]

    def busy(self, names, keep=None):
        """Summed duration of the outermost spans among ``names``."""
        names = set(names)
        return sum(
            s[4] - s[3] for s in self.spans
            if s[2] in names and not self._has_ancestor_in(s, names)
            and (keep is None or keep(s))
        )

    def count(self, names):
        return len(self.select(names))

    def self_time(self, layer):
        total = 0.0
        for s in self.spans:
            if s[2].split(".", 1)[0] != layer:
                continue
            kids = [(max(c[3], s[3]), min(c[4], s[4]))
                    for c in self.children.get(s[0], ())]
            total += (s[4] - s[3]) - _union([k for k in kids if k[1] > k[0]])
        return total

    def sector_parallelism(self):
        """Summed ``asymptotic_limit`` time over the wall time it covers,
        per ``analyze_contraction`` call; 0 when contraction never ran."""
        busy = wall = 0.0
        for a in self.select(["contraction.analyze_contraction"]):
            secs = [(c[3], c[4]) for c in self.children.get(a[0], ())
                    if c[2] == "contraction.asymptotic_limit"]
            busy += sum(b - t for t, b in secs)
            wall += _union(secs)
        return busy / wall if wall > 0 else 0.0


def layer_metrics(spans, extra, ops):
    """Per-layer metrics of a traced phase, per ``run_scenario`` call."""
    S = SpanSet(spans, extra)
    k = max(1, ops)
    method = lambda want: (lambda s: S.extra.get(s[0]) == want)
    builds = [S.extra[s[0]] for s in S.select(["contraction.build_superoperator"])]
    out = {
        "dynamics.lindblad_vf_s": (S.busy(["dynamics.lindblad_vf",
                                           "dynamics.vf_from_linear_map"]) / k, "s"),
        "dynamics.integrate_exact_s": (S.busy(["dynamics.integrate"],
                                              method("exact-affine")) / k, "s"),
        "dynamics.integrate_rk45_s": (S.busy(["dynamics.integrate"],
                                             method("rk45")) / k, "s"),
        "dynamics.stationary_s": (S.busy(["dynamics.stationary_points"]) / k, "s"),
        "states.matrix_s": (S.busy(["states.state_to_matrix"]) / k, "s"),
        "states.matrix_calls": (S.count(["states.state_to_matrix"]) / k, "count"),
        "poly.vf_eval_s": (S.busy(["poly.vf_eval"]) / k, "s"),
        "poly.vf_evals": (S.count(["poly.vf_eval"]) / k, "count"),
        "tensors.field_rows_s": (S.busy(["tensors.field_csv_rows"]) / k, "s"),
        "tensors.brackets_s": (S.busy(["tensors.poisson_bracket",
                                       "tensors.jordan_bracket"]) / k, "s"),
        "tensors.bracket_calls": (S.count(["tensors.poisson_bracket",
                                           "tensors.jordan_bracket"]) / k, "count"),
        "tensors.fields_s": (S.busy(["tensors.poisson_field", "tensors.symmetric_field",
                                     "tensors.hamiltonian_vf",
                                     "tensors.gradient_vf"]) / k, "s"),
        "contraction.superop_build_s": (S.busy(["contraction.build_superoperator"]) / k, "s"),
        "contraction.superop_dim": (max((b[0] for b in builds), default=0), "count"),
        "contraction.superop_dense_mb": (max((b[1] for b in builds), default=0.0),
                                         "MB-computed"),
        "contraction.analyze_s": (S.busy(["contraction.analyze_contraction"]) / k, "s"),
        "contraction.classify_s": (S.busy(["contraction.asymptotic_limit"]) / k, "s"),
        "contraction.schur_s": (S.busy(["contraction.schur"]) / k, "s"),
        "contraction.schur_calls": (S.count(["contraction.schur"]) / k, "count"),
        "contraction.limit_set_s": (S.busy(["contraction.limit_set_algebra",
                                            "contraction.matches_level_algebra"]) / k, "s"),
        "contraction.tables_s": (S.busy(["contraction.extract_contracted_products",
                                         "contraction.verify_contracted_axioms",
                                         "contraction.lie_algebra_dimensions"]) / k, "s"),
        "contraction.sector_parallelism": (S.sector_parallelism(), "ratio"),
        "contraction.transport_s": (S.busy(["contraction.tensor_at",
                                            "contraction.flow_tensor"]) / k, "s"),
        "contraction.transport_calls": (S.count(["contraction.tensor_at",
                                                 "contraction.flow_tensor"]) / k, "count"),
        "cli.sample_states_s": (S.busy(["cli.sample_states"]) / k, "s"),
        "cli.report_json_s": (S.busy(["cli.report_json"]) / k, "s"),
        "cli.static_tables_s": (S.busy(["cli.static_tables_json"]) / k, "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (S.self_time(layer) / k, "s")
    return out
