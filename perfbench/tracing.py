"""Span tracing of the library's layers, installed from outside the library.

The layers are the modules of ``upsilon_cd``. ``install`` replaces, in every
module namespace that holds it, each public function a layer exposes (in
its ``__all__`` or exported by the package) with a wrapper that records a
span; the caller module is part of the span name, so work can be split by
who asked for it. Three more
boundaries are wrapped: the two-ball objective methods of ``VertexProblem``,
``scipy.optimize.minimize`` (one local descent) and the flow's propagators
(``scipy.linalg.expm``, ``solve_ivp``). ``uninstall`` restores every name.

Spans live in memory per op as flat arrays (name, start, end, parent); at
the op's end they are folded into per-name totals with self time, i.e. the
span's duration minus what its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("chains", "kernels", "operators", "curvature", "flow", "tensor", "cli")
TRACED_LAYERS = ("chains", "kernels", "operators", "curvature", "flow", "tensor")

OBJECTIVE = "curvature.objective"
DESCENT = "curvature.descent"
PROPAGATION = "flow.propagation"
ROOT = "op"


class Tracer:
    """Collects the spans of one op at a time and keeps per-op summaries."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.ops: list[dict] = []
        self._clear()

    def _clear(self):
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._elements = array("q")
        self._stack = [-1]
        self.descents: list[tuple[int, float, bool]] = []  # parent, fun, success
        self.vertices: list[tuple[int, bool]] = []  # span, certified
        self.samples = 0

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._elements.append(0)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def parent_of(self, i: int) -> int:
        return self._parent[i]

    def set_elements(self, i: int, count: int) -> None:
        self._elements[i] = count

    def run_op(self, fn, *args):
        """Run one op under a root span; returns fn's result."""
        self._clear()
        self.active = True
        root = self.open(self.name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self.close(root)
            self.active = False
            self.ops.append(self._summarize())

    def _summarize(self) -> dict:
        names = np.frombuffer(self._name, dtype=np.int32).astype(np.intp)
        start = np.frombuffer(self._start, dtype=float)
        dur = np.frombuffer(self._end, dtype=float) - start
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.intp)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        summary = {
            "wall_s": float(dur[0]),
            "calls": calls,
            "total_s": np.bincount(names, weights=dur, minlength=k),
            "self_s": np.bincount(names, weights=self_time, minlength=k),
            "elements": np.bincount(
                names,
                weights=np.frombuffer(self._elements, dtype=np.int64),
                minlength=k,
            ),
            "spans": len(dur),
            "samples": self.samples,
            "descents_nonconverged": sum(not ok for _, _, ok in self.descents),
            "useful_descents": _useful_descents(self.descents),
            "vertices_certified": sum(c for _, c in self.vertices),
            "vertices_optimized": _optimized_vertices(self.vertices, self.descents),
        }
        return summary

    def signature(self, op_index: int) -> tuple:
        """Exact per-name call and element counts of one op."""
        op = self.ops[op_index]
        return (
            tuple(int(c) for c in op["calls"]),
            tuple(int(e) for e in op["elements"]),
            op["samples"],
            op["descents_nonconverged"],
        )


def _useful_descents(descents) -> int:
    """Descents ending within 1e-6 (relative to max(1, |best|)) of the best
    value reached by any descent of the same vertex call."""
    best: dict[int, float] = {}
    for parent, fun, _ in descents:
        if np.isfinite(fun):
            best[parent] = min(best.get(parent, np.inf), fun)
    useful = 0
    for parent, fun, _ in descents:
        b = best.get(parent)
        if b is not None and np.isfinite(fun):
            useful += abs(fun - b) <= 1e-6 * max(1.0, abs(b))
    return useful


def _optimized_vertices(vertices, descents) -> int:
    parents = {p for p, _, _ in descents}
    return sum(span in parents for span, _ in vertices)


# -- wrappers -------------------------------------------------------------------


def _wrap(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, i, out)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _count_elements(tracer: Tracer, i: int, out) -> None:
    tracer.set_elements(i, int(np.size(out)))


def _record_descent(tracer: Tracer, i: int, res) -> None:
    tracer.descents.append(
        (tracer.parent_of(i), float(res.fun), bool(res.success))
    )


def _record_vertex(tracer: Tracer, i: int, est) -> None:
    tracer.vertices.append((i, "divergent_via" in est.diagnostics))


def _record_samples(tracer: Tracer, i: int, report) -> None:
    tracer.samples += int(report.n_samples)


_AFTER = {
    "kernels": _count_elements,
    "curvature.cd_upsilon_kappa": _record_vertex,
    "flow.mlsi_check": _record_samples,
    "flow.beckner_check": _record_samples,
}


def _public_functions(module, package) -> dict:
    """Functions defined in ``module`` that it or the package exports."""
    exported = set(getattr(module, "__all__", ()))
    out = {}
    for name, obj in sorted(vars(module).items()):
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and (name in exported or getattr(package, name, None) is obj)
        ):
            out[name] = obj
    return out


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the patches for ``uninstall``."""
    import scipy.linalg
    import scipy.optimize

    package = importlib.import_module("upsilon_cd")
    modules = {m: importlib.import_module(f"upsilon_cd.{m}") for m in LAYERS}
    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for layer in TRACED_LAYERS:
        for fname, fn in _public_functions(modules[layer], package).items():
            after = _AFTER.get(f"{layer}.{fname}", _AFTER.get(layer))
            for caller, mod in modules.items():
                if mod.__dict__.get(fname) is fn:
                    patch(mod, fname, _wrap(tracer, fn, f"{layer}.{fname}@{caller}", after))

    problem = modules["curvature"].VertexProblem
    for meth in ("ratio_value_grad", "check_value_grad"):
        patch(problem, meth, _wrap(tracer, getattr(problem, meth), OBJECTIVE))
    patch(
        scipy.optimize,
        "minimize",
        _wrap(tracer, scipy.optimize.minimize, DESCENT, _record_descent),
    )
    patch(scipy.linalg, "expm", _wrap(tracer, scipy.linalg.expm, PROPAGATION))
    flow = modules["flow"]
    patch(flow, "solve_ivp", _wrap(tracer, flow.solve_ivp, PROPAGATION))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# -- per-layer metrics ------------------------------------------------------------

KERNEL_CALLERS = ("curvature", "operators", "flow", "kernels")
SHARE_LAYERS = (
    "kernels",
    "operators",
    "curvature_objective",
    "curvature_descent",
    "curvature_girth",
    "curvature_other",
    "flow_propagation",
    "flow_other",
    "tensor",
    "chains",
    "cli",
    "bench",
)


def layer_metrics(tracer: Tracer, root_layer: str) -> dict:
    """Per-layer metrics summed over the traced ops.

    ``root_layer`` names what the root span's self time is: "cli" for
    in-process CLI commands (command wall minus library spans), "bench" for
    direct library requests.
    """
    k = len(tracer.names)
    ops = tracer.ops

    def padded(key):
        total = np.zeros(k)
        for op in ops:
            v = op[key]
            total[: len(v)] += v
        return total

    calls, total_s, self_s, elements = (
        padded("calls"), padded("total_s"), padded("self_s"), padded("elements")
    )
    wall = sum(op["wall_s"] for op in ops)

    def pick(pred):
        return [i for i, n in enumerate(tracer.names) if pred(n)]

    def fn_of(name):
        return name.split("@")[0]

    def caller_of(name):
        return name.split("@")[1] if "@" in name else ""

    def layer_of(name):
        return name.split(".")[0]

    def s(idx, arr):
        return float(arr[idx].sum()) if idx else 0.0

    m: dict[str, tuple[float, str]] = {}
    kern = pick(lambda n: layer_of(n) == "kernels")
    m["kernels.calls"] = (s(kern, calls), "count")
    m["kernels.elements"] = (s(kern, elements), "count")
    m["kernels.self_s"] = (s(kern, self_s), "s")
    for caller in KERNEL_CALLERS:
        idx = [i for i in kern if caller_of(tracer.names[i]) == caller]
        m[f"kernels.calls.from_{caller}"] = (s(idx, calls), "count")
        m[f"kernels.elements.from_{caller}"] = (s(idx, elements), "count")
        m[f"kernels.self_s.from_{caller}"] = (s(idx, self_s), "s")

    ops_idx = pick(lambda n: layer_of(n) == "operators")
    m["operators.calls"] = (s(ops_idx, calls), "count")
    m["operators.self_s"] = (s(ops_idx, self_s), "s")

    obj = pick(lambda n: n == OBJECTIVE)
    desc = pick(lambda n: n == DESCENT)
    n_obj, n_desc = s(obj, calls), s(desc, calls)
    n_useful = sum(op["useful_descents"] for op in ops)
    m["curvature.objective_evals"] = (n_obj, "count")
    m["curvature.objective_us"] = (
        1e6 * s(obj, self_s) / n_obj if n_obj else 0.0, "us"
    )
    m["curvature.descents"] = (n_desc, "count")
    m["curvature.evals_per_descent"] = (n_obj / n_desc if n_desc else 0.0, "count")
    m["curvature.descent_self_s"] = (s(desc, self_s), "s")
    m["curvature.descents_nonconverged"] = (
        float(sum(op["descents_nonconverged"] for op in ops)), "count"
    )
    m["curvature.useful_descent_ratio"] = (
        n_useful / n_desc if n_desc else 0.0, "ratio"
    )
    girth = pick(lambda n: fn_of(n) == "curvature.girth")
    m["curvature.girth_calls"] = (s(girth, calls), "count")
    m["curvature.girth_s"] = (s(girth, total_s), "s")
    m["curvature.certificate_s"] = (
        s(pick(lambda n: fn_of(n) == "curvature.divergence_certificate"), self_s), "s"
    )
    m["curvature.bakry_emery_s"] = (
        s(pick(lambda n: fn_of(n) == "curvature.bakry_emery_kappa"), total_s), "s"
    )
    m["curvature.vertices_certified"] = (
        float(sum(op["vertices_certified"] for op in ops)), "count"
    )
    m["curvature.vertices_optimized"] = (
        float(sum(op["vertices_optimized"] for op in ops)), "count"
    )

    heat = pick(lambda n: fn_of(n) == "flow.heat_flow")
    prop = pick(lambda n: n == PROPAGATION)
    m["flow.heat_flow_calls"] = (s(heat, calls) / len(ops) if ops else 0.0, "1/op")
    m["flow.propagation_s"] = (s(prop, total_s), "s")
    m["flow.functionals_s"] = (s(heat, total_s) - s(prop, total_s), "s")
    m["flow.sample_checks_s"] = (
        s(pick(lambda n: fn_of(n) in ("flow.mlsi_check", "flow.beckner_check")), total_s),
        "s",
    )
    m["flow.samples"] = (float(sum(op["samples"] for op in ops)), "count")

    m["tensor.product_s"] = (
        s(pick(lambda n: fn_of(n) == "tensor.product"), total_s), "s"
    )
    m["tensor.checks"] = (
        s(pick(lambda n: n == "curvature.cd_upsilon_check@tensor"), calls), "count"
    )
    m["tensor.superadditivity_s"] = (
        s(pick(lambda n: n == "operators.psi2_upsilon@tensor"), total_s), "s"
    )

    m["chains.load_s"] = (
        s(pick(lambda n: fn_of(n) == "chains.load_spec"), total_s), "s"
    )
    m["chains.build_s"] = (
        s(pick(lambda n: fn_of(n) == "chains.chain_from_rates"), total_s), "s"
    )

    root = pick(lambda n: n == ROOT)
    m["cli.self_s"] = (s(root, self_s) if root_layer == "cli" else 0.0, "s")

    # Layer shares of the traced op wall; they sum to 1.
    share_of = {
        "kernels": kern,
        "operators": ops_idx,
        "curvature_objective": obj,
        "curvature_descent": desc,
        "curvature_girth": girth,
        "curvature_other": pick(
            lambda n: layer_of(n) == "curvature"
            and n not in (OBJECTIVE, DESCENT)
            and fn_of(n) != "curvature.girth"
        ),
        "flow_propagation": prop,
        "flow_other": pick(lambda n: layer_of(n) == "flow" and n != PROPAGATION),
        "tensor": pick(lambda n: layer_of(n) == "tensor"),
        "chains": pick(lambda n: layer_of(n) == "chains"),
        root_layer: root,
    }
    for layer in SHARE_LAYERS:
        idx = share_of.get(layer, [])
        m[f"share.{layer}"] = (s(idx, self_s) / wall if wall else 0.0, "ratio")
    m["trace.spans"] = (float(sum(op["spans"] for op in ops)), "count")
    return m
