"""Span tracing for the benchmark's traced run, installed from outside the library.

Every public function of every ``nongauss`` module is replaced, in each module
namespace that binds it, by a wrapper that records a span (name, start, end,
parent, op).  ``DensityMatrix.__post_init__`` and ``DensityMatrix.eigenvalues``
are wrapped as methods.  ``scipy.linalg.expm`` and ``numpy.linalg.eigh`` /
``eigvalsh`` are wrapped as counters: each call adds n^3, a computed operation
count, to the layer of the innermost open span.  ``lru_cache`` counters are
read through ``cache_info()``.  Spans stay in memory until ``write_jsonl``.

Names that are missing from the library are skipped, so a later version that
drops a helper still traces; the metrics that relied on it read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

MODULES = ("fock", "gaussian", "states", "channels", "measures", "distillation",
           "infometrics", "bounds", "figures", "cli")

# span name per (module, function); "*" covers the rest of the module's __all__
SPAN_NAMES = {
    "fock": {"purity": "fock.spectrum", "overlap": "fock.spectrum",
             "von_neumann_entropy": "fock.spectrum", "shannon_entropy": "fock.spectrum",
             "partial_trace": "fock.spectrum", "partial_transpose": "fock.spectrum",
             "*": "fock.other"},
    "gaussian": {"displacement_matrix": "gaussian.synth", "squeeze_matrix": "gaussian.synth",
                 "gaussian_fock_block": "gaussian.synth",
                 "synthesize_single_mode_gaussian": "gaussian.synth",
                 "h": "gaussian.entropy", "symplectic_eigenvalues": "gaussian.entropy",
                 "gaussian_entropy": "gaussian.entropy", "*": "gaussian.other"},
    "states": {"*": "states"},
    "channels": {"apply_beam_splitter_tensor": "channels.bs_tensor",
                 "displace": "channels.unitary", "squeeze": "channels.unitary",
                 "beam_split": "channels.unitary",
                 "loss": "channels.maps", "phase_diffusion": "channels.maps",
                 "kerr": "channels.maps", "_kerr_density": "channels.maps",
                 "loss_transition_matrix": "channels.loss_table", "*": "channels.dispatch"},
    "measures": {"delta_a": "measures.delta_a", "delta_b": "measures.delta_b",
                 "delta_c": "measures.delta_c", "ng_of_map": "measures.ng_of_map",
                 "*": "measures.other"},
    "distillation": {"b_protocol_step": "distillation.b_step",
                     "t_protocol_output": "distillation.t_output",
                     "log_negativity": "distillation.log_negativity",
                     "*": "distillation.other"},
    "infometrics": {"*": "infometrics"},
    "bounds": {"*": "bounds"},
    "figures": {"build_figure": "figures"},
    "cli": {"main": "cli"},
}

SECONDS, COUNT, RATIO = "s", "count", "ratio"

# (metric, unit); the order is the order of the report
LAYER_METRICS = [
    ("states.calls", COUNT), ("states.self_s", SECONDS),
    ("channels.bs_tensor.calls", COUNT), ("channels.bs_tensor.self_s", SECONDS),
    ("channels.bs_block.misses", COUNT), ("channels.bs_block.hit_ratio", RATIO),
    ("channels.expm.calls", COUNT), ("channels.expm.dim3_sum", COUNT),
    ("channels.unitary.calls", COUNT), ("channels.unitary.self_s", SECONDS),
    ("channels.maps.calls", COUNT), ("channels.maps.self_s", SECONDS),
    ("gaussian.moments.vector.calls", COUNT), ("gaussian.moments.vector.self_s", SECONDS),
    ("gaussian.moments.density.calls", COUNT), ("gaussian.moments.density.self_s", SECONDS),
    ("gaussian.synth.calls", COUNT), ("gaussian.synth.self_s", SECONDS),
    ("gaussian.expm.calls", COUNT), ("gaussian.expm.dim3_sum", COUNT),
    ("gaussian.synth.useful_ratio", RATIO),
    ("gaussian.entropy.self_s", SECONDS),
    ("fock.spectrum.calls", COUNT), ("fock.spectrum.self_s", SECONDS),
    ("fock.spectrum.dim3_sum", COUNT),
    ("fock.construct.calls", COUNT), ("fock.construct.self_s", SECONDS),
    ("measures.delta_a.calls", COUNT), ("measures.delta_a.self_s", SECONDS),
    ("measures.delta_b.calls", COUNT), ("measures.delta_b.self_s", SECONDS),
    ("measures.delta_c.calls", COUNT), ("measures.delta_c.self_s", SECONDS),
    ("measures.delta_c.grid_points", COUNT),
    ("measures.ng_of_map.self_s", SECONDS), ("measures.ng_of_map.evaluations", COUNT),
    ("measures.ng_of_map.useful_ratio", RATIO),
    ("bounds.calls", COUNT), ("bounds.self_s", SECONDS),
    ("infometrics.calls", COUNT), ("infometrics.self_s", SECONDS),
    ("distillation.b_step.calls", COUNT), ("distillation.b_step.self_s", SECONDS),
    ("distillation.b_step.branch_pairs", COUNT),
    ("distillation.t_output.calls", COUNT), ("distillation.t_output.self_s", SECONDS),
    ("distillation.log_negativity.calls", COUNT),
    ("distillation.log_negativity.self_s", SECONDS),
    ("figures.self_s", SECONDS), ("cli.self_s", SECONDS),
    ("trace.overhead_s", SECONDS),
]

NAME, START, END, PARENT, OP, EXPM_DIM = range(6)


def _span_layer(name: str) -> str:
    return name.split(".", 1)[0]


def _array_rows(result) -> int:
    if isinstance(result, tuple):
        result = result[0]
    if isinstance(result, np.ndarray):
        return result.shape[0]
    return int(result.cutoff)


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, max expm dim]
        self.stack = []
        self.counters = defaultdict(float)
        self.op = None
        self._patches = []       # (owner, attribute, original)
        self._in_minimize = False

    # -- recording --------------------------------------------------------

    def _innermost(self):
        return self.spans[self.stack[-1]] if self.stack else None

    def _wrap(self, fn, name, pre=None, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if pre is not None:
                pre(args)
            idx = len(tracer.spans)
            rec = [span_name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.op, 0]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if post is not None:
                post(result, idx)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def call(self, name, fn):
        """``fn()`` inside a span of its own, for code the wrappers do not reach."""
        return self._wrap(fn, name)()

    def _count_cubic(self, fn, suffix):
        """Counter for a dense O(n^3) routine, charged to the innermost span's layer."""
        tracer = self

        def wrapper(a, *args, **kwargs):
            n = int(np.shape(a)[-1])
            span = tracer._innermost()
            layer = _span_layer(span[NAME]) if span else "other"
            if suffix == "expm":
                tracer.counters[f"{layer}.expm.calls"] += 1
                tracer.counters[f"{layer}.expm.dim3_sum"] += n ** 3
                if span:
                    span[EXPM_DIM] = max(span[EXPM_DIM], n)
            else:
                tracer.counters["fock.spectrum.dim3_sum"] += n ** 3
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the derived counts ---------------------------------------

    def _synth_post(self, result, idx):
        """Returned cutoff^2 against the largest internal dim^2, outermost synth span only."""
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == "gaussian.synth":
                return
            parent = self.spans[parent][PARENT]
        rows = _array_rows(result)
        internal = max([rows] + [s[EXPM_DIM] for s in self.spans[idx:]])
        self.counters["synth.useful"] += rows * rows
        self.counters["synth.internal"] += internal * internal

    def _delta_c_post(self, result, idx):
        diag = result.diagnostics
        from nongauss.measures import QuadratureGrid
        side = QuadratureGrid(diag["grid_half_width"], diag["grid_spacing"]).points().size
        self.counters["measures.delta_c.grid_points"] += side * side * diag["cutoff_used"]

    def _ng_of_map_post(self, result, idx):
        self.counters["measures.ng_of_map.evaluations"] += result.diagnostics["evaluations"]

    def _b_step_pre(self, args):
        state = args[0]
        if hasattr(state, "rank"):
            rank = state.rank
        elif hasattr(state, "amplitudes"):
            rank = 1
        else:
            rank = int(np.sum(self._eigvalsh(state.matrix) > 1e-12))
        self.counters["distillation.b_step.branch_pairs"] += rank * rank

    def _params_pre(self, args):
        # a grid candidate of ng_of_map: a probe built outside Nelder-Mead
        span = self._innermost()
        if span and span[NAME] == "measures.ng_of_map" and not self._in_minimize:
            self.counters["ng_of_map.objective_calls"] += 1

    def _wrap_minimize(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._in_minimize = True
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._in_minimize = False
            tracer.counters["ng_of_map.objective_calls"] += res.nfev
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _wrap_plain(fn, pre):
        def wrapper(*args, **kwargs):
            pre(args)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import nongauss
        modules = {m: importlib.import_module(f"nongauss.{m}") for m in MODULES}
        namespaces = [nongauss] + list(modules.values())
        self._eigvalsh = np.linalg.eigvalsh
        hooks = {
            "gaussian.synth": (None, self._synth_post),
            "measures.delta_c": (None, self._delta_c_post),
            "measures.ng_of_map": (None, self._ng_of_map_post),
            "distillation.b_step": (self._b_step_pre, None),
        }
        wrappers = {}
        for mod_name, table in SPAN_NAMES.items():
            mod = modules[mod_name]
            names = set(getattr(mod, "__all__", [])) | (set(table) - {"*"})
            for attr in sorted(names):
                fn = getattr(mod, attr, None)
                if fn is None or inspect.isclass(fn) or not callable(fn):
                    continue
                span = table.get(attr, table.get("*"))
                if span is None:
                    continue
                if mod_name == "gaussian" and attr == "moments":
                    span = _moments_span
                pre, post = hooks.get(span, (None, None)) if isinstance(span, str) else (None, None)
                wrappers[id(fn)] = (fn, self._wrap(fn, span, pre, post))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(ns, attr, wrappers[id(value)][1])

        dm = modules["fock"].DensityMatrix
        self._patch(dm, "__post_init__", self._wrap(dm.__post_init__, "fock.construct"))
        self._patch(dm, "eigenvalues", self._wrap(dm.eigenvalues, "fock.spectrum"))
        params = modules["gaussian"].SingleModeGaussianParams
        self._patch(params, "__post_init__",
                    self._wrap_plain(params.__post_init__, self._params_pre))
        if hasattr(modules["measures"], "minimize"):
            self._patch(modules["measures"], "minimize",
                        self._wrap_minimize(modules["measures"].minimize))
        self._patch(scipy.linalg, "expm", self._count_cubic(scipy.linalg.expm, "expm"))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._count_cubic(getattr(np.linalg, attr), "eig"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _bs_cache() -> tuple:
        """(hits, misses) of the beam-splitter block cache; every pass starts
        with cleared caches, so these are the traced pass's own counts."""
        from nongauss import channels
        block = getattr(channels, "_bs_block", None)
        if block is None or not hasattr(block, "cache_info"):
            return 0, 0
        info = block.cache_info()
        return info.hits, info.misses

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += t
        hits, misses = self._bs_cache()
        c = self.counters
        derived = {
            "channels.bs_block.misses": misses,
            "channels.bs_block.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "gaussian.synth.useful_ratio":
                c["synth.useful"] / c["synth.internal"] if c["synth.internal"] else 0.0,
            "measures.ng_of_map.useful_ratio":
                (c["measures.ng_of_map.evaluations"] / c["ng_of_map.objective_calls"]
                 if c["ng_of_map.objective_calls"] else 0.0),
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit in LAYER_METRICS:
            span, _, field = name.rpartition(".")
            by_span = {"calls": calls[span], "self_s": self_s[span]}.get(field, 0)
            value = derived.get(name, c.get(name, by_span))
            out[name] = {"value": int(value) if unit == COUNT else float(value), "unit": unit}
        return out

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (s, t) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "self_s": t}) + "\n")


def _moments_span(args) -> str:
    state = args[0]
    return "gaussian.moments.vector" if hasattr(state, "amplitudes") else "gaussian.moments.density"


def clear_library_caches() -> None:
    """Empty every lru_cache of the library, so each pass starts cold."""
    for mod_name in MODULES:
        mod = importlib.import_module(f"nongauss.{mod_name}")
        for value in vars(mod).values():
            target = value if hasattr(value, "cache_clear") else getattr(value, "__wrapped__", None)
            if hasattr(target, "cache_clear"):
                target.cache_clear()

