"""Per-layer tracing of rewirebench from outside the package.

Each trace point replaces a public function at the module attribute its
caller resolves at call time (``rewirebench.evaluation.ridge_fit``, not
``rewirebench.models.ridge_fit``), so the package itself is untouched and
``uninstall`` restores it exactly.

A span's self time is its duration minus the time of the spans it called on
the same thread. Spans opened on worker threads (GESN configs under
``--jobs``) have no parent there, so summed self time ("busy" time) can exceed
wall time. Counters come from arguments and return values: work sizes
(edges, GFLOP and MB computed from shapes, not measured) and outcomes
(power-iteration steps, unconverged calls, useful rewiring edits, OOR).
"""

from __future__ import annotations

import functools
import importlib
import logging
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp


def _spectral_radius(site: str):
    def hook(t, args, kwargs, result):
        t.count("spectral.spectral_radius.iterations", result.iterations)
        t.count("spectral.spectral_radius.unconverged", not result.converged)
        t.count(f"spectral.spectral_radius.{site}_calls")
    return hook


def _balanced_forman_edges(t, args, kwargs, result):
    t.count("kernels.balanced_forman_edges.edges", len(args[2]))


def _edge_curvatures(t, args, kwargs, result):
    t.count("curvature.edge_curvatures.edges", args[0].num_edges)


def _apply_rewiring(t, args, kwargs, result):
    ops = [op for _, op, _, _ in result.edit_log]
    iterations = len({it for it, _, _, _ in result.edit_log})
    if result.method == "sdrf":
        t.count("rewiring.sdrf.iterations", iterations)
        t.count("rewiring.sdrf.adds", ops.count("add"))
    elif result.method == "grlef":
        t.count("rewiring.grlef.iterations", iterations)
        t.count("rewiring.grlef.flips", ops.count("flip"))
    if isinstance(result.operator, np.ndarray):
        t.count("rewiring.operator_mb", result.operator.nbytes / 1e6)


def _gesn_embed(t, args, kwargs, result):
    mat = getattr(args[0], "matrix", args[0])
    n, hidden = result.shape
    propagate = mat.nnz if sp.issparse(mat) else n * n
    per_step = 2.0 * hidden * hidden * n + 2.0 * propagate * hidden
    t.count("models.gesn_embed.gflop", args[2].iterations * per_step / 1e9)


def _ridge_fit(t, args, kwargs, result):
    n, d = np.shape(args[0])
    d1, c = d + 1, result.classes.shape[0]
    flops = 2.0 * n * d1 * (d1 + c) + 2.0 / 3.0 * d1 ** 3 + 2.0 * d1 * d1 * c
    t.count("models.ridge_fit.gflop", flops / 1e9)


def _model_select(t, args, kwargs, result):
    t.count("evaluation.oor", result.oor)


# (span name, modules whose attribute is replaced, attribute, result hook)
POINTS = (
    ("datasets.load_dataset", ("cli",), "load_dataset", None),
    ("graph.diameter", ("graph",), "diameter", None),
    ("graph.shift_operator", ("evaluation", "rewiring", "spectral"),
     "shift_operator", None),
    ("kernels.balanced_forman_edges", ("kernels",), "balanced_forman_edges",
     _balanced_forman_edges),
    ("curvature.edge_curvatures", ("curvature",), "edge_curvatures",
     _edge_curvatures),
    ("spectral.spectral_radius", ("evaluation",), "spectral_radius",
     _spectral_radius("operator")),
    ("spectral.spectral_radius", ("models",), "spectral_radius",
     _spectral_radius("reservoir")),
    ("spectral.spectral_gap", ("cli",), "spectral_gap", None),
    ("spectral.heat_kernel", ("rewiring",), "heat_kernel", None),
    ("spectral.pagerank_kernel", ("rewiring",), "pagerank_kernel", None),
    ("spectral.effective_resistance", ("rewiring",), "effective_resistance",
     None),
    ("rewiring.apply_rewiring", ("cli", "evaluation"), "apply_rewiring",
     _apply_rewiring),
    ("rewiring.local_balanced_forman", ("rewiring",), "local_balanced_forman",
     None),
    ("models.gesn_init", ("evaluation",), "gesn_init", None),
    ("models.gesn_embed", ("evaluation",), "gesn_embed", _gesn_embed),
    ("models.ridge_fit", ("evaluation",), "ridge_fit", _ridge_fit),
    ("models.predict", ("evaluation",), "predict", None),
    ("models.pool", ("evaluation",), "pool", None),
    ("evaluation.model_select", ("cli",), "model_select", _model_select),
)

SPAN_NAMES = tuple(dict.fromkeys(p[0] for p in POINTS)) + ("cli.main",)


class _PinvCounter(logging.Handler):
    """Counts the ridge readout's pseudoinverse fallbacks, which the
    program reports only as a warning on the ``rewirebench.models`` logger."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "pseudoinverse" in record.getMessage():
            self.tracer.count("models.ridge_fit.pinv_fallbacks")


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._patches: list = []
        self._handler = _PinvCounter(self)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - children[0]
                with tracer._lock:
                    tracer.self_s[name] += own
                    tracer.counters[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for name, modules, attr, hook in POINTS:
            for short in modules:
                module = importlib.import_module(f"rewirebench.{short}")
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original, hook))
                self._patches.append((module, attr, original))
        logging.getLogger("rewirebench.models").addHandler(self._handler)

    def uninstall(self) -> None:
        logging.getLogger("rewirebench.models").removeHandler(self._handler)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
