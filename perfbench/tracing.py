"""Spans around asmfit's public functions, recorded from outside the program.

In a traced run the benchmark replaces each public function in WRAPS by a
wrapper, under the name its caller module resolves (``from .profiles import
mahalanobis_batch`` in search.py is patched as
``asmfit.search.mahalanobis_batch``). Each wrapper records one span: name,
start, end, parent span and the benchmark operation it belongs to. Spans
stay in memory in flat arrays and are written out when the run ends.
Stages with no public function of their own (candidate grid, cost and
gate loops, selection) fall into the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from metrics import self_times

# Span name -> the module attributes it wraps. The part before the first dot
# is the layer, which is the asmfit module that implements the function.
WRAPS = {
    "imaging.equalize": ("asmfit.search.equalize_histogram", "asmfit.training.equalize_histogram"),
    "imaging.sobel": ("asmfit.search.sobel_gradients", "asmfit.training.sobel_gradients"),
    "imaging.canny": ("asmfit.search.canny_edges",),
    "imaging.bilinear": ("asmfit.search.sample_bilinear", "asmfit.profiles.sample_bilinear"),
    "imaging.pyramid": ("asmfit.imaging.build_pyramid", "asmfit.training.build_pyramid",
                        "asmfit.cli.build_pyramid"),
    "profiles.mahalanobis": ("asmfit.search.mahalanobis_batch",),
    "profiles.windows": ("asmfit.search.windows_batch", "asmfit.training.windows_batch",
                         "asmfit.svm.windows_batch"),
    "profiles.normalize": ("asmfit.search.normalize_windows", "asmfit.training.normalize_windows",
                           "asmfit.svm.normalize_windows"),
    "profiles.normals": ("asmfit.search.landmark_normals", "asmfit.training.landmark_normals"),
    "profiles.stats": ("asmfit.training.stats_from_matrix",),
    "profiles.profiles_1d": ("asmfit.training.profiles_1d_batch",),
    "svm.sgd": ("asmfit.training.train_linear_svm",),
    "svm.training_set": ("asmfit.training.build_landmark_training_set",),
    "svm.gate": ("asmfit.search.decision_values",),
    "shape_model.fit_params": ("asmfit.search.fit_params",),
    "shape_model.gpa_build": ("asmfit.training.gpa_align", "asmfit.training.build_shape_model"),
    "search.fit": ("asmfit.search.fit", "asmfit.cli.fit"),
    "search.context": ("asmfit.search.build_level_context",),
    "search.search": ("asmfit.search.search_landmarks",),
    "search.init": ("asmfit.search.init_shape_from_box", "asmfit.cli.init_shape_from_box"),
    "training.train": ("asmfit.training.train_bundle",),
    "dataset_io.load_bundle": ("asmfit.dataset_io.load_bundle", "asmfit.cli.load_bundle"),
    "dataset_io.save_bundle": ("asmfit.dataset_io.save_bundle",),
    "dataset_io.image_io": ("asmfit.cli.load_image", "asmfit.cli.write_points_file",
                            "asmfit.cli.save_ppm"),
    "cli.main": ("asmfit.cli.main",),
    "cli.overlay": ("asmfit.cli.render_overlay",),
}

LAYERS = ("imaging", "profiles", "svm", "shape_model", "search", "training", "dataset_io", "cli")


def _count_gate(args, kwargs, result, counters):
    accepted = int(np.count_nonzero(result >= 0))
    counters["gate_candidates"] += result.size
    counters["gate_accepted"] += accepted
    counters["gate_fallbacks"] += accepted == 0


def _count_sgd(args, kwargs, result, counters):
    train_set = args[0] if args else kwargs["train_set"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    m = train_set.count
    counters["sgd_steps"] += config.epochs * math.ceil(m / min(config.batch_size, m))


def _count_fit(args, kwargs, result, counters):
    counters["fit_iterations"] += sum(result.iterations)
    counters["fit_levels"] += len(result.converged)
    counters["fit_levels_converged"] += sum(result.converged)


# Counts taken from a wrapped call's arguments and result, where the work is.
HOOKS = {"svm.gate": _count_gate, "svm.sgd": _count_sgd, "search.fit": _count_fit}


class Tracer:
    """Span store plus the monkeypatches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._patches = self._resolve()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _resolve(self):
        """(module, attribute, original, wrapper) for every wrapped name.

        A wrapped name that no longer exists is an error here, before any
        work is measured, so renamed functions cannot silently drop a layer.
        """
        patches = []
        for span, targets in WRAPS.items():
            name_id = self._name_id(span)
            for target in targets:
                mod_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(mod_name)
                if not hasattr(module, attr):
                    raise LookupError(f"traced name {target} no longer exists")
                original = getattr(module, attr)
                patches.append((module, attr, original,
                                self._wrap(original, name_id, HOOKS.get(span))))
        return patches

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_col.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id, hook):
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Trace one benchmark operation: patches in, one root span, patches out."""
        self._op_id += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        idx = self._open(self._name_id(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close(idx)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def span_table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.frombuffer(self.name_col, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=float)
        ends = np.frombuffer(self.end, dtype=float)
        own = self_times(starts, ends, np.frombuffer(self.parent, dtype=np.int32))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=ends - starts, minlength=k)
        excl = np.bincount(names, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span as flat arrays (numpy .npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def layer_metrics(table: dict, counters: Counter) -> dict:
    """Per-layer metrics from a span table: name -> (value, unit).

    Every metric is present even when its layer made no calls in this
    workload; it then reads 0.
    """

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    # Self time of each wrapped stage. The fit and init glue only counts in
    # search.layer_self_s; search.context is reported inclusive of its
    # imaging children.
    renamed = {"search.search": "search.search_self_s", "training.train": "training.self_s",
               "cli.main": "cli.self_s"}
    out = {}
    for span in WRAPS:
        if span not in ("search.fit", "search.init", "search.context"):
            out[renamed.get(span, f"{span}_s")] = (self_s(span), "s")
    out["search.context_s"] = (table.get("search.context", {}).get("incl_s", 0.0), "s")
    out["profiles.mahalanobis_calls"] = (calls("profiles.mahalanobis"), "count")
    out["svm.gate_calls"] = (calls("svm.gate"), "count")
    out["shape_model.fit_params_calls"] = (calls("shape_model.fit_params"), "count")
    out["svm.sgd_steps"] = (counters["sgd_steps"], "count")
    out["svm.gate_accept_frac"] = (
        ratio(counters["gate_accepted"], counters["gate_candidates"]), "ratio")
    out["svm.gate_fallback_frac"] = (ratio(counters["gate_fallbacks"], calls("svm.gate")), "ratio")
    out["search.iterations"] = (counters["fit_iterations"], "count")
    out["search.converged_frac"] = (
        ratio(counters["fit_levels_converged"], counters["fit_levels"]), "ratio")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, row in table.items():
        layer = span.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = (layer_self[layer], "s")
    wall = sum(row["incl_s"] for span, row in table.items() if span.startswith("bench."))
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_s"] = (wall - sum(layer_self.values()), "s")
    out["trace.spans"] = (sum(row["calls"] for row in table.values()), "count")
    return out
