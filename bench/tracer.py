"""Spans around the package's layer functions, recorded from outside it.

``install`` replaces each traced function at every ``isoclust`` module
that bound it, and each traced property on its class, with a wrapper
that records a span: name, start, end, parent span, thread and a few
computed counts.  Nothing under ``src/`` changes.  Spans are held in
memory and written out by the child process when the op ends.

``layer_metrics`` turns one op's spans into per-layer numbers.  A
layer's self time is its span time minus its children's.  Spans that
run in a pool's worker threads count toward self time with weight
1 / (number of worker threads under their parent), the share of wall
time they stand for, so that on every op the self times plus
``cli.unattributed_s`` sum to the op's ``run_s``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict


def vm_hwm_kb() -> int:
    """This process's peak resident set (Linux VmHWM), in kB.

    Unlike ``ru_maxrss``, VmHWM starts afresh at exec, so it does not
    inherit the spawning process's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _views_bytes(views) -> int:
    n = sum(v.size for v in views)
    return n * n * 8


def _given_b(view, b):
    if view.degenerate:
        return {"directions": 0, "exponent_bytes": 0}
    return {"directions": 2 * b.count, "exponent_bytes": view.size * b.count * 8}


def _vectors_pre(summary):
    # the eigenbasis is computed (n^3) only when it is not cached yet
    return {"eig_n3": summary.n_dims**3 if getattr(summary, "_vectors", 1) is None else 0}


# (module, attribute, counts before the call, counts after the call).
# A dotted attribute names a property of a class.  Each count function
# takes the call's arguments; an "after" function also takes its result.
TARGETS = (
    ("isoclust.cli", "read_cloud_csv", None, lambda r, path, *a, **k: {"bytes": os.path.getsize(path)}),
    ("isoclust.cli", "write_cloud_csv", None, lambda r, path, *a, **k: {"bytes": os.path.getsize(path)}),
    ("isoclust.cli", "run_measure", lambda *a, threads=1, **k: {"threads": threads}, None),
    ("isoclust.core", "split_clusters", None, lambda r, *a, **k: {"clusters": len(r)}),
    ("isoclust.core", "ClusterView.points", lambda view: {"bytes": view.size * view.n_dims * 8}, None),
    (
        "isoclust.kmeans",
        "kmeans",
        lambda *a, **k: {"hwm_before_kb": vm_hwm_kb()},
        lambda r, *a, **k: {"iterations": r.n_iter, "reseeded": int(r.reseeded), "hwm_after_kb": vm_hwm_kb()},
    ),
    (
        "isoclust.spectral",
        "spectral_summary",
        None,
        lambda r, view: {"eig_n3": 0 if r.degenerate else min(view.n_dims, view.size) ** 3},
    ),
    ("isoclust.spectral", "SpectralSummary.vectors", _vectors_pre, None),
    ("isoclust.zmeasure", "isotropy_given_b", _given_b, None),
    ("isoclust.zmeasure", "isotropy_vec", None, None),
    ("isoclust.zmeasure", "random_unit_vectors", None, None),
    (
        "isoclust.validation",
        "silhouette",
        lambda views: {"matrix_bytes": _views_bytes(views), "hwm_before_kb": vm_hwm_kb()},
        lambda r, views: {"hwm_after_kb": vm_hwm_kb()},
    ),
    ("isoclust.validation", "mean_pairwise_dist", None, None),
    ("isoclust.validation", "calinski_harabasz", None, None),
    ("isoclust.validation", "davies_bouldin", None, None),
)


class Recorder:
    """Collects spans from every thread; each thread keeps its own stack.

    A span opened in a thread whose stack is empty takes the span open on
    the creating (main) thread as its parent, which is how per-cluster
    spans in pool threads attach to ``run_measure``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {
                "name": name,
                "parent": parent,
                "thread": threading.get_ident(),
                "counts": dict(before(*args, **kwargs)) if before else {},
            }
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after:
                span["counts"].update(after(result, *args, **kwargs))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; names not found are listed in ``missing``."""
        packages = [m for n, m in list(sys.modules.items()) if n == "isoclust" or n.startswith("isoclust.")]
        for module_name, attr, before, after in TARGETS:
            module = sys.modules.get(module_name)
            name = f"{module_name.split('.')[-1]}.{attr}"
            if "." in attr:
                cls_name, prop_name = attr.split(".")
                cls = getattr(module, cls_name, None)
                prop = getattr(cls, "__dict__", {}).get(prop_name)
                if not isinstance(prop, property):
                    self.missing.append(name)
                    continue
                setattr(cls, prop_name, property(self.wrap(name, prop.fget, before, after)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, before, after)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from one op's spans

SELF_TIMED = [f"{m.split('.')[-1]}.{a}" for m, a, _, _ in TARGETS]
CALLS = (
    "cli.write_cloud_csv",
    "core.ClusterView.points",
    "spectral.spectral_summary",
    "spectral.SpectralSummary.vectors",
    "zmeasure.isotropy_given_b",
)

# name -> unit of every per-layer metric, in report order
UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALLS},
    "cli.read_cloud_csv.bytes": "B",
    "cli.write_cloud_csv.bytes": "B",
    "cli.run_measure.parallel_efficiency": "ratio",
    "cli.unattributed_s": "s",
    "core.ClusterView.points.bytes": "B",
    "core.degenerate_clusters": "count",
    "kmeans.iterations": "count",
    "kmeans.s_per_iteration": "s",
    "kmeans.reseeded": "count",
    "kmeans.rss_hwm_delta_mb": "MB",
    "spectral.spectral_summary.calls_per_cluster": "ratio",
    "spectral.eigh_n3": "count",
    "zmeasure.directions_probed": "count",
    "zmeasure.exponent_bytes.max": "B",
    "validation.silhouette.matrix_bytes": "B",
    "validation.silhouette.rss_hwm_delta_mb": "MB",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}


class TraceError(ValueError):
    """Spans that do not nest, so self times cannot add up to run_s."""


def layer_metrics(spans: list[dict], run_s: float, degenerate_clusters: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (all but ``trace.overhead_ratio``)."""
    dur = [s["end"] - s["start"] for s in spans]
    same_children = defaultdict(float)
    cross_children = defaultdict(float)
    cross_threads = defaultdict(set)
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is None:
            continue
        if spans[p]["thread"] == s["thread"]:
            same_children[p] += dur[i]
        else:
            cross_children[p] += dur[i]
            cross_threads[p].add(s["thread"])

    weight = [1.0] * len(spans)  # parents precede children in the list
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is not None:
            weight[i] = weight[p] / (len(cross_threads[p]) if spans[p]["thread"] != s["thread"] else 1)

    out = dict.fromkeys(UNITS, 0.0)
    counts = defaultdict(float)
    top_level = 0.0
    for i, s in enumerate(spans):
        share = len(cross_threads[i]) or 1
        self_s = dur[i] - same_children[i] - cross_children[i] / share
        if self_s < -1e-9:
            raise TraceError(f"span {s['name']} has negative self time {self_s}")
        out[f"{s['name']}.self_s"] += weight[i] * self_s
        if s["name"] in CALLS:
            out[f"{s['name']}.calls"] += 1
        for key, value in s["counts"].items():
            counts[f"{s['name']}.{key}"] += value
        if s["parent"] is None:
            top_level += dur[i]
        if "hwm_after_kb" in s["counts"]:
            layer = "kmeans" if s["name"] == "kmeans.kmeans" else s["name"]
            out[f"{layer}.rss_hwm_delta_mb"] += (s["counts"]["hwm_after_kb"] - s["counts"]["hwm_before_kb"]) / 1024
        if s["name"] == "cli.run_measure":
            busy = same_children[i] + cross_children[i]
            out["cli.run_measure.parallel_efficiency"] = busy / (s["counts"]["threads"] * dur[i])
        elif s["name"] == "zmeasure.isotropy_given_b":
            out["zmeasure.exponent_bytes.max"] = max(
                out["zmeasure.exponent_bytes.max"], s["counts"]["exponent_bytes"]
            )

    unattributed = run_s - top_level
    if unattributed < -1e-9:
        raise TraceError(f"top-level spans ({top_level} s) exceed run_s ({run_s} s)")
    out["cli.unattributed_s"] = unattributed
    out["cli.read_cloud_csv.bytes"] = counts["cli.read_cloud_csv.bytes"]
    out["cli.write_cloud_csv.bytes"] = counts["cli.write_cloud_csv.bytes"]
    out["core.ClusterView.points.bytes"] = counts["core.ClusterView.points.bytes"]
    out["core.degenerate_clusters"] = degenerate_clusters
    out["kmeans.iterations"] = counts["kmeans.kmeans.iterations"]
    out["kmeans.reseeded"] = counts["kmeans.kmeans.reseeded"]
    if out["kmeans.iterations"]:
        out["kmeans.s_per_iteration"] = out["kmeans.kmeans.self_s"] / out["kmeans.iterations"]
    clusters = counts["core.split_clusters.clusters"]
    if clusters:
        out["spectral.spectral_summary.calls_per_cluster"] = out["spectral.spectral_summary.calls"] / clusters
    out["spectral.eigh_n3"] = (
        counts["spectral.spectral_summary.eig_n3"] + counts["spectral.SpectralSummary.vectors.eig_n3"]
    )
    out["zmeasure.directions_probed"] = counts["zmeasure.isotropy_given_b.directions"]
    out["validation.silhouette.matrix_bytes"] = counts["validation.silhouette.matrix_bytes"]
    out["trace.run_s"] = run_s
    attributed = sum(out[f"{name}.self_s"] for name in SELF_TIMED) + unattributed
    if abs(attributed - run_s) > 1e-9 * max(1.0, run_s):
        raise TraceError(f"self times sum to {attributed} s, run_s is {run_s} s")
    return out
