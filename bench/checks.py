"""Output checks made on every op.  Any problem fails the op.

* A ``measure`` report, outside ``"metadata"``, must match the report
  recorded for its input in ``reference.json``: floats within 1e-9
  relative, everything else (keys, integers, labels, degenerate lists)
  exactly.  Every metric must also lie within its documented bound,
  which ``isoclust.MetricReport`` enforces on construction.
* A ``cluster`` output must carry the input's feature columns exactly,
  labels identical to the recorded ones, and a centroid sidecar that
  matches the recorded one (centroids: shape and finiteness only).
* Repeated ops on one input within a run must give byte-identical
  outputs outside ``"metadata"``; the caller compares ``canonical``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

REL_TOL = 1e-9


def compare(got, want, where: str = "report") -> list[str]:
    """Differences between a JSON value and its reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            keys = sorted(got) if isinstance(got, dict) else type(got).__name__
            return [f"{where}: keys {keys} != {sorted(want)}"]
        return [p for key in want for p in compare(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def without_metadata(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "metadata"}


def canonical(doc: dict) -> bytes:
    return json.dumps(without_metadata(doc), sort_keys=True).encode()


def bound_problems(report: dict) -> list[str]:
    from isoclust import DataError, MetricReport, NumericError

    try:
        MetricReport(
            per_cluster=report.get("per_cluster", {}),
            overall=report.get("global", {}),
            degenerate=report.get("degenerate_clusters", []),
        )
    except (DataError, NumericError) as exc:
        return [f"bounds: {exc}"]
    return []


def measure_problems(report: dict, reference: dict) -> list[str]:
    return compare(without_metadata(report), reference) + bound_problems(report)


def labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()


def parse_cluster_csv(text: str):
    """(header, features, labels) of a ``cluster`` output CSV."""
    lines = text.splitlines()
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return lines[0].split(","), table[:, :-1], table[:, -1]


def cluster_reference(text: str, sidecar: dict) -> dict:
    _, _, labels = parse_cluster_csv(text)
    rest = {k: v for k, v in sidecar.items() if k != "centroids"}
    return {"labels_sha256": labels_digest(labels), "sidecar": rest}


def cluster_problems(text: str, sidecar: dict, data: np.ndarray, reference: dict) -> list[str]:
    header, features, labels = parse_cluster_csv(text)
    problems = []
    want_header = [f"x{i}" for i in range(data.shape[1])] + ["label"]
    if header != want_header:
        problems.append(f"header {header[:3]}... != {want_header[:3]}...")
    if features.shape != data.shape or not np.array_equal(features, data):
        problems.append("feature columns do not round-trip to the input floats")
    if not np.array_equal(labels, np.round(labels)):
        problems.append("non-integer labels")
    elif labels_digest(labels) != reference["labels_sha256"]:
        problems.append("labels differ from the reference")
    rest = {k: v for k, v in sidecar.items() if k != "centroids"}
    problems += compare(rest, reference["sidecar"], "centroids.json")
    centroids = np.asarray(sidecar.get("centroids", []), dtype=float)
    if centroids.shape != (reference["sidecar"]["k"], data.shape[1]) or not np.isfinite(centroids).all():
        problems.append(f"centroids have shape {centroids.shape} or non-finite values")
    return problems
