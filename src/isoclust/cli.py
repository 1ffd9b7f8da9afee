"""isoclust command line.

Subcommands: measure, sweep, mp, transform, generate, cluster,
project.  CSV in and out (RFC 4180, header row); reports are UTF-8
JSON.  Outputs are byte-identical for identical inputs, equal seeds
and an equal BLAS thread count (large scatter products and
eigendecompositions round differently across thread counts);
wall-clock timings, which vary, live in a report's "metadata" block,
the one part excluded from that guarantee.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure,
5 out of memory.  Every command checks its output paths (default
sidecars too) and its flags before it reads any input.  An
input column named `label` is rejected unless it is the --label-column.
"""

from __future__ import annotations

import argparse
import csv
import encodings.utf_8_sig  # the CSV reader's codec: load it with the package, not inside a timed run
import json
import locale  # argparse's gettext loads it on the first parse: likewise
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .core import EIGEN_KERNEL, ClusterAssignment, DataError, NumericError, PointCloud
from .kmeans import kmeans
from .measure import METRICS, check_options, run_measure
from .randmat import run_mp_rows
from .synth import SHAPE_KINDS, anisotropic_gaussian, gaussian_cluster, shape_cluster
from .transforms import (
    RbfMap,
    check_minmax_range,
    check_rbf_args,
    minmax_scale,
    pca_project,
    rbf_fit,
    rbf_transform,
)
from .zmeasure import DEFAULT_RND_COUNT, run_sweep


# ---------------------------------------------------------------------------
# CSV I/O


@contextmanager
def _utf8_input(path):
    """Turn a byte that does not decode as UTF-8, read in the block, into
    a ``DataError`` naming the input file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def _csv_rows(path, fh):
    """``csv.reader(fh)``, a ``csv.Error`` raised as a ``DataError`` naming the row."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path} row {reader.line_num}: {exc}") from None


def read_cloud_csv(path, label_column: str | None = None):
    """Read a CSV with a header row into (cloud, assignment, mapping).

    Without ``label_column`` the assignment and mapping are None.

    All columns except the label column must be numeric; parse
    failures (a malformed row too) are reported with their row number.
    A header that names a column twice is rejected, and so is a column
    named ``label`` (the cluster ids ``write_cloud_csv`` appends) that is
    not the ``label_column``, before any row is parsed.  Reading holds
    about 1x the float data: values go into one buffer that becomes the
    cloud's array.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with
    with _utf8_input(path), path.open(newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if len(set(header)) != len(header):
            repeated = sorted(name for name, count in Counter(header).items() if count > 1)
            raise DataError(f"{path}: the header names {repeated} more than once")
        if "label" in header and label_column != "label":
            raise DataError(
                f"{path} has a column named 'label', which holds cluster ids, not a feature; "
                "pass --label-column label to measure those labels"
            )
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise DataError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        columns = [name for i, name in enumerate(header) if i != label_idx]
        if not columns:
            raise DataError(f"{path}: no feature columns")
        values = array("d")
        labels, mapping = [], {}  # mapping: label -> id in order of first appearance
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path} row {rownum}: {len(row)} fields, header has {len(header)}")
            if label_idx is not None:
                labels.append(mapping.setdefault(row.pop(label_idx), len(mapping)))
            try:
                values.extend(map(float, row))
            except ValueError as exc:
                raise DataError(f"{path} row {rownum}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no data rows")
    cloud = PointCloud(np.frombuffer(values).reshape(-1, len(columns)), columns=columns)
    if label_idx is None:
        return cloud, None, None
    return cloud, ClusterAssignment(labels), mapping


def write_cloud_csv(path, cloud: PointCloud, labels=None):
    """The bytes ``csv.writer`` writes, one row held at a time.

    Only the header goes through ``csv.writer``: a column name may need
    RFC 4180 quoting.  A data row is its floats' ``repr`` (the shortest
    exact round trip) joined by commas, then the label as an integer,
    then CRLF, which is what ``csv.writer`` writes for it: no float
    ``repr`` holds a comma, a quote or a line break.
    """
    header = list(cloud.columns or [f"x{i}" for i in range(cloud.n_dims)])
    suffixes = repeat("", len(cloud.data))
    if labels is not None:
        header.append("label")
        suffixes = (f",{int(label)}" for label in labels)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for row, suffix in zip(cloud.data, suffixes, strict=True):
            fh.write(",".join(map(repr, row.tolist())) + suffix + "\r\n")


def _write_rows_csv(path, rows):
    """Header from the first row's keys; csv writes None as an empty field."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _kmeans_summary(k: int, result) -> dict:
    return {"k": k, "inertia": result.inertia, "iterations": result.n_iter, "reseeded": result.reseeded}


# ---------------------------------------------------------------------------
# measure


def cmd_measure(args) -> int:
    metrics = None if args.metrics is None else _parse_list(args.metrics, "--metrics", str)
    check_options(metrics, args.vectors, args.threads)
    multi = args.kmeans_multi is not None
    ks = [args.kmeans]  # None: the labels read from --label-column
    if multi:
        ks = _parse_list(args.kmeans_multi, "--kmeans-multi", int)
        if len(set(ks)) != len(ks):
            raise DataError(f"--kmeans-multi lists a k twice: {args.kmeans_multi!r}")
    cloud, assignment, mapping = read_cloud_csv(args.input, args.label_column)
    options = {
        "vectors": args.vectors,
        "seed": args.seed,
        "fa_normalized": args.fa_normalized,
        "threads": args.threads,
    }
    report = {
        "version": __version__,
        "command": "measure",
        "params": {
            "input": str(args.input),
            "label_column": args.label_column,
            "kmeans": args.kmeans,
            "kmeans_multi": args.kmeans_multi,
            "metrics": metrics or list(METRICS),
            **options,
        },
        "n_points": cloud.n_points,
        "n_dims": cloud.n_dims,
    }
    # the library and symbol every eigendecomposition ran in
    runs, metadata = {}, {"eigen_kernel": EIGEN_KERNEL}
    for k in ks:
        section, run_metadata = {}, {}
        if k is not None:
            result = kmeans(cloud, k, seed=args.seed)
            assignment = result.assignment
            section["kmeans"] = _kmeans_summary(k, result)
            run_metadata["kmeans_inertia_history"] = result.inertia_history
        section.update(run_measure(cloud, assignment, metrics=metrics, **options).to_dict())
        run_metadata.update(section.pop("metadata"))
        suffix = f".k={k}" if multi else ""
        metadata.update({key + suffix: value for key, value in run_metadata.items()})
        runs[str(k)] = section
    if multi:
        report["multi"] = runs
        shared = set.intersection(*(set(run["global"]) for run in runs.values()))
        report["global_mean"] = {
            name: sum(run["global"][name] for run in runs.values()) / len(ks) for name in shared
        }
    else:
        report.update(section)
        report["k"] = assignment.k
        if mapping is not None:
            report["label_mapping"] = mapping
    report["metadata"] = metadata
    _write_json(args.output, report)
    return 0


# ---------------------------------------------------------------------------
# sweep / mp


def cmd_sweep(args) -> int:
    dims = _parse_list(args.dims, "--dims", int)
    counts = _parse_list(args.vectors, "--vectors", int)
    _write_rows_csv(args.output, run_sweep(dims, args.points, args.repeats, counts, args.seed))
    return 0


def cmd_mp(args) -> int:
    dims = _parse_list(args.dims, "--dims", int)
    _write_rows_csv(args.output, run_mp_rows(args.points, dims, args.sigma2, args.mu, args.empirical, args.seed))
    return 0


# ---------------------------------------------------------------------------
# transform / generate / cluster / project


def cmd_transform(args) -> int:
    if args.rbf_map is not None and (args.components is not None or args.gamma is not None):
        raise DataError("--rbf-map reuses a saved map; omit --components and --gamma")
    if args.gamma is not None and args.components is None:
        raise DataError("--gamma requires --components")
    if args.minmax is None and args.rbf_map is None and args.components is None:
        raise DataError("nothing to do: pass --minmax and/or --components/--rbf-map")
    bounds = None if args.minmax is None else _parse_float_pair(args.minmax, "--minmax")
    if bounds is not None:
        check_minmax_range(*bounds)
    if args.components is not None:
        check_rbf_args(args.components, args.gamma)
    cloud, _, _ = read_cloud_csv(args.input)
    if bounds is not None:
        cloud, _ = minmax_scale(cloud, *bounds)
    if args.rbf_map is not None:
        with _utf8_input(args.rbf_map):
            text = Path(args.rbf_map).read_text(encoding="utf-8")
        rbf = RbfMap.from_json(text)
        cloud = rbf_transform(rbf, cloud)
    elif args.components is not None:
        gamma = args.gamma if args.gamma is not None else 1.0 / cloud.n_dims
        rbf = rbf_fit(cloud.n_dims, args.components, gamma, args.seed)
        cloud = rbf_transform(rbf, cloud)
        Path(args.rbf_sidecar).write_text(rbf.to_json() + "\n", encoding="utf-8")
    write_cloud_csv(args.output, cloud)
    return 0


# the optional flags each kind reads; the library holds their defaults
_KIND_FLAGS = {"gaussian": ("mean", "std"), "anisotropic": ("stds",), **dict.fromkeys(SHAPE_KINDS, ("noise",))}


def cmd_generate(args) -> int:
    flags = ("mean", "std", "stds", "noise")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    for flag in given:
        if flag not in _KIND_FLAGS[args.kind]:
            raise DataError(f"--{flag} does not apply to {args.kind} clusters")
    if args.kind in SHAPE_KINDS:
        if args.dims not in (None, 2):
            raise DataError(f"{args.kind} clusters are 2-D; omit --dims")
        cloud = shape_cluster(args.kind, args.points, seed=args.seed, **given)
    elif args.kind == "gaussian":
        dims = 2 if args.dims is None else args.dims
        cloud = gaussian_cluster(dims, args.points, seed=args.seed, **given)
    else:  # anisotropic
        if not args.stds:
            raise DataError("anisotropic clusters need --stds (comma-separated, one per axis)")
        stds = _parse_list(args.stds, "--stds", float)
        if args.dims not in (None, len(stds)):
            raise DataError(f"anisotropic clusters have one axis per --stds value ({len(stds)}); omit --dims")
        cloud = anisotropic_gaussian(len(stds), args.points, stds, seed=args.seed)
    write_cloud_csv(args.output, cloud)
    return 0


def cmd_cluster(args) -> int:
    cloud, _, _ = read_cloud_csv(args.input)
    result = kmeans(cloud, args.kmeans, seed=args.seed)
    write_cloud_csv(args.output, cloud, labels=result.assignment.labels)
    _write_json(
        args.centroids,
        {
            **_kmeans_summary(args.kmeans, result),
            "seed": args.seed,
            "centroids": [[float(x) for x in row] for row in result.centroids],
        },
    )
    return 0


def cmd_project(args) -> int:
    cloud, _, _ = read_cloud_csv(args.input)
    projected = pca_project(cloud, args.dims)
    write_cloud_csv(args.output, projected)
    return 0


# ---------------------------------------------------------------------------
# parsing helpers and entry point


def _parse_list(text: str, flag: str, kind) -> list:
    """A non-empty comma list of ``kind`` (str, int or float) values."""
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise DataError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise DataError(f"{flag} got an empty list")
    return values


def _parse_float_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise DataError(f"{flag} expects LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise DataError(f"{flag} expects numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclust",
        description="Isotropy measures for point clusters.",
    )
    parser.add_argument("--version", action="version", version=f"isoclust {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measure", help="compute cluster metrics from a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="JSON report path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--label-column", help="CSV column holding cluster labels")
    group.add_argument("--kmeans", type=int, metavar="K", help="cluster with k-means (typical K: 5 or 10)")
    group.add_argument(
        "--kmeans-multi",
        nargs="?",
        const="5,10",
        metavar="K1,K2",
        help="run k-means at several K (default 5,10) and average global metrics",
    )
    p.add_argument("--metrics", help=f"comma list from: {','.join(METRICS)} (default: all)")
    p.add_argument("--vectors", type=int, default=DEFAULT_RND_COUNT, help="random directions for i_rnd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fa-normalized", action="store_true", help="scale FA so a one-hot spectrum is 1")
    p.add_argument("--threads", type=int, default=1, help="cap on worker threads (at most one per CPU)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="isotropy and timing across dimensionalities")
    p.add_argument("--dims", required=True, help="comma list of dimensionalities")
    p.add_argument("--points", type=int, default=100, help="points per sampled cluster")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--vectors", default="10,100,1000,10000", help="comma list of direction counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mp", help="spectral-law predictions vs sampled clusters")
    p.add_argument("--points", type=int, required=True, help="points per cluster (T)")
    p.add_argument("--dims", required=True, help="comma list of dimensionalities")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--empirical", type=int, default=10, help="sampled clusters per row (0 to skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_mp)

    p = sub.add_parser("transform", help="min-max scale and/or map through random Fourier features")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--minmax", nargs="?", const="-1:1", metavar="LO:HI", help="scale columns to [LO, HI]")
    p.add_argument("--components", type=int, metavar="L", help="RBF feature count")
    p.add_argument("--gamma", type=float, help="RBF kernel width (default 1/n_dims)")
    p.add_argument("--rbf-map", metavar="FILE", help="reuse a saved RBF map instead of fitting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("generate", help="write a synthetic cluster CSV")
    p.add_argument("--kind", required=True, choices=("gaussian", "anisotropic") + SHAPE_KINDS)
    p.add_argument("--dims", type=int, help="dimensionality (gaussian only; shapes are 2-D)")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--mean", type=float, help="per-axis mean (gaussian; default 0)")
    p.add_argument("--std", type=float, help="per-axis deviation (gaussian; default 1)")
    p.add_argument("--stds", help="comma list, one std per axis (anisotropic)")
    p.add_argument("--noise", type=float, help="additive Gaussian noise (shapes; default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="k-means a CSV and append a label column")
    p.add_argument("--input", required=True)
    p.add_argument("--kmeans", type=int, required=True, metavar="K", help="cluster count (typical: 5 or 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--centroids", help="centroid JSON sidecar (default: OUTPUT.centroids.json)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("project", help="PCA-project a CSV to 2 or 3 dims for plotting")
    p.add_argument("--input", required=True)
    p.add_argument("--dims", type=int, choices=(2, 3), default=2)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "seed", 0) < 0:
            raise DataError(f"--seed must be >= 0, got {args.seed}")
        for flag in ("input", "output", "rbf_map", "centroids"):
            if getattr(args, flag, None) == "":
                raise DataError(f"--{flag.replace('_', '-')} got an empty path")
        if args.subcommand == "cluster" and args.centroids is None:
            args.centroids = f"{args.output}.centroids.json"
        # an output that cannot be opened is found before the work, not after it
        outputs = {f"--{flag}": getattr(args, flag, None) for flag in ("output", "centroids")}
        if args.subcommand == "transform" and args.components is not None:
            outputs["the RBF map sidecar"] = args.rbf_sidecar = f"{args.output}.rbf.json"
        for name, path in outputs.items():
            if path is not None and Path(path).is_dir():
                raise DataError(f"{name} {path}: Is a directory")
            if path is not None and not Path(path).parent.is_dir():
                raise DataError(f"{name} {path}: No such file or directory")
        return args.func(args)
    except DataError as exc:
        print(f"isoclust: data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"isoclust: numeric error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"isoclust: out of memory: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"isoclust: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
