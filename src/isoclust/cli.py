"""isoclust command line.

Subcommands: measure, sweep, mp, transform, generate, cluster,
project.  CSV in and out (RFC 4180, header row); reports are UTF-8
JSON.  Outputs are byte-identical for identical inputs, equal seeds
and an equal BLAS thread count (large scatter products and
eigendecompositions round differently across thread counts);
wall-clock timings, which vary, live in a report's "metadata" block,
the one part excluded from that guarantee.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .core import ClusterAssignment, DataError, NumericError, PointCloud
from .kmeans import kmeans
from .measure import METRICS, run_measure
from .randmat import run_mp_rows
from .synth import SHAPE_KINDS, anisotropic_gaussian, gaussian_cluster, shape_cluster
from .transforms import RbfMap, minmax_scale, pca_project, rbf_fit, rbf_transform
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


def read_cloud_csv(path, label_column: str | None = None):
    """Read a CSV with a header row into (cloud, labels_or_None).

    All columns except the label column must be numeric; parse
    failures are reported with their row number.  A header that names
    a column twice is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with
    with _utf8_input(path), path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise DataError(f"{path}: the header names {repeated} more than once")
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise DataError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise DataError(f"{path}: no feature columns")
        rows, raw_labels = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path} row {rownum}: {len(row)} fields, header has {len(header)}")
            try:
                rows.append([float(row[i]) for i in feat_idx])
            except ValueError as exc:
                raise DataError(f"{path} row {rownum}: {exc}") from None
            if label_idx is not None:
                raw_labels.append(row[label_idx])
    if not rows:
        raise DataError(f"{path}: no data rows")
    cloud = PointCloud(rows, columns=[header[i] for i in feat_idx])
    if label_idx is None:
        return cloud, None, None
    mapping: dict[str, int] = {}
    labels = []
    for value in raw_labels:
        if value not in mapping:
            mapping[value] = len(mapping)
        labels.append(mapping[value])
    return cloud, ClusterAssignment(labels), mapping


def write_cloud_csv(path, cloud: PointCloud, labels=None):
    columns = cloud.columns or [f"x{i}" for i in range(cloud.n_dims)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns) + (["label"] if labels is not None else []))
        for i, row in enumerate(cloud.data):
            out = [repr(float(x)) for x in row]
            if labels is not None:
                out.append(int(labels[i]))
            writer.writerow(out)


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
    cloud, assignment, mapping = read_cloud_csv(args.input, args.label_column)
    report = {
        "version": __version__,
        "command": "measure",
        "params": {
            "input": str(args.input),
            "label_column": args.label_column,
            "kmeans": args.kmeans,
            "kmeans_multi": args.kmeans_multi,
            "metrics": metrics or list(METRICS),
            "vectors": args.vectors,
            "seed": args.seed,
            "fa_normalized": args.fa_normalized,
            "threads": args.threads,
        },
        "n_points": cloud.n_points,
        "n_dims": cloud.n_dims,
    }
    metadata: dict = {}

    def one_run(assignment_):
        section = run_measure(
            cloud,
            assignment_,
            metrics=metrics,
            vectors=args.vectors,
            seed=args.seed,
            fa_normalized=args.fa_normalized,
            threads=args.threads,
        ).to_dict()
        return section, section.pop("metadata")["timings_s"]

    if args.kmeans_multi:
        ks = _parse_list(args.kmeans_multi, "--kmeans-multi", int)
        if len(set(ks)) != len(ks):
            raise DataError(f"--kmeans-multi lists a k twice: {args.kmeans_multi!r}")
        runs, sums = {}, {}
        for k in ks:
            result = kmeans(cloud, k, seed=args.seed)
            section, timings = one_run(result.assignment)
            section["kmeans"] = _kmeans_summary(k, result)
            runs[str(k)] = section
            metadata[f"timings_s.k={k}"] = timings
            metadata[f"kmeans_inertia_history.k={k}"] = result.inertia_history
            for name, value in section["global"].items():
                sums.setdefault(name, []).append(value)
        report["multi"] = runs
        report["global_mean"] = {
            name: sum(vals) / len(vals) for name, vals in sums.items() if len(vals) == len(ks)
        }
    else:
        if args.kmeans:
            result = kmeans(cloud, args.kmeans, seed=args.seed)
            assignment = result.assignment
            report["kmeans"] = _kmeans_summary(args.kmeans, result)
            metadata["kmeans_inertia_history"] = result.inertia_history
        elif assignment is None:
            raise DataError("no labels: pass --label-column, --kmeans or --kmeans-multi")
        if mapping is not None:
            report["label_mapping"] = mapping
        section, timings = one_run(assignment)
        report.update(section)
        report["k"] = assignment.k
        metadata["timings_s"] = timings

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
    cloud, _, _ = read_cloud_csv(args.input)
    if args.minmax is not None:
        lo, hi = _parse_float_pair(args.minmax, "--minmax")
        cloud, _ = minmax_scale(cloud, lo, hi)
    if args.rbf_map:
        if args.components is not None or args.gamma is not None:
            raise DataError("--rbf-map reuses a saved map; omit --components and --gamma")
        with _utf8_input(args.rbf_map):
            text = Path(args.rbf_map).read_text(encoding="utf-8")
        rbf = RbfMap.from_json(text)
        cloud = rbf_transform(rbf, cloud)
    elif args.components is not None:
        gamma = args.gamma if args.gamma is not None else 1.0 / cloud.n_dims
        rbf = rbf_fit(cloud.n_dims, args.components, gamma, args.seed)
        cloud = rbf_transform(rbf, cloud)
        Path(str(args.output) + ".rbf.json").write_text(rbf.to_json() + "\n", encoding="utf-8")
    elif args.gamma is not None:
        raise DataError("--gamma requires --components")
    if args.minmax is None and not args.rbf_map and args.components is None:
        raise DataError("nothing to do: pass --minmax and/or --components/--rbf-map")
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
    elif args.kind == "anisotropic":
        if not args.stds:
            raise DataError("anisotropic clusters need --stds (comma-separated, one per axis)")
        stds = _parse_list(args.stds, "--stds", float)
        if args.dims not in (None, len(stds)):
            raise DataError(f"anisotropic clusters have one axis per --stds value ({len(stds)}); omit --dims")
        cloud = anisotropic_gaussian(len(stds), args.points, stds, seed=args.seed)
    else:  # pragma: no cover - argparse choices guard this
        raise DataError(f"unknown kind {args.kind!r}")
    write_cloud_csv(args.output, cloud)
    return 0


def cmd_cluster(args) -> int:
    cloud, _, _ = read_cloud_csv(args.input)
    if "label" in cloud.columns:
        raise DataError(f"{args.input} has a column named 'label'; cluster would write a second one")
    result = kmeans(cloud, args.kmeans, seed=args.seed)
    write_cloud_csv(args.output, cloud, labels=result.assignment.labels)
    sidecar = args.centroids or (str(args.output) + ".centroids.json")
    _write_json(
        sidecar,
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
    p.add_argument("--threads", type=int, default=1, help="cap on per-cluster worker threads")
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
        return args.func(args)
    except DataError as exc:
        print(f"isoclust: data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"isoclust: numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"isoclust: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
