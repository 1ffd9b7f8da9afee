import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoclust import DataError, cli, core, kmeans, run_sweep
from isoclust.cli import main, read_cloud_csv, run_measure, write_cloud_csv
from isoclust.core import PointCloud


def write_text(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def child_env(**extra) -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), **extra)


def read_csv_rows(path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def cross_csv(tmp_path):
    # two clusters whose centroids coincide at the origin
    return write_text(
        tmp_path / "cross.csv",
        "x,y,label\n1.0,0.0,a\n-1.0,0.0,a\n0.0,1.0,b\n0.0,-1.0,b\n",
    )


def write_blobs(path, labelled: bool) -> str:
    rng = np.random.default_rng(0)
    data = np.vstack(
        [
            rng.normal(size=(25, 3)) + [0, 0, 0],
            rng.normal(size=(25, 3)) + [15, 0, 0],
            rng.normal(size=(25, 3)) + [0, 15, 0],
        ]
    )
    labels = np.repeat([0, 1, 2], 25) if labelled else None
    write_cloud_csv(path, PointCloud(data, columns=["a", "b", "c"]), labels=labels)
    return str(path)


@pytest.fixture
def blobs_csv(tmp_path):
    return write_blobs(tmp_path / "blobs.csv", labelled=True)


@pytest.fixture
def blobs_features_csv(tmp_path):
    # the blobs without their label column, for k-means to cluster
    return write_blobs(tmp_path / "blobs_features.csv", labelled=False)


# --- CSV I/O ------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    data = np.random.default_rng(1).normal(size=(20, 4)) * 1e3
    path = tmp_path / "t.csv"
    write_cloud_csv(path, PointCloud(data, columns=["p", "q", "r", "s"]))
    cloud, labels, mapping = read_cloud_csv(path)
    assert labels is None and mapping is None
    assert cloud.columns == ["p", "q", "r", "s"]
    np.testing.assert_array_equal(cloud.data, data)


def test_csv_is_crlf_terminated(tmp_path):
    path = tmp_path / "t.csv"
    write_cloud_csv(path, PointCloud([[1.0, 2.0]]))
    assert b"\r\n" in path.read_bytes()


def test_read_csv_label_mapping_first_appearance(cross_csv):
    cloud, assignment, mapping = read_cloud_csv(cross_csv, label_column="label")
    assert mapping == {"a": 0, "b": 1}
    assert assignment.labels.tolist() == [0, 0, 1, 1]
    assert cloud.columns == ["x", "y"]


def test_read_csv_ignores_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with EF BB BF; here the label is the first column
    text = "label,x,y\na,1.0,0.0\na,-1.0,0.0\nb,0.0,1.0\nb,0.0,-1.5\n"
    cloud, assignment, mapping = read_cloud_csv(write_text(tmp_path / "plain.csv", text), "label")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    marked_cloud, marked_assignment, marked_mapping = read_cloud_csv(marked, "label")
    assert marked_cloud.columns == cloud.columns == ["x", "y"]
    np.testing.assert_array_equal(marked_cloud.data, cloud.data)
    assert marked_assignment.labels.tolist() == assignment.labels.tolist()
    assert marked_mapping == mapping


def test_read_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DataError, match="not found"):
        read_cloud_csv(missing)
    empty = write_text(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        read_cloud_csv(empty)
    headers_only = write_text(tmp_path / "h.csv", "x,y\n")
    with pytest.raises(DataError, match="no data rows"):
        read_cloud_csv(headers_only)
    bad_cell = write_text(tmp_path / "bad.csv", "x,y\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 3"):
        read_cloud_csv(bad_cell)
    ragged = write_text(tmp_path / "ragged.csv", "x,y\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        read_cloud_csv(ragged)
    with pytest.raises(DataError, match="no column named"):
        read_cloud_csv(write_text(tmp_path / "l.csv", "x,y\n1,2\n"), label_column="label")
    # a repeated name would leave --label-column to pick one of the two
    repeated = write_text(tmp_path / "twice.csv", "x,label,label\n0,5,0\n1,3,1\n")
    for label_column in (None, "label"):
        with pytest.raises(DataError, match=r"names \['label'\] more than once"):
            read_cloud_csv(repeated, label_column=label_column)
    with pytest.raises(DataError, match="no feature columns"):
        read_cloud_csv(write_text(tmp_path / "only_labels.csv", "label\na\nb\n"), label_column="label")


def test_a_repeated_name_in_a_wide_header_is_named_at_once(tmp_path, capsys):
    # 30,000 distinct names and one repeat: counting each name by a scan of
    # the header took seconds
    names = [f"c{i}" for i in range(30_000)] + ["c7"]
    path = write_text(tmp_path / "wide.csv", ",".join(names) + "\n" + ",".join(["1"] * len(names)) + "\n")
    start = time.perf_counter()
    code = main(["project", "--input", path, "--output", str(tmp_path / "p.csv")])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert capsys.readouterr().err == f"isoclust: data error: {path}: the header names ['c7'] more than once\n"
    assert elapsed < 1.0


def test_read_csv_skips_blank_lines(tmp_path):
    cloud, _, _ = read_cloud_csv(write_text(tmp_path / "gaps.csv", "x,y\n\n1,2\n\n\n3,4\n"))
    assert cloud.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # rows are numbered as lines of the file, blank ones included
    with pytest.raises(DataError, match="gaps_bad.csv row 5: could not convert string to float: 'oops'"):
        read_cloud_csv(write_text(tmp_path / "gaps_bad.csv", "x,y\n1,2\n\n\n3,oops\n"))


def test_an_oversized_field_is_a_data_error(tmp_path):
    # csv refuses a field longer than its 131,072-character limit
    big = write_text(tmp_path / "big.csv", "x,y\n1,2\n" + "1" * 140_000 + ",3\n4,5\n")
    proc = subprocess.run([sys.executable, "-m", "isoclust.cli", "measure", "--input", big, "--kmeans", "1",
                           "--output", str(tmp_path / "r.json")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert f"isoclust: data error: {big} row 3: field larger than field limit (131072)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


@pytest.mark.parametrize("labelled", [False, True], ids=["features", "label_column"])
def test_read_csv_memory_is_about_the_float_data(tmp_path, labelled):
    # 20,000 x 50 floats are 7.6 MiB; a list of Python floats per row took 40.7 MiB
    data = np.random.default_rng(5).normal(size=(20_000, 50))
    labels = np.arange(20_000) % 7 if labelled else None
    path = tmp_path / "wide.csv"
    write_cloud_csv(path, PointCloud(data), labels=labels)
    tracemalloc.start()
    try:
        cloud, assignment, _ = read_cloud_csv(path, "label" if labelled else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(cloud.data, data)
    if labelled:
        assert assignment.labels.tolist() == labels.tolist()
    assert peak / 2**20 < 12


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5, 1e308, -1e308]


@st.composite
def written_clouds(draw):
    """(data, columns, labels) for ``write_cloud_csv``: any float64 values,
    column names that need quoting, with or without labels."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
    data = np.array(draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows)), dtype=np.float64).reshape(n_rows, n_cols)
    name = st.one_of(st.sampled_from(["", " ", "a b", "a,b", 'say "x"', "two\nlines", "cr\r", "label"]), st.text())
    columns = draw(st.none() | st.lists(name, min_size=n_cols, max_size=n_cols))
    labels = draw(st.none() | st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows, max_size=n_rows))
    return data, columns, None if labels is None else np.array(labels, dtype=np.int64)


@given(written_clouds())
def test_write_csv_bytes_are_csv_writers(tmp_path_factory, drawn):
    data, columns, labels = drawn
    # PointCloud refuses non-finite values; the row format holds for every
    # float64, so the writer gets a stand-in with the fields it reads
    cloud = SimpleNamespace(data=data, columns=columns, n_dims=data.shape[1])
    out = tmp_path_factory.getbasetemp() / "written.csv"
    write_cloud_csv(out, cloud, labels=labels)

    oracle = tmp_path_factory.getbasetemp() / "oracle.csv"
    header = list(columns or [f"x{i}" for i in range(data.shape[1])])
    rows = [row.tolist() for row in data]
    if labels is not None:
        header.append("label")
        rows = [[*row, int(label)] for row, label in zip(rows, labels)]
    with oracle.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert out.read_bytes() == oracle.read_bytes()


def test_write_csv_holds_one_row_at_a_time(tmp_path):
    # the 100,000 x 20 cloud is 15.3 MiB; the writer adds one row's strings
    cloud = PointCloud(np.random.default_rng(8).normal(size=(100_000, 20)))
    labels = np.arange(100_000) % 7
    tracemalloc.start()
    try:
        write_cloud_csv(tmp_path / "big.csv", cloud, labels=labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 0.5


# --- measure ------------------------------------------------------------------


def test_measure_label_column_report(cross_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["measure", "--input", cross_csv, "--label-column", "label", "--output", str(out)]) == 0
    report = load_json(out)
    assert report["command"] == "measure"
    assert report["k"] == 2
    assert report["n_points"] == 4 and report["n_dims"] == 2
    assert report["label_mapping"] == {"a": 0, "b": 1}
    assert report["per_cluster"]["size"] == [2.0, 2.0]
    for name in ("var_lambda", "fa", "i_vec", "i_rnd", "mean_dist_to_centroid", "mean_pairwise_dist"):
        assert len(report["per_cluster"][name]) == 2
    for name in ("var_lambda_g", "fa_g", "i_g_vec", "i_g_rnd", "silhouette", "cluster_size_variance"):
        assert name in report["global"]
    # coincident centroids: Davies-Bouldin is skipped under default metrics
    assert "davies_bouldin" in report["skipped_metrics"]
    assert "davies_bouldin" not in report["global"]
    assert report["degenerate_clusters"] == []
    assert "timings_s" in report["metadata"]


def test_measure_deterministic_outside_metadata(blobs_csv, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["measure", "--input", blobs_csv, "--label-column", "label", "--seed", "3"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    a, b = load_json(out1), load_json(out2)
    a.pop("metadata"), b.pop("metadata")
    assert a == b


def test_measure_thread_count_does_not_change_values(blobs_csv):
    cloud, assignment, _ = read_cloud_csv(blobs_csv, label_column="label")
    single = run_measure(cloud, assignment, threads=1).to_dict()
    multi = run_measure(cloud, assignment, threads=3).to_dict()
    single.pop("metadata"), multi.pop("metadata")
    assert single == multi
    with pytest.raises(DataError, match="threads must be >= 1"):
        run_measure(cloud, assignment, threads=0)


def test_measure_kmeans(blobs_features_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["measure", "--input", blobs_features_csv, "--kmeans", "3", "--output", str(out)]) == 0
    report = load_json(out)
    assert report["k"] == 3
    assert report["n_dims"] == 3
    assert report["kmeans"]["k"] == 3
    assert report["kmeans"]["inertia"] > 0
    assert "label_mapping" not in report
    history = report["metadata"]["kmeans_inertia_history"]
    assert history == kmeans(read_cloud_csv(blobs_features_csv)[0], 3, seed=0).inertia_history
    assert len(history) == report["kmeans"]["iterations"]


def test_measure_kmeans_multi(blobs_features_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["measure", "--input", blobs_features_csv, "--kmeans-multi", "2,3", "--output", str(out)]) == 0
    report = load_json(out)
    assert set(report["multi"].keys()) == {"2", "3"}
    for k in ("2", "3"):
        section = report["multi"][k]
        assert section["kmeans"]["k"] == int(k)
        assert "global" in section and "per_cluster" in section
    mean_fa = (report["multi"]["2"]["global"]["fa_g"] + report["multi"]["3"]["global"]["fa_g"]) / 2
    assert report["global_mean"]["fa_g"] == pytest.approx(mean_fa, abs=1e-15)
    assert "timings_s.k=2" in report["metadata"] and "timings_s.k=3" in report["metadata"]
    assert report["metadata"]["clipped_eigenvalues.k=2"].keys() == {"count", "largest"}
    cloud = read_cloud_csv(blobs_features_csv)[0]
    for k in (2, 3):
        history = report["metadata"][f"kmeans_inertia_history.k={k}"]
        assert history == kmeans(cloud, k, seed=0).inertia_history
        assert len(history) == report["multi"][str(k)]["kmeans"]["iterations"]
    assert "kmeans_inertia_history" not in report["metadata"]


def test_measure_metrics_subset(cross_csv, tmp_path):
    out = tmp_path / "report.json"
    argv = ["measure", "--input", cross_csv, "--label-column", "label",
            "--metrics", "var_lambda,fa", "--output", str(out)]
    assert main(argv) == 0
    report = load_json(out)
    assert set(report["per_cluster"].keys()) == {"size", "var_lambda", "fa"}
    assert set(report["global"].keys()) == {"var_lambda_g", "fa_g"}


def test_measure_single_cluster_skips_relational_metrics(tmp_path):
    csv_path = write_text(tmp_path / "one.csv", "x,y,label\n0,0,a\n1,0,a\n0,1,a\n")
    out = tmp_path / "report.json"
    assert main(["measure", "--input", csv_path, "--label-column", "label", "--output", str(out)]) == 0
    report = load_json(out)
    assert report["k"] == 1
    for name in ("silhouette", "davies_bouldin", "calinski_harabasz"):
        assert name in report["skipped_metrics"]
    assert report["global"]["cluster_size_variance"] == 0.0


def test_measure_explicit_inapplicable_metric_fails(tmp_path, capsys):
    csv_path = write_text(tmp_path / "one.csv", "x,y,label\n0,0,a\n1,0,a\n")
    out = tmp_path / "report.json"
    code = main(["measure", "--input", csv_path, "--label-column", "label",
                 "--metrics", "silhouette", "--output", str(out)])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_measure_unknown_metric(cross_csv, tmp_path, capsys):
    code = main(["measure", "--input", cross_csv, "--label-column", "label",
                 "--metrics", "bogus", "--output", str(tmp_path / "r.json")])
    assert code == 3
    assert "unknown metrics" in capsys.readouterr().err


def test_measure_metrics_trailing_comma_ignored(cross_csv, tmp_path):
    reports = []
    for i, metrics in enumerate(("fa", "fa,")):
        out = tmp_path / f"r{i}.json"
        assert main(["measure", "--input", cross_csv, "--label-column", "label",
                     "--metrics", metrics, "--output", str(out)]) == 0
        report = load_json(out)
        report.pop("metadata")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["params"]["metrics"] == ["fa"]


def test_measure_fa_normalized_flag(tmp_path):
    csv_path = write_text(tmp_path / "line.csv", "x,y,label\n1,0,a\n-1,0,a\n0,1,b\n0,-1,b\n")
    out_raw, out_norm = tmp_path / "raw.json", tmp_path / "norm.json"
    base = ["measure", "--input", csv_path, "--label-column", "label", "--metrics", "fa"]
    assert main(base + ["--output", str(out_raw)]) == 0
    assert main(base + ["--fa-normalized", "--output", str(out_norm)]) == 0
    raw = load_json(out_raw)["per_cluster"]["fa"]
    norm = load_json(out_norm)["per_cluster"]["fa"]
    np.testing.assert_allclose(raw, np.sqrt(0.5), atol=1e-12)
    np.testing.assert_allclose(norm, 1.0, atol=1e-12)


# --- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_2(cross_csv, tmp_path):
    assert main([]) == 2  # subcommand required
    assert main(["measure"]) == 2  # missing required flags
    assert main(["measure", "--input", cross_csv, "--output", "r.json"]) == 2  # no label source
    assert (
        main(["measure", "--input", cross_csv, "--output", "r.json",
              "--label-column", "label", "--kmeans", "2"])
        == 2
    )  # mutually exclusive
    assert main(["measure", "--frobnicate"]) == 2
    assert main(["notacommand"]) == 2
    assert main(["project", "--input", cross_csv, "--dims", "4", "--output", "p.csv"]) == 2


def test_data_errors_exit_3(tmp_path, capsys):
    assert main(["measure", "--input", str(tmp_path / "gone.csv"),
                 "--label-column", "label", "--output", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "isoclust: data error" in err and "not found" in err

    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    report = str(tmp_path / "r.json")
    assert main(["measure", "--input", small, "--kmeans", "99", "--output", report]) == 3
    assert main(["measure", "--input", small, "--kmeans-multi", "2,2", "--output", report]) == 3
    assert main(["measure", "--input", small, "--kmeans", "2", "--threads", "-3", "--output", report]) == 3
    labelled = write_text(tmp_path / "labelled.csv", "x,y,label\n1,2,a\n3,4,a\n5,7,b\n")
    assert main(["measure", "--input", labelled, "--label-column", "label", "--metrics", "fa,fa",
                 "--output", report]) == 3
    assert "listed twice" in capsys.readouterr().err
    for empty in ("", ","):
        assert main(["measure", "--input", labelled, "--label-column", "label", "--metrics", empty,
                     "--output", report]) == 3
        assert "--metrics got an empty list" in capsys.readouterr().err
    # a flag given an empty or zero value is given, not absent
    for argv, message in (
        (["measure", "--input", small, "--kmeans", "0", "--output", report], "k must be >= 1, got 0"),
        (["measure", "--input", small, "--kmeans-multi", "", "--output", report], "--kmeans-multi got an empty list"),
        (["transform", "--input", small, "--minmax", "--rbf-map", "", "--output", str(tmp_path / "t.csv")],
         "--rbf-map got an empty path"),
        (["cluster", "--input", small, "--kmeans", "2", "--centroids", "", "--output", str(tmp_path / "c.csv")],
         "--centroids got an empty path"),
        (["sweep", "--dims", "10,x", "--output", str(tmp_path / "sweep.csv")],
         "--dims expects comma-separated integers, got '10,x'"),
        (["transform", "--input", small, "--minmax", "1", "--output", str(tmp_path / "t.csv")],
         "--minmax expects LO:HI, got '1'"),
        (["transform", "--input", small, "--minmax", "a:b", "--output", str(tmp_path / "t.csv")],
         "--minmax expects numbers, got 'a:b'"),
        (["measure", "--input", small, "--kmeans", "2", "--output", str(tmp_path / "gone" / "r.json")],
         "No such file or directory"),
    ):
        assert main(argv) == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "gone").exists()
    # k-means would cluster on a label column as if it were a feature
    numeric_labels = write_text(tmp_path / "numeric_labels.csv",
                                "a,b,label\n0,0,0\n0,1,0\n1,0,0\n5,5,1\n5,6,1\n6,5,1\n")
    for flag, k in (("--kmeans", "2"), ("--kmeans-multi", "2,3")):
        assert main(["measure", "--input", numeric_labels, flag, k, "--metrics", "fa", "--output", report]) == 3
        assert "pass --label-column label" in capsys.readouterr().err
    assert main(["mp", "--points", "10", "--dims", "10", "--empirical", "-1",
                 "--output", str(tmp_path / "mp.csv")]) == 3
    # a negative seed is rejected whether or not it would reach a generator
    for argv in (
        ["measure", "--input", small, "--kmeans", "2", "--output", report],
        ["measure", "--input", labelled, "--label-column", "label", "--metrics", "fa", "--output", report],
        ["sweep", "--dims", "3", "--points", "5", "--repeats", "1", "--vectors", "10",
         "--output", str(tmp_path / "sweep.csv")],
        ["mp", "--points", "10", "--dims", "10", "--output", str(tmp_path / "mp.csv")],
        ["transform", "--input", small, "--components", "4", "--output", str(tmp_path / "t.csv")],
        ["generate", "--kind", "gaussian", "--points", "5", "--output", str(tmp_path / "g.csv")],
        ["cluster", "--input", small, "--kmeans", "2", "--output", str(tmp_path / "c.csv")],
    ):
        assert main([*argv, "--seed", "-1"]) == 3
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json")) and not (tmp_path / "mp.csv").exists()
    assert not any((tmp_path / name).exists() for name in ("sweep.csv", "g.csv", "c.csv"))
    assert main(["transform", "--input", small, "--output", str(tmp_path / "t.csv")]) == 3
    assert main(["transform", "--input", small, "--gamma", "0.5",
                 "--output", str(tmp_path / "t.csv")]) == 3
    # a zero feature count is given, not absent: rbf_fit rejects it
    for extra in (["--components", "0"], ["--components", "0", "--gamma", "1"]):
        assert main(["transform", "--input", small, *extra, "--output", str(tmp_path / "t.csv")]) == 3
        assert "n_out >= 1" in capsys.readouterr().err
    # a saved map fixes its own components and gamma
    assert main(["transform", "--input", small, "--components", "4", "--output", str(tmp_path / "f.csv")]) == 0
    rbf_map = str(tmp_path / "f.csv.rbf.json")
    for extra in (["--components", "9", "--gamma", "7"], ["--components", "9"], ["--gamma", "7"]):
        assert main(["transform", "--input", small, "--rbf-map", rbf_map, *extra,
                     "--output", str(tmp_path / "t.csv")]) == 3
    assert not (tmp_path / "t.csv").exists()
    capsys.readouterr()
    # a cp1252 export: 0xe9 is an accented e there, and not UTF-8
    cp1252 = tmp_path / "cp1252.csv"
    cp1252.write_bytes(b"caf\xe9,y\n1,2\n3,4\n5,7\n")
    for argv in (
        ["measure", "--kmeans", "2", "--output", str(tmp_path / "m.json")],
        ["cluster", "--kmeans", "2", "--output", str(tmp_path / "c.csv")],
        ["transform", "--minmax", "--output", str(tmp_path / "t.csv")],
        ["project", "--output", str(tmp_path / "p.csv")],
    ):
        assert main([*argv, "--input", str(cp1252)]) == 3
        assert f"{cp1252}: not UTF-8 text (byte 0xe9" in capsys.readouterr().err
    text = Path(rbf_map).read_text(encoding="utf-8")
    doc = json.loads(text)
    broken = {
        "truncated.json": (text[: len(text) // 2], "utf-8", "not a serialized RBF map (JSONDecodeError"),
        "no_weights.json": (json.dumps({k: v for k, v in doc.items() if k != "weights"}),
                            "utf-8", "not a serialized RBF map (KeyError: 'weights')"),
        "text_gamma.json": (json.dumps({**doc, "gamma": "wide"}), "utf-8",
                            "not a serialized RBF map (ValueError: could not convert"),
        "cp1252.json": (json.dumps({**doc, "kind": "rbf_map\xe9"}, ensure_ascii=False), "cp1252",
                        f"{tmp_path / 'cp1252.json'}: not UTF-8 text (byte 0xe9"),
    }
    for name, (content, encoding, message) in broken.items():
        (tmp_path / name).write_text(content, encoding=encoding)
        assert main(["transform", "--input", small, "--rbf-map", str(tmp_path / name),
                     "--output", str(tmp_path / "t.csv")]) == 3
        assert message in capsys.readouterr().err
    produced = {"m.json", "c.csv", "c.csv.centroids.json", "t.csv", "p.csv"}
    assert not any((tmp_path / name).exists() for name in produced)


def fail_if_read(*args, **kwargs):
    raise AssertionError("the input was read")


def test_kmeans_multi_list_is_checked_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_cloud_csv", fail_if_read)
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    for ks, message in (
        ("2,2", "--kmeans-multi lists a k twice: '2,2'"),
        ("2,x", "--kmeans-multi expects comma-separated integers, got '2,x'"),
        ("", "--kmeans-multi got an empty list"),
    ):
        assert main(["measure", "--input", small, "--kmeans-multi", ks, "--output", str(tmp_path / "r.json")]) == 3
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]


def test_outputs_are_checked_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_cloud_csv", fail_if_read)
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    bad_paths = ((tmp_path / "gone" / "out", "No such file or directory"), (tmp_path, "Is a directory"))
    for argv in (
        ["measure", "--input", small, "--kmeans", "2"],
        ["cluster", "--input", small, "--kmeans", "2"],
        ["transform", "--input", small, "--minmax"],
        ["project", "--input", small],
        ["generate", "--kind", "gaussian", "--points", "5"],
        ["sweep", "--dims", "3", "--points", "5", "--repeats", "1", "--vectors", "10"],
        ["mp", "--points", "10", "--dims", "10"],
    ):
        for path, message in bad_paths:
            assert main([*argv, "--output", str(path)]) == 3
            assert f"--output {path}: {message}" in capsys.readouterr().err
    for path, message in bad_paths:
        assert main(["cluster", "--input", small, "--kmeans", "2", "--output", str(tmp_path / "c.csv"),
                     "--centroids", str(path)]) == 3
        assert f"--centroids {path}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]


def test_cluster_writes_nothing_when_its_sidecar_directory_is_missing(tmp_path, capsys):
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    sidecar = tmp_path / "gone" / "x.json"
    assert main(["cluster", "--input", small, "--kmeans", "2", "--centroids", str(sidecar),
                 "--output", str(tmp_path / "c.csv")]) == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv"]


def test_cluster_rejects_an_input_with_a_label_column(tmp_path, capsys):
    # the appended label column would repeat the name, and a later
    # --label-column label would read the feature column instead
    src = write_text(tmp_path / "in.csv", "x,label\n0,0\n1,5\n10,3\n11,4\n")
    out = tmp_path / "out.csv"
    assert main(["cluster", "--input", src, "--kmeans", "2", "--output", str(out)]) == 3
    assert "has a column named 'label'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_every_reader_rejects_a_label_column_it_was_not_given(tmp_path, capsys):
    # cluster's label column holds cluster ids; no command may read them as a feature
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n9,9\n")
    clustered = str(tmp_path / "c.csv")
    assert main(["cluster", "--input", small, "--kmeans", "2", "--output", clustered]) == 0
    for argv in (
        ["project", "--input", clustered],
        ["transform", "--input", clustered, "--components", "4"],
        ["transform", "--input", clustered, "--minmax"],
    ):
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 3
        assert f"{clustered} has a column named 'label'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.centroids.json", "small.csv"]


def test_measure_with_another_label_column_rejects_label(tmp_path, capsys):
    # with --label-column cls, the label column would be read as a fourth dimension
    both = write_text(tmp_path / "both.csv", "x0,x1,x2,label,cls\n0,0,0,0,a\n1,0,0,0,a\n0,1,0,1,b\n0,0,1,1,b\n")
    assert main(["measure", "--input", both, "--label-column", "cls", "--output", str(tmp_path / "r.json")]) == 3
    assert "pass --label-column label" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["both.csv"]


def test_cluster_default_sidecar_is_checked_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_cloud_csv", fail_if_read)
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    sidecar = tmp_path / "c.csv.centroids.json"
    sidecar.mkdir()
    assert main(["cluster", "--input", small, "--kmeans", "2", "--output", str(tmp_path / "c.csv")]) == 3
    assert f"--centroids {sidecar}: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_transform_default_rbf_sidecar_is_checked_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_cloud_csv", fail_if_read)
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    sidecar = tmp_path / "t.csv.rbf.json"
    sidecar.mkdir()
    assert main(["transform", "--input", small, "--components", "4", "--output", str(tmp_path / "t.csv")]) == 3
    assert f"the RBF map sidecar {sidecar}: Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.csv", "t.csv.rbf.json"]


def test_flags_are_checked_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_cloud_csv", fail_if_read)
    small = write_text(tmp_path / "small.csv", "x,y\n1,2\n3,4\n5,7\n")
    rbf_map = write_text(tmp_path / "map.json", "{}")
    for argv, message in (
        (["measure", "--metrics", "fa,nope", "--kmeans", "2"], "unknown metrics: nope"),
        (["measure", "--metrics", "fa,fa", "--kmeans", "2"], "a metric is listed twice: fa, fa"),
        (["transform", "--rbf-map", rbf_map, "--components", "4"],
         "--rbf-map reuses a saved map; omit --components and --gamma"),
        (["transform", "--rbf-map", rbf_map, "--gamma", "1"],
         "--rbf-map reuses a saved map; omit --components and --gamma"),
        (["transform", "--gamma", "1", "--minmax"], "--gamma requires --components"),
        (["transform"], "nothing to do: pass --minmax and/or --components/--rbf-map"),
        (["transform", "--minmax", "0:1:2"], "--minmax expects LO:HI, got '0:1:2'"),
        (["transform", "--minmax", "0:x"], "--minmax expects numbers, got '0:x'"),
        (["measure", "--kmeans", "2", "--threads", "0"], "threads must be >= 1, got 0"),
        (["measure", "--kmeans-multi", "2,3", "--threads", "-1"], "threads must be >= 1, got -1"),
        # i_rnd is selected by default, or by name
        (["measure", "--kmeans", "2", "--vectors", "1"], "count must be >= 2, got 1"),
        (["measure", "--kmeans", "2", "--metrics", "fa,i_rnd", "--vectors", "0"], "count must be >= 2, got 0"),
        (["transform", "--minmax", "1:0"], "need lo < hi, got (1.0, 0.0)"),
        (["transform", "--minmax", "2:2", "--components", "4"], "need lo < hi, got (2.0, 2.0)"),
        (["transform", "--components", "0"], "need n_out >= 1, got 0"),
        (["transform", "--components", "4", "--gamma", "0"], "gamma must be positive, got 0.0"),
    ):
        assert main([*argv, "--input", small, "--output", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "small.csv"]


def test_vectors_apply_only_to_i_rnd(tmp_path):
    small = write_text(tmp_path / "small.csv", "x,y,label\n1,2,a\n3,4,a\n5,7,b\n6,7,b\n")
    out = tmp_path / "r.json"
    argv = ["measure", "--input", small, "--label-column", "label", "--vectors", "1", "--output", str(out)]
    assert main([*argv, "--metrics", "fa"]) == 0
    assert load_json(out)["params"]["vectors"] == 1
    cloud, assignment, _ = read_cloud_csv(small, label_column="label")
    with pytest.raises(DataError, match="count must be >= 2, got 1"):
        run_measure(cloud, assignment, metrics=["i_rnd"], vectors=1)


def test_unreadable_input_exits_3(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["measure", "--input", str(tmp_path), "--label-column", "label", "--output", str(out)]) == 3
    assert "Is a directory" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_error_exit_4(tmp_path, capsys):
    # the spectral-law moment E(L^2) ~ 4 sigma2^3 is past float64
    out = tmp_path / "mp.csv"
    code = main(["mp", "--points", "100", "--dims", "100", "--sigma2", "1e200",
                 "--empirical", "0", "--output", str(out)])
    assert code == 4
    assert "numeric error" in capsys.readouterr().err
    assert not out.exists()
    # on these tiny grids the predicted Var(lambda) is above its bound of 1/4
    for grid in (["--points", "1", "--dims", "1", "--empirical", "0"],
                 ["--points", "2", "--dims", "1", "--empirical", "3"]):
        assert main(["mp", *grid, "--output", str(out)]) == 4
        assert "expected_var_lambda" in capsys.readouterr().err
        assert not out.exists()


# unlabelled points at +-1e200: the k-means++ seeding's squared distances overflow
KMEANS_OVERFLOW_CSV = "x,y\n1e200,0\n-1e200,1\n1e200,2\n5,5\n6,5\n5,7\n"


def labelled(metrics: str) -> list:
    return ["--label-column", "label", "--metrics", metrics]


@pytest.mark.parametrize(
    "text,options,message",
    [
        # cluster a's scatter matrix overflows although mu is finite
        ("x,y,label\n1e154,0,a\n-1e154,1,a\n0,2,a\n5,5,b\n6,5,b\n5,7,b\n", labelled("var_lambda,fa"),
         "cluster 0: squared dispersion overflows"),
        # the scatter trace is finite (1.62e308) but a pairwise distance is not
        ("x,y,label\n9e153,0,a\n-9e153,1,a\n5,5,b\n6,5,b\n5,7,b\n", labelled("mean_pairwise_dist"),
         "mean_pairwise_dist = inf is not finite"),
        # each cluster's trace is finite, their sum is not
        ("x,y,label\n9e153,0,a\n-9e153,0,a\n0,9e153,b\n0,-9e153,b\n1,1,c\n2,1,c\n1,3,c\n",
         labelled("calinski_harabasz"), "Calinski-Harabasz sums of squares overflow"),
        # each cluster is tight, the centroid separation is not finite
        ("x,y,label\n1e154,0,a\n1e154,1,a\n-1e154,0,b\n-1e154,1,b\n", labelled("davies_bouldin"),
         "Davies-Bouldin centroid separation overflows"),
        # as for pairwise: finite scatter traces, an infinite point-to-point distance
        ("x,y,label\n9e153,0,a\n-9e153,1,a\n5,5,b\n6,5,b\n5,7,b\n", labelled("silhouette"),
         "silhouette pairwise distance overflows"),
        (KMEANS_OVERFLOW_CSV, ["--kmeans", "2"], "k-means++ squared distances overflow"),
    ],
    ids=["scatter", "pairwise", "calinski_harabasz", "davies_bouldin", "silhouette", "kmeans"],
)
def test_measure_dispersion_overflow_exits_4(tmp_path, capsys, text, options, message):
    csv_path = write_text(tmp_path / "huge.csv", text)
    out = tmp_path / "report.json"
    assert main(["measure", "--input", csv_path, *options, "--output", str(out)]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def lapack_without_convergence(real):
    """The LAPACK kernel, except that after its workspace query it reports
    a failed convergence, as dsyevd's info > 0 does."""
    def kernel(*args):
        real(*args)
        if args[7].value != -1:  # LWORK: -1 is the workspace query
            args[-1].value = 1
    return kernel


def linalg_without_convergence(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# 8 points in 10 dims, in two clusters: the eigenvalues come from each
# cluster's 4 x 4 Gram matrix (LAPACK's JOBZ 'N'), not its scatter matrix
WIDE_CSV = ",".join(f"x{j}" for j in range(10)) + ",label\n" + "".join(
    ",".join(map(repr, row)) + f",{i % 2}\n" for i, row in enumerate(np.random.default_rng(0).normal(size=(8, 10)).tolist())
)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kernel", ["in_place", "numpy_linalg"])
@pytest.mark.parametrize("side,size", [("scatter", 3), ("gram", 4)])
def test_measure_eigen_non_convergence_exits_4(monkeypatch, capsys, blobs_csv, tmp_path, kernel, threads, side, size):
    if kernel == "in_place":
        if core._DSYEVD is None:
            pytest.skip("numpy's LAPACK library was not found")
        monkeypatch.setattr(core, "_DSYEVD", lapack_without_convergence(core._DSYEVD))
    else:
        monkeypatch.setattr(core, "_DSYEVD", None)
        monkeypatch.setattr(np.linalg, "eigh", linalg_without_convergence)
        monkeypatch.setattr(np.linalg, "eigvalsh", linalg_without_convergence)
    csv_path = blobs_csv if side == "scatter" else write_text(tmp_path / "wide.csv", WIDE_CSV)
    out = tmp_path / "report.json"
    argv = ["measure", "--input", csv_path, "--label-column", "label", "--threads", threads, "--output", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"isoclust: numeric error: eigendecomposition of a {size} x {size} matrix failed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_measure_names_its_eigen_kernel(blobs_csv, blobs_features_csv, tmp_path):
    out = tmp_path / "report.json"
    for inputs in ([blobs_csv, "--label-column", "label"], [blobs_features_csv, "--kmeans-multi", "2,3"]):
        assert main(["measure", "--input", *inputs, "--output", str(out)]) == 0
        assert load_json(out)["metadata"]["eigen_kernel"] == core.EIGEN_KERNEL
    # numpy's bundled LAPACK where a numpy wheel ships one
    if core._DSYEVD is None:
        assert core.EIGEN_KERNEL == "numpy.linalg"
    else:
        assert core.EIGEN_KERNEL.startswith("libscipy_openblas64_") and core.EIGEN_KERNEL.endswith(":scipy_dsyevd_64_")


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "isoclust" in capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "isoclust.cli", "--version"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("isoclust ")


# what a fresh interpreter loads: import isoclust.cli, run main(argv) for each
# argv in argv[1] (a JSON list), and print the modules each step added
_MODULES_LOADED = """
import json
import sys
before = set(sys.modules)
from isoclust.cli import main
added = [sorted(set(sys.modules) - before)]
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    assert main(argv) == 0
    added.append(sorted(set(sys.modules) - before))
print(json.dumps(added))
"""


def modules_loaded(*argvs) -> list[list[str]]:
    proc = subprocess.run([sys.executable, "-c", _MODULES_LOADED, json.dumps(argvs)], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def test_the_cli_imports_no_scipy_module():
    # the distance kernels are loaded without scipy.spatial, or any scipy package
    imported, version = modules_loaded(["--version"])
    assert "numpy" in imported
    assert [m for m in imported + version if is_scipy(m)] == []


def test_a_run_loads_no_numpy_or_scipy_module(tmp_path):
    # set-up stays in set-up: numpy.random, which numpy 2 loads on first use,
    # comes with the package, as do argparse's locale and the CSV reader's
    # codec, and a run loads no module at all
    src = tmp_path / "g.csv"
    write_cloud_csv(src, PointCloud(np.random.default_rng(0).normal(size=(40, 3))))
    measure = ["measure", "--input", str(src), "--kmeans", "2", "--output", str(tmp_path / "r.json")]
    cluster = ["cluster", "--input", str(src), "--kmeans", "2", "--output", str(tmp_path / "c.csv")]
    imported, *runs = modules_loaded(measure, cluster)
    assert "numpy.random" in imported
    assert runs == [[], []]


# run main in a fresh interpreter whose address space is capped at argv[1] bytes
_MEASURE_LIMITED = """
import resource
import sys
from isoclust.cli import main
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_exits_5_and_writes_nothing(tmp_path):
    # one 2,000-point cluster: i_rnd's 2,000 x 100,000 product needs 1.49 GiB
    rows = "".join(f"{i},{i % 7},a\n" for i in range(2000))
    src = write_text(tmp_path / "big.csv", "x,y,label\n" + rows)
    out = tmp_path / "r.json"
    argv = ["measure", "--input", src, "--label-column", "label", "--output", str(out)]
    env = child_env(OPENBLAS_NUM_THREADS="1")
    limited = [sys.executable, "-c", _MEASURE_LIMITED, str(1 << 30), *argv]
    proc = subprocess.run([*limited, "--metrics", "i_rnd", "--vectors", "100000"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("isoclust: out of memory: ")
    assert not out.exists()
    # at 10,000 vectors the probe holds its 153 MiB product, one work array
    # of that size and a bool mask, well inside the limit
    proc = subprocess.run([*limited, "--metrics", "i_rnd", "--vectors", "10000"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (value,) = load_json(out)["per_cluster"]["i_rnd"]
    assert 0.0 < value <= 1.0
    out.unlink()
    # the same input and limit without the probe runs
    proc = subprocess.run([*limited, "--metrics", "fa"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert load_json(out)["per_cluster"]["size"] == [2000.0]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_mean_pairwise_dist_streams_past_the_address_space_limit(tmp_path):
    # 17,000 points on a line: pdist's condensed array would need 1.08 GiB,
    # past the 1 GiB limit; the mean of |i - j| over pairs is (n + 1) / 3,
    # and every partial sum is an integer below 2**53, so it is exact
    n = 17_000
    src = write_text(tmp_path / "line.csv", "x,label\n" + "".join(f"{i},a\n" for i in range(n)))
    out = tmp_path / "r.json"
    argv = ["measure", "--input", src, "--label-column", "label", "--metrics", "mean_pairwise_dist",
            "--output", str(out)]
    proc = subprocess.run([sys.executable, "-c", _MEASURE_LIMITED, str(1 << 30), *argv],
                          env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert load_json(out)["per_cluster"]["mean_pairwise_dist"] == [(n + 1) / 3]


# --- transform ----------------------------------------------------------------


def test_transform_minmax(tmp_path):
    src = write_text(tmp_path / "in.csv", "v\n0\n5\n10\n")
    out = tmp_path / "out.csv"
    assert main(["transform", "--input", src, "--minmax", "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [float(r["v"]) for r in rows] == [-1.0, 0.0, 1.0]

    assert main(["transform", "--input", src, "--minmax", "0:1", "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [float(r["v"]) for r in rows] == [0.0, 0.5, 1.0]


def test_transform_rbf_fit_sidecar_and_reuse(tmp_path):
    src = write_text(tmp_path / "in.csv", "x,y\n0,0\n1,0\n0,1\n2,2\n")
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert main(["transform", "--input", src, "--components", "16",
                 "--gamma", "0.5", "--seed", "4", "--output", str(out1)]) == 0
    sidecar = Path(str(out1) + ".rbf.json")
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text(encoding="utf-8"))
    assert doc["kind"] == "rbf_map" and doc["gamma"] == 0.5 and doc["seed"] == 4

    rows = read_csv_rows(out1)
    assert list(rows[0].keys()) == [f"rbf_{j}" for j in range(16)]

    assert main(["transform", "--input", src, "--rbf-map", str(sidecar),
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transform_minmax_then_rbf(tmp_path):
    src = write_text(tmp_path / "in.csv", "x,y\n0,0\n10,0\n0,10\n10,10\n")
    out = tmp_path / "o.csv"
    assert main(["transform", "--input", src, "--minmax", "--components", "8",
                 "--seed", "1", "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 4 and len(rows[0]) == 8
    # scaling first changes the fitted features relative to skipping it
    out_raw = tmp_path / "raw.csv"
    assert main(["transform", "--input", src, "--components", "8",
                 "--seed", "1", "--output", str(out_raw)]) == 0
    assert out.read_bytes() != out_raw.read_bytes()


# --- generate / cluster / project ---------------------------------------------


def test_generate_kinds_and_determinism(tmp_path):
    g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    argv = ["generate", "--kind", "gaussian", "--dims", "5", "--points", "40", "--seed", "2"]
    assert main(argv + ["--output", str(g1)]) == 0
    assert main(argv + ["--output", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()
    rows = read_csv_rows(g1)
    assert len(rows) == 40 and len(rows[0]) == 5

    a = tmp_path / "a.csv"
    assert main(["generate", "--kind", "anisotropic", "--stds", "3,1,0.2",
                 "--points", "30", "--output", str(a)]) == 0
    assert len(read_csv_rows(a)[0]) == 3

    s = tmp_path / "s.csv"
    assert main(["generate", "--kind", "s_curve", "--points", "30",
                 "--noise", "0.05", "--output", str(s)]) == 0
    assert len(read_csv_rows(s)[0]) == 2

    l = tmp_path / "l.csv"
    assert main(["generate", "--kind", "l_shape", "--points", "30", "--output", str(l)]) == 0
    assert len(read_csv_rows(l)[0]) == 2


def test_generate_rejections(tmp_path, capsys):
    assert main(["generate", "--kind", "s_curve", "--dims", "3",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    assert main(["generate", "--kind", "anisotropic",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    # the axis count comes from --stds, which only anisotropic clusters take
    assert main(["generate", "--kind", "anisotropic", "--stds", "1,2", "--dims", "5",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    assert main(["generate", "--kind", "gaussian", "--stds", "1,2",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    assert main(["generate", "--kind", "l_shape", "--stds", "1,2",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    # each kind reads only its own flags; one it does not read is an error, not ignored
    for kind, flag, value in (("gaussian", "--noise", "5"), ("l_shape", "--mean", "9")):
        assert main(["generate", "--kind", kind, flag, value,
                     "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    assert main(["generate", "--kind", "anisotropic", "--stds", "1,2", "--std", "50",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 3
    assert "--std does not apply to anisotropic" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert main(["generate", "--kind", "anisotropic", "--stds", "1,2", "--dims", "2",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 0
    assert main(["generate", "--kind", "gaussian", "--dims", "two",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 2  # argparse int
    assert main(["generate", "--kind", "ring",
                 "--points", "10", "--output", str(tmp_path / "x.csv")]) == 2  # argparse choices
    capsys.readouterr()


# run measure in a fresh interpreter and print its exit status and its own
# peak resident set (VmHWM, kB); a child's getrusage can inherit the parent's peak
_MEASURE_HWM = """
import sys
from isoclust.cli import main
status = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(status, hwm.split()[1])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_measure_silhouette_memory_stays_bounded(tmp_path):
    # 12,000 points: a full silhouette distance matrix alone would be 1.15 GB
    src = tmp_path / "big.csv"
    write_cloud_csv(src, PointCloud(np.random.default_rng(3).normal(size=(12_000, 3))))
    argv = ["measure", "--input", str(src), "--kmeans", "2", "--metrics", "silhouette",
            "--output", str(tmp_path / "r.json")]
    proc = subprocess.run([sys.executable, "-c", _MEASURE_HWM, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    status, hwm_kb = proc.stdout.split()
    assert status == "0", proc.stderr
    assert int(hwm_kb) / 1024 < 400


def test_cluster_overflow_exits_4(tmp_path, capsys):
    src = write_text(tmp_path / "huge.csv", KMEANS_OVERFLOW_CSV)
    out = tmp_path / "labeled.csv"
    assert main(["cluster", "--input", src, "--kmeans", "2", "--output", str(out)]) == 4
    assert "k-means++ squared distances overflow" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.csv"]


def test_cluster_labels_and_sidecar(tmp_path):
    src = tmp_path / "blobs.csv"
    rng = np.random.default_rng(5)
    data = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 20])
    write_cloud_csv(src, PointCloud(data))
    out = tmp_path / "labeled.csv"
    assert main(["cluster", "--input", str(src), "--kmeans", "2", "--output", str(out)]) == 0
    rows = read_csv_rows(out)
    assert set(r["label"] for r in rows) == {"0", "1"}
    sidecar = load_json(str(out) + ".centroids.json")
    assert sidecar["k"] == 2 and len(sidecar["centroids"]) == 2
    assert sidecar["inertia"] > 0 and sidecar["iterations"] >= 1

    custom = tmp_path / "cents.json"
    assert main(["cluster", "--input", str(src), "--kmeans", "2",
                 "--output", str(out), "--centroids", str(custom)]) == 0
    assert custom.exists()


def test_project_columns(tmp_path):
    src = tmp_path / "hi.csv"
    write_cloud_csv(src, PointCloud(np.random.default_rng(6).normal(size=(30, 5))))
    out = tmp_path / "p.csv"
    assert main(["project", "--input", str(src), "--output", str(out)]) == 0
    assert list(read_csv_rows(out)[0].keys()) == ["pc1", "pc2"]
    assert main(["project", "--input", str(src), "--dims", "3", "--output", str(out)]) == 0
    assert list(read_csv_rows(out)[0].keys()) == ["pc1", "pc2", "pc3"]


@pytest.mark.parametrize(("rows", "dims"), [(1, 2), (2, 2), (2, 3)])
def test_project_needs_as_many_points_as_axes(tmp_path, capsys, rows, dims):
    src = tmp_path / "few.csv"
    write_cloud_csv(src, PointCloud(np.arange(rows * 4, dtype=float).reshape(rows, 4) ** 2))
    out = tmp_path / "p.csv"
    assert main(["project", "--input", str(src), "--dims", str(dims), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"cannot project {rows} points in 4 dims to {dims} dims" in err
    assert "Traceback" not in err
    assert not out.exists()


# --- sweep / mp ---------------------------------------------------------------


def test_sweep_csv_structure_and_value_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = ["sweep", "--dims", "3,6", "--points", "30", "--repeats", "2",
            "--vectors", "10,50", "--seed", "1"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    rows1, rows2 = read_csv_rows(out1), read_csv_rows(out2)
    assert len(rows1) == 6  # (1 vec + 2 rnd) x 2 dims
    for r1, r2 in zip(rows1, rows2):
        for col in ("dim", "method", "vectors", "repeats", "mean_isotropy"):
            assert r1[col] == r2[col]
    vec_rows = [r for r in rows1 if r["method"] == "vec"]
    assert all(r["vectors"] == "" for r in vec_rows)
    assert {r["dim"] for r in rows1} == {"3", "6"}
    assert all(0 < float(r["mean_isotropy"]) <= 1 for r in rows1)


def test_sweep_checks_the_isotropy_bound(tmp_path, monkeypatch, capsys):
    from isoclust import NumericError, zmeasure

    monkeypatch.setattr(zmeasure, "isotropy_rnd", lambda view, count, seed: 1.5)
    with pytest.raises(NumericError, match=r"dim=3, vectors=10: i_rnd = 1.5 outside documented bound"):
        run_sweep([3], points=10, repeats=1, counts=[10], seed=0)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--dims", "3", "--points", "10", "--repeats", "1", "--vectors", "10",
                 "--output", str(out)]) == 4
    assert "i_rnd = 1.5 outside documented bound [0.0, 1.0]" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_repeats():
    with pytest.raises(DataError):
        run_sweep([3], points=10, repeats=0, counts=[10], seed=0)


def fail_if_sampled(*args, **kwargs):
    raise AssertionError("a cluster was sampled")


def test_sweep_and_mp_grids_are_checked_before_the_first_sample(tmp_path, monkeypatch, capsys):
    from isoclust import randmat, zmeasure

    monkeypatch.setattr(zmeasure, "gaussian_cluster", fail_if_sampled)
    monkeypatch.setattr(randmat, "gaussian_cluster", fail_if_sampled)
    sweep = ["sweep", "--repeats", "1"]
    out = tmp_path / "out.csv"
    for argv, message in (
        (sweep + ["--dims", "5", "--points", "10", "--vectors", "10,1"], "count must be >= 2, got 1"),
        (sweep + ["--dims", "5,0", "--points", "10", "--vectors", "10"], "n_dims >= 1, got (10, 0)"),
        (sweep + ["--dims", "5", "--points", "0", "--vectors", "10"], "count >= 1 and n_dims >= 1, got (0, 5)"),
        (["mp", "--points", "15", "--dims", "10,0", "--empirical", "5"], "dims must be >= 1, got 0"),
        (["mp", "--points", "0", "--dims", "10", "--empirical", "5"], "points must be >= 1, got 0"),
    ):
        assert main(argv + ["--output", str(out)]) == 3
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_repeated_count_gives_repeated_rows():
    rows = run_sweep([4], points=20, repeats=2, counts=[10, 10], seed=0)
    assert [r["method"] for r in rows] == ["vec", "rnd", "rnd"]
    timing = ("mean_seconds", "median_seconds")
    first, second = ({k: v for k, v in r.items() if k not in timing} for r in rows[1:])
    assert first == second
    assert 0 < first["mean_isotropy"] <= 1


def test_sweep_single_repeat_values_come_from_one_run():
    # timing medians pad to 3 samples internally; value and mean-time
    # columns must still reflect exactly one repeat
    rows = run_sweep([4], points=20, repeats=1, counts=[10], seed=3)
    assert [r["method"] for r in rows] == ["vec", "rnd"]
    for row in rows:
        assert row["repeats"] == 1
        assert 0 < row["mean_isotropy"] <= 1
        assert row["mean_seconds"] > 0
        assert row["median_seconds"] > 0

    from isoclust import ClusterView, gaussian_cluster, isotropy_vec

    master = np.random.default_rng(3)
    data_seed = int(master.integers(2**63, size=(1, 1))[0, 0])
    cloud = gaussian_cluster(4, 20, seed=data_seed)
    view = ClusterView(cloud)
    assert rows[0]["mean_isotropy"] == pytest.approx(isotropy_vec(view), abs=1e-12)


def test_mp_csv_predictions_and_determinism(tmp_path):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    argv = ["mp", "--points", "100", "--dims", "100,400", "--empirical", "3", "--seed", "2"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv_rows(out1)
    assert [r["dims"] for r in rows] == ["100", "400"]
    assert float(rows[0]["expected_fa"]) == pytest.approx(np.sqrt(0.5), rel=1e-6)
    assert float(rows[1]["expected_fa"]) == pytest.approx(np.sqrt(0.8), rel=1e-6)
    for r in rows:
        assert float(r["measured_fa_mean"]) == pytest.approx(float(r["expected_fa"]), rel=0.1)


def test_mp_empirical_zero_leaves_measured_blank(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["mp", "--points", "50", "--dims", "100", "--empirical", "0",
                 "--output", str(out)]) == 0
    row = read_csv_rows(out)[0]
    assert row["measured_fa_mean"] == "" and row["measured_var_lambda_mean"] == ""
