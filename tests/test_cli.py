import json
from pathlib import Path

import numpy as np
import pytest

from isoclust import DataError, kmeans, run_sweep
from isoclust.cli import main, read_cloud_csv, run_measure, write_cloud_csv
from isoclust.core import PointCloud


def write_text(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv_rows(path) -> list[dict]:
    import csv

    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def cross_csv(tmp_path):
    # two clusters whose centroids coincide at the origin
    return write_text(
        tmp_path / "cross.csv",
        "x,y,label\n1.0,0.0,a\n-1.0,0.0,a\n0.0,1.0,b\n0.0,-1.0,b\n",
    )


@pytest.fixture
def blobs_csv(tmp_path):
    rng = np.random.default_rng(0)
    data = np.vstack(
        [
            rng.normal(size=(25, 3)) + [0, 0, 0],
            rng.normal(size=(25, 3)) + [15, 0, 0],
            rng.normal(size=(25, 3)) + [0, 15, 0],
        ]
    )
    labels = np.repeat([0, 1, 2], 25)
    path = tmp_path / "blobs.csv"
    write_cloud_csv(path, PointCloud(data, columns=["a", "b", "c"]), labels=labels)
    return str(path)


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


def test_measure_kmeans(blobs_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["measure", "--input", blobs_csv, "--kmeans", "3", "--output", str(out)]) == 0
    report = load_json(out)
    assert report["k"] == 3
    assert report["kmeans"]["k"] == 3
    assert report["kmeans"]["inertia"] > 0
    assert "label_mapping" not in report
    history = report["metadata"]["kmeans_inertia_history"]
    assert history == kmeans(read_cloud_csv(blobs_csv)[0], 3, seed=0).inertia_history
    assert len(history) == report["kmeans"]["iterations"]


def test_measure_kmeans_multi(blobs_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["measure", "--input", blobs_csv, "--kmeans-multi", "2,3", "--output", str(out)]) == 0
    report = load_json(out)
    assert set(report["multi"].keys()) == {"2", "3"}
    for k in ("2", "3"):
        section = report["multi"][k]
        assert section["kmeans"]["k"] == int(k)
        assert "global" in section and "per_cluster" in section
    mean_fa = (report["multi"]["2"]["global"]["fa_g"] + report["multi"]["3"]["global"]["fa_g"]) / 2
    assert report["global_mean"]["fa_g"] == pytest.approx(mean_fa, abs=1e-15)
    assert "timings_s.k=2" in report["metadata"] and "timings_s.k=3" in report["metadata"]
    cloud = read_cloud_csv(blobs_csv)[0]
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


def test_cluster_rejects_an_input_with_a_label_column(tmp_path, capsys):
    # the appended label column would repeat the name, and a later
    # --label-column label would read the feature column instead
    src = write_text(tmp_path / "in.csv", "x,label\n0,0\n1,5\n10,3\n11,4\n")
    out = tmp_path / "out.csv"
    assert main(["cluster", "--input", src, "--kmeans", "2", "--output", str(out)]) == 3
    assert "has a column named 'label'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


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


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "isoclust" in capsys.readouterr().out


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


def test_sweep_rejects_bad_repeats():
    with pytest.raises(DataError):
        run_sweep([3], points=10, repeats=0, counts=[10], seed=0)


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
    view = ClusterView(cloud, np.arange(20))
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
