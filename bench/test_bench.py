"""Tests of the benchmark itself, on tiny inputs (``--smoke``)."""

import copy
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

run._require_package()
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric(name):
    result, _ = run.run_workload(name, seed=0, seconds=0, trace=False, size="smoke")
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced, _ = run.run_workload(name, seed=0, seconds=0, trace=True, size="smoke")
    assert (traced["correct"], traced["attempted"], traced["failed"]) == (True, 2, 0)
    assert [m["name"] for m in SPEC["per_layer"]] == list(traced["metrics"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(units[k] == v["unit"] for k, v in {**result["metrics"], **traced["metrics"]}.items())
    # computed counts repeat exactly between runs
    again, _ = run.run_workload(name, seed=0, seconds=0, trace=True, size="smoke")
    for key in ("kmeans.iterations", "spectral.eigh_n3", "zmeasure.directions_probed", "cli.read_cloud_csv.bytes"):
        assert again["metrics"][key] == traced["metrics"][key]


def test_benchmark_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_perturbed_report_fails_the_op(tmp_path, monkeypatch):
    doc = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    (variant,) = workloads.pick_variants(0, 1)
    doc["smoke"]["measure-lowdim"][variant]["global"]["fa_g"] *= 1 + 1e-6
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", perturbed)
    result, lines = run.run_workload("measure-lowdim", seed=0, seconds=0, trace=False, size="smoke")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert any("global.fa_g" in line for line in lines)


def test_measure_checks():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["smoke"]["measure-lowdim"][0]
    report = {**copy.deepcopy(reference), "metadata": {"timings_s": {"fa": 1.0}}}
    assert checks.measure_problems(report, reference) == []

    near = copy.deepcopy(report)
    near["global"]["fa_g"] *= 1 + 1e-12
    assert checks.measure_problems(near, reference) == []

    for mutate in (
        lambda r: r["per_cluster"]["i_vec"].__setitem__(0, r["per_cluster"]["i_vec"][0] * (1 + 1e-8)),
        lambda r: r.__setitem__("k", r["k"] + 1),
        lambda r: r["degenerate_clusters"].append(0),
        lambda r: r["global"].pop("silhouette"),
        lambda r: r["kmeans"].__setitem__("iterations", float(r["kmeans"]["iterations"])),
    ):
        bad = copy.deepcopy(report)
        mutate(bad)
        assert checks.measure_problems(bad, reference), mutate

    out_of_bound = copy.deepcopy(report)
    out_of_bound["per_cluster"]["fa"][0] = 1.5
    problems = checks.measure_problems(out_of_bound, checks.without_metadata(out_of_bound))
    assert problems == ["bounds: fa = 1.5 outside documented bound [0.0, 1.0]"]


def test_cluster_checks():
    data = np.random.default_rng(0).normal(size=(6, 2))
    labels = [0, 1, 0, 1, 1, 0]
    text = "x0,x1,label\r\n" + "".join(f"{a!r},{b!r},{c}\r\n" for (a, b), c in zip(data.tolist(), labels))
    sidecar = {"k": 2, "seed": 0, "inertia": 1.5, "iterations": 3, "reseeded": False, "centroids": [[0, 0], [1, 1]]}
    reference = checks.cluster_reference(text, sidecar)
    assert checks.cluster_problems(text, sidecar, data, reference) == []
    x = float(data[2, 1])
    assert checks.cluster_problems(text.replace(repr(x), repr(np.nextafter(x, 1.0).item())), sidecar, data, reference)
    assert checks.cluster_problems(text.replace(",1\r\n", ",0\r\n", 1), sidecar, data, reference)
    assert checks.cluster_problems(text, {**sidecar, "iterations": 4}, data, reference)


def _span(name, parent, thread, start, end, **counts):
    return {"name": name, "parent": parent, "thread": thread, "start": start, "end": end, "counts": counts}


def test_self_times_add_up_with_pool_threads():
    main, a, b = 1, 2, 3
    spans = [
        _span("cli.read_cloud_csv", None, main, 0.0, 1.0, bytes=10),
        _span("cli.run_measure", None, main, 1.0, 5.0, threads=2),
        _span("core.split_clusters", 1, main, 1.0, 1.5, clusters=4),
        _span("zmeasure.isotropy_vec", 1, a, 1.5, 4.5),
        _span("spectral.spectral_summary", 3, a, 1.5, 3.5, eig_n3=8),
        _span("zmeasure.isotropy_vec", 1, b, 1.5, 3.5),
    ]
    out = tracer.layer_metrics(spans, run_s=5.5, degenerate_clusters=0)
    assert out["cli.unattributed_s"] == pytest.approx(0.5)
    # pool spans count half: (3 - 2) / 2 + 2 / 2 for isotropy_vec, 2 / 2 for spectral_summary
    assert out["zmeasure.isotropy_vec.self_s"] == pytest.approx(1.5)
    assert out["spectral.spectral_summary.self_s"] == pytest.approx(1.0)
    assert out["cli.run_measure.self_s"] == pytest.approx(4.0 - 0.5 - 2.5)
    assert out["cli.run_measure.parallel_efficiency"] == pytest.approx((0.5 + 5.0) / (2 * 4.0))
    assert out["spectral.spectral_summary.calls_per_cluster"] == 0.25
    assert sum(out[f"{n}.self_s"] for n in tracer.SELF_TIMED) + out["cli.unattributed_s"] == pytest.approx(5.5)

    with pytest.raises(tracer.TraceError):
        tracer.layer_metrics(spans, run_s=4.0, degenerate_clusters=0)


def test_recorder_keeps_stacks_per_thread():
    recorder = tracer.Recorder()
    outer = recorder.wrap("cli.run_measure", lambda: worker_run(), None, None)
    inner = recorder.wrap("zmeasure.isotropy_vec", lambda: None, None, None)

    def worker_run():
        threads = [threading.Thread(target=inner) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    outer()
    parents = [s["parent"] for s in recorder.spans]
    assert parents == [None, 0, 0]
    assert len({s["thread"] for s in recorder.spans}) == 3
