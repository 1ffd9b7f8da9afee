"""isoclust CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ``isoclust`` CLI from this checkout's ``src/`` over one
workload (see ``workloads.py``) in a closed loop: one client, ops back to
back, each op one CLI invocation in a fresh child process, because a
user pays the interpreter start, the import and the run every time.
The child sees only the generated CSV, with ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` set to 1 so the workload's ``--threads`` is its whole
thread count.  Every op's output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's ops.  ``--trace 1`` alternates untraced and traced ops on each
input and reports the per-layer metrics of ``tracer.py``, medians over
the traced ops, plus the tracing overhead.  The last line of standard
output is the result as one JSON object.

``--record`` runs every recorded input once and rewrites
``reference.json``; do that only when the outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OP_TIMEOUT_S = 150
E2E_UNITS = {"setup_s": "s", "run_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The benchmark cannot run here: no package source, or no usable op."""


def _require_package():
    if not (SRC / "isoclust" / "cli.py").is_file():
        raise SetupError(f"no isoclust package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoclust

    if Path(isoclust.__file__).resolve().parent != SRC / "isoclust":
        raise SetupError(f"isoclust imported from {isoclust.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # cached bytecode, as an installed package has; the first op writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "child_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    }


# ---------------------------------------------------------------------------
# one op


def run_op(cli_args: list[str], workdir: Path, trace: bool, env: dict) -> dict:
    """Spawn one child, reap it with its rusage, and return its timings."""
    result_path = workdir / "child.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), "1" if trace else "0", result_path.name, *cli_args]
    with open(workdir / "child.log", "wb") as log:
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is not used: after a vfork it holds this process's peak
    op = {"exit": proc.returncode, "wall_s": reaped - spawn, "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and result_path.is_file():
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        op.update(doc, setup_s=doc["imported"] - spawn)
    else:
        op["log"] = (workdir / "child.log").read_text(errors="replace")[-2000:]
    return op


# ---------------------------------------------------------------------------
# one workload


class Runner:
    """Inputs, reference and output checks of one workload in one run."""

    def __init__(self, workload_name: str, size: str, workdir: Path):
        self.workload = workloads.WORKLOADS[workload_name]
        self.size = size
        self.workdir = workdir
        self.inputs: dict[int, object] = {}
        self.seen: dict[int, bytes] = {}
        self.env = child_env()

    def add_input(self, variant: int) -> None:
        data, labels = workloads.make_input(self.workload, self.size, variant)
        workloads.write_csv(self.workdir / f"v{variant:02d}.csv", data, labels)
        self.inputs[variant] = data

    def cli_args(self, variant: int) -> list[str]:
        w = self.workload
        out = "report.json" if w.subcommand == "measure" else "out.csv"
        return [w.subcommand, "--input", f"v{variant:02d}.csv", "--output", out, *w.args]

    def outputs(self):
        """(canonical bytes, parsed outputs) of the op that just ran."""
        if self.workload.subcommand == "measure":
            report = json.loads((self.workdir / "report.json").read_text(encoding="utf-8"))
            return checks.canonical(report), report
        text = (self.workdir / "out.csv").read_text(encoding="utf-8")
        sidecar = json.loads((self.workdir / "out.csv.centroids.json").read_text(encoding="utf-8"))
        return text.encode() + checks.canonical(sidecar), (text, sidecar)

    def reference_of(self, outputs) -> dict:
        if self.workload.subcommand == "measure":
            return checks.without_metadata(outputs)
        return checks.cluster_reference(*outputs)

    def problems(self, variant: int, reference: dict, op: dict) -> list[str]:
        """Checks of the op that just ran; a traced op also gets its "layers"."""
        if "run_s" not in op:
            return [f"exit code {op['exit']}: {op['log']}"]
        if Path(op["module"]).resolve().parent != SRC / "isoclust":
            return [f"the child imported isoclust from {op['module']}"]
        try:
            digest, outputs = self.outputs()
        except (OSError, ValueError) as exc:
            return [f"output unreadable: {exc}"]
        if self.seen.setdefault(variant, digest) != digest:
            return ["output differs from an earlier op on the same input"]
        if self.workload.subcommand == "measure":
            problems = checks.measure_problems(outputs, reference)
            degenerate = len(outputs.get("degenerate_clusters", []))
        else:
            problems = checks.cluster_problems(*outputs, self.inputs[variant], reference)
            degenerate = 0
        if problems or "spans" not in op:
            return problems
        if op["missing"]:
            return [f"traced functions missing from the package: {op['missing']}"]
        try:
            op["layers"] = tracer.layer_metrics(op["spans"], op["run_s"], degenerate)
        except tracer.TraceError as exc:
            return [str(exc)]
        return []

    def op(self, variant: int, trace: bool) -> dict:
        for name in ("report.json", "out.csv", "out.csv.centroids.json"):
            (self.workdir / name).unlink(missing_ok=True)
        return run_op(self.cli_args(variant), self.workdir, trace, self.env)


def _workdir(name: str) -> Path:
    workdir = ROOT / ".bench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def _cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; return (result, human-readable lines)."""
    _require_package()
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))[size][name]
    variants = workloads.pick_variants(seed, workloads.PER_RUN if size == "full" else 1)
    if trace:
        variants = variants[: workloads.TRACED]
    workdir = _workdir(f"{size}-{name}")
    try:
        runner = Runner(name, size, workdir)
        for v in variants:
            runner.add_input(v)
        ops, traced, failures = [], [], []
        deadline = time.monotonic() + seconds
        i = 0
        while True:
            variant = variants[i % len(variants)]
            for traced_op in (False, True) if trace else (False,):
                op = runner.op(variant, traced_op)
                problems = runner.problems(variant, references[variant], op)
                if problems:
                    failures.append(f"op on v{variant:02d}: {problems[0]}")
                # a completed op is timed even when its output is wrong
                if "layers" in op or ("run_s" in op and not traced_op):
                    (traced if traced_op else ops).append(op)
            i += 1
            # a traced run ends on a whole cycle so its counts cover each input equally
            if time.monotonic() >= deadline and (not trace or i % len(variants) == 0):
                break
    finally:
        _cleanup(workdir)

    attempted = i * (2 if trace else 1)
    if not ops or (trace and not traced):
        raise SetupError(f"{name}: no op completed: {failures[:3]}")
    if trace:
        metrics = _per_layer(traced, ops)
        units = tracer.UNITS
    else:
        metrics = {key: statistics.median(op[key] for op in ops) for key in E2E_UNITS}
        units = E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    lines = [
        f"{name}: seed {seed}, inputs {['v%02d' % v for v in variants]}, "
        f"{attempted} ops, {len(failures)} failed, fail_ratio {len(failures) / attempted:g} ratio",
        *failures,
        *(
            f"  {key:45s} {metrics[key]:.6g} {units[key]}  (median of "
            f"{len(traced) if trace else len(ops)} ops)"
            for key in units
        ),
    ]
    return result, lines


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    metrics = {key: statistics.median(op["layers"][key] for op in traced) for key in tracer.UNITS}
    metrics["trace.overhead_ratio"] = statistics.median(op["run_s"] for op in traced) / statistics.median(
        op["run_s"] for op in untraced
    )
    return metrics


# ---------------------------------------------------------------------------
# reference recording


def record(sizes=("smoke", "full")) -> None:
    _require_package()
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    variants = list(range(workloads.VARIANTS))
    for size in sizes:
        doc[size] = {}
        for name in workloads.WORKLOADS:
            workdir = _workdir(f"record-{size}-{name}")
            try:
                runner = Runner(name, size, workdir)
                refs = []
                for v in variants:
                    runner.add_input(v)
                    op = runner.op(v, False)
                    if op["exit"] != 0:
                        raise SetupError(f"{name} v{v:02d}: exit {op['exit']}: {op.get('log')}")
                    refs.append(runner.reference_of(runner.outputs()[1]))
                    print(f"recorded {size} {name} v{v:02d}", file=sys.stderr)
                doc[size][name] = refs
            finally:
                _cleanup(workdir)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one op per workload")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        _require_package()
        print("env " + json.dumps(environment(), sort_keys=True))
        size = "smoke" if args.smoke else "full"
        seconds = 0 if args.smoke else args.seconds
        result, lines = run_workload(args.workload, args.seed, seconds, bool(args.trace), size)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
