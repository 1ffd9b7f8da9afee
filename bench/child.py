"""One benchmark op: a single ``isoclust`` CLI invocation in a fresh process.

Usage: child.py TRACE RESULT_JSON CLI_ARG...

Records when ``import isoclust.cli`` finished (CLOCK_MONOTONIC, which the
parent shares, so the parent can time set-up from its spawn), the
duration of ``isoclust.cli.main(argv)``, its exit code, the process's
peak resident set and, with TRACE = 1, the spans of every traced layer
call.  Only ``sys`` and ``time`` are imported before the package, so
set-up is the package's own.
"""

import sys
import time


def main() -> int:
    trace, result_path, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    import isoclust.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json

    import tracer

    recorder = None
    if trace:
        recorder = tracer.Recorder()
        recorder.install()
    start = time.perf_counter()
    code = isoclust.cli.main(argv)
    run_s = time.perf_counter() - start

    doc = {
        "imported": imported,
        "run_s": run_s,
        "exit": code,
        "module": isoclust.cli.__file__,
        "peak_rss_mb": tracer.vm_hwm_kb() / 1024,
    }
    if recorder is not None:
        doc["spans"] = recorder.spans
        doc["missing"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
