"""Closed-loop client for the eigen-queries workload, one client.

Sends each query to ``qgelfand.cli.main`` in this process with stdout
captured, and starts the next only after the previous one has returned.

    python bench/client.py QUERIES.json RESULTS.json [SUMMARY.json SPANS.json]

QUERIES.json is a list of CLI argument lists.  RESULTS.json receives
``{"loop_s": ..., "results": [[exit_code, output, latency_ms], ...]}``.
With the last two paths the layers are traced and the trace summary and
spans are written there.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(argv):
    queries_path, results_path = argv[:2]
    trace_paths = argv[2:]
    if trace_paths:
        import tracer
        spans = tracer.Tracer()
        tracer.install(spans)
    from qgelfand import cli

    with open(queries_path) as fh:
        queries = json.load(fh)
    results = []
    loop_start = time.perf_counter()
    for query in queries:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.main(query)
            except SystemExit as exc:
                code = exc.code
            except Exception:      # a crash is a failed query, not a stop
                code = None
                traceback.print_exc(file=out)
        results.append([code, out.getvalue(),
                        (time.perf_counter() - t0) * 1000])
    loop_s = time.perf_counter() - loop_start
    with open(results_path, "w") as fh:
        json.dump({"loop_s": loop_s, "results": results}, fh)
    if trace_paths:
        spans.write(*trace_paths)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
