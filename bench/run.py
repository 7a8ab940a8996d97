"""The qgelfand benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record

Run from the root of a checkout.  Every timed operation runs the
package from ``src/`` in a fresh interpreter, and every answer is
checked: ``verify`` reports row by row against the reference reports in
``bench/reference/``, eigen-queries against Fraction oracles.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced run next to an untraced one.
``--record`` rewrites the reference reports from the current ``src/``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
PY = sys.executable

VERIFY = {
    "verify-default": ["verify"],
    "verify-large": ["verify", "--n", "2,3", "--N-max", "4", "--checks",
                     "defining-relations,centrality"],
}
QUERIES = "eigen-queries"
WORKLOADS = (*VERIFY, QUERIES)

# fresh interpreters timed for setup_s before each operation
SETUP_PER_OP = 3
# a run ends within this many seconds of its start
RUN_LIMIT = 170

CATEGORIES = ("ybe", "crossing", "f-series", "antisymmetrizer", "fusion",
              "defining-relations", "comatrix", "z-identities", "centrality",
              "liouville", "series-expansion", "eigenvalue-match",
              "partial-fractions", "classical-limit", "alternate-families",
              "shift-covariance")


class CheckoutError(RuntimeError):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child process: exit code (None when it was killed
    at its wall-clock limit), wall and CPU seconds, peak RSS in MB."""

    def __init__(self, code, wall, cpu, rss_mb):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, limit):
    """Run ``argv`` from the checkout root and wait for it, killing it
    after ``limit`` seconds.  Resource use is read per child with wait4."""
    with open(OUT / "child.err", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return Child(code, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024)


def check_checkout():
    """Fail unless ``import qgelfand`` in a child resolves to ``src/``.
    The probe also compiles the bytecode, before any import is timed."""
    if not (SRC / "qgelfand" / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {SRC / 'qgelfand'}")
    probe = subprocess.run(
        [PY, "-c", "import qgelfand; print(qgelfand.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60)
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or where.parent != (SRC / "qgelfand").resolve():
        raise CheckoutError("import qgelfand does not load src/qgelfand: "
                            + (probe.stderr.strip() or str(where)))


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": model}


def time_import():
    """Wall time of a fresh interpreter running ``import qgelfand``."""
    child = run_child([PY, "-c", "import qgelfand"], 60)
    if child.code != 0:
        raise CheckoutError("import qgelfand failed in a fresh interpreter")
    return child.wall


def percentile(values, p):
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def load_reference(name):
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)


class Op:
    """One checked operation: the child that ran it, the rows or queries
    attempted and failed, per-query latencies, the time spent answering
    (``busy_s``) and the trace summary of a traced child."""

    def __init__(self, child, attempted, failed, latencies_ms, busy_s,
                 summary=None):
        self.child, self.attempted, self.failed = child, attempted, failed
        self.latencies_ms, self.busy_s = latencies_ms, busy_s
        self.summary = summary


def read_json(path):
    """The JSON in ``path``, or None when it is missing or unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def verify_op(name, reference, started, trace):
    """One ``qgelfand verify`` child, its report checked row by row."""
    report_path = OUT / f"{name}.report.json"
    summary_path = OUT / f"{name}.trace.json"
    report_path.unlink(missing_ok=True)
    summary_path.unlink(missing_ok=True)
    cli_args = VERIFY[name] + ["--format", "json", "--out", str(report_path)]
    if trace:
        argv = [PY, str(BENCH / "tracer.py"), str(summary_path),
                str(OUT / f"{name}.spans.json"), "--", *cli_args]
    else:
        argv = [PY, "-m", "qgelfand", *cli_args]
    child = run_child(argv, limit(started))
    rows = reference["rows"]
    report = read_json(report_path)
    if child.code != reference["exit_code"] or not isinstance(report, dict):
        attempted = failed = len(rows)
    else:
        try:
            attempted, failed = oracle.compare_rows(
                rows, oracle.report_rows(report))
        except (KeyError, TypeError):
            attempted = failed = len(rows)
    return Op(child, attempted, failed, [child.wall * 1000], child.wall,
              read_json(summary_path) if trace else None)


def query_op(queries, started, trace):
    """One client process over ``queries``, every answer checked."""
    in_path = OUT / "queries.json"
    out_path = OUT / "answers.json"
    summary_path = OUT / f"{QUERIES}.trace.json"
    out_path.unlink(missing_ok=True)
    summary_path.unlink(missing_ok=True)
    in_path.write_text(json.dumps(queries))
    argv = [PY, str(BENCH / "client.py"), str(in_path), str(out_path)]
    if trace:
        argv += [str(summary_path), str(OUT / f"{QUERIES}.spans.json")]
    child = run_child(argv, limit(started))
    answers = read_json(out_path)
    if child.code != 0 or answers is None:
        return Op(child, len(queries), len(queries), [], child.wall)
    results = answers["results"]
    failed = len(queries) - len(results) + sum(
        not oracle.check_answer(q, code, text)
        for q, (code, text, _) in zip(queries, results))
    return Op(child, len(queries), failed, [ms for _, _, ms in results],
              answers["loop_s"],
              read_json(summary_path) if trace else None)


def measure(seconds, next_op):
    """Run ``next_op()`` until the next one would end after ``seconds``.
    Before each operation, time SETUP_PER_OP fresh imports, so set-up is
    sampled across the whole run.  Returns (operations, set-up times)."""
    ops, setup = [], []
    window = time.perf_counter()
    while True:
        setup += [time_import() for _ in range(SETUP_PER_OP)]
        op = next_op()
        ops.append(op)
        elapsed = time.perf_counter() - window
        if op.child.code is None or elapsed + op.child.wall > seconds:
            return ops, setup


def end_to_end(ops, setup):
    """The end-to-end metrics of a run, as {name: (value, unit)}."""
    children = [op.child for op in ops]
    latencies = [ms for op in ops for ms in op.latencies_ms]
    if not latencies:      # every operation failed; keep the metrics defined
        latencies = [c.wall * 1000 for c in children]
    print(f"# {len(ops)} operations, {len(latencies)} latency samples, "
          f"{len(setup)} set-up samples; operation wall "
          + " ".join(f"{c.wall:.3f}" for c in children) + " s")
    return {
        "wall_s": (statistics.median(c.wall for c in children), "s"),
        "cpu_s": (statistics.median(c.cpu for c in children), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (percentile(latencies, 50), "ms"),
        "query_p90_ms": (percentile(latencies, 90), "ms"),
        "queries_per_s": (len(latencies) / sum(op.busy_s for op in ops),
                          "1/s"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(summary, overhead_s):
    """The per-layer metrics from a trace summary (None when the traced
    child failed, which is counted as a failed operation)."""
    summary = summary or {}
    layers = summary.get("layers", {})

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def p50_ms(name):
        durations = layers.get(name, {}).get("durations_s")
        return percentile(durations, 50) * 1000 if durations else 0.0

    out = {}
    for name in ("scalars.laurent_gcd", "scalars.poly_gcd", "tmatrix.mul",
                 "tmatrix.addsub", "tmatrix.elim", "tmatrix.tensor_ops",
                 "reps.tensor_power", "reps.highest_weight_vector",
                 "invariants.z_scalar", "invariants.qdet_scalar",
                 "invariants.z_matrix", "invariants.closed_form_eigenvalue",
                 "invariants.classical_limit_value"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["tmatrix.mul.out_density"] = (summary.get("mul_out_density", 0.0),
                                      "ratio")
    out["tmatrix.max_dim"] = (summary.get("max_dim", 0), "count")
    out["reps.tensor_power.density"] = (
        summary.get("tensor_power_density", 0.0), "ratio")
    out["rmatrix.build_rmatrix_set.calls"] = (
        calls("rmatrix.build_rmatrix_set"), "count")
    task_s = 0.0
    for category in CATEGORIES:
        name = f"suite.category.{category}"
        total = layers.get(name, {}).get("total_s", 0.0)
        out[f"suite.category.{category}.s"] = (total, "s")
        task_s += total
    suite_s = layers.get("suite.run_suite", {}).get("total_s", 0.0)
    out["suite.busy_ratio"] = (task_s / suite_s if suite_s else 0.0, "ratio")
    out["cli.eigenvalue.p50_ms"] = (p50_ms("cli.cmd_eigenvalue"), "ms")
    out["cli.limit.p50_ms"] = (p50_ms("cli.cmd_limit"), "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def limit(started):
    """Wall-clock limit for the next child, so the run ends in time."""
    return max(1.0, RUN_LIMIT - (time.perf_counter() - started))


def record():
    """Rewrite the reference reports from the current ``src/``."""
    OUT.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    for name, cli_args in VERIFY.items():
        report_path = OUT / f"{name}.report.json"
        code = subprocess.run(
            [PY, "-m", "qgelfand", *cli_args, "--format", "json",
             "--out", str(report_path)], cwd=ROOT, env=child_env()).returncode
        with open(report_path) as fh:
            rows = oracle.report_rows(json.load(fh))
        lines = ",\n".join(json.dumps(row) for row in rows)
        (REFERENCE / f"{name}.json").write_text(
            f'{{"exit_code": {code}, "rows": [\n{lines}\n]}}\n')
        print(f"{name}: {len(rows)} rows, exit code {code}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference verify reports")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        check_checkout()
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        OUT.mkdir(exist_ok=True)
        info = machine_info()
        print(f"# machine: nproc={info['nproc']} python={info['python']} "
              f"cpu={info['cpu_model']}")
        if args.workload in VERIFY:
            reference = load_reference(args.workload)

            def next_op(trace=False):
                return verify_op(args.workload, reference, started, trace)
        else:
            blocks = oracle.query_blocks(args.seed)
            first = next(blocks)
            unsent = [first]

            def next_op(trace=False):
                # a traced run repeats the first block under the tracer
                if trace:
                    return query_op(first, started, True)
                return query_op(unsent.pop() if unsent else next(blocks),
                                started, False)
        if args.trace:
            base = next_op()
            traced = next_op(trace=True)
            ops = [base, traced]
            metrics = layer_metrics(traced.summary,
                                    traced.child.wall - base.child.wall)
        else:
            ops, setup = measure(args.seconds, next_op)
            metrics = end_to_end(ops, setup)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(f"# failed_share = {failed / attempted} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
