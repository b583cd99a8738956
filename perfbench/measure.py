"""The measured process: runs one workload's queries in-process through
`flatmc.cli.main` and writes what it saw to `results.json` in the work
directory.

Usage: python3 perfbench/measure.py WORKDIR SECONDS TRACE LIMIT COUNT

The parent (`run.py`) starts it with PYTHONHASHSEED pinned and with the
checkout's `src` first on PYTHONPATH.

With TRACE 0 the queries of `queries.jsonl` (at most COUNT) run in order, one
at a time, until SECONDS have passed. Every SETUP_EVERY_S seconds, outside the
query timings, a fresh interpreter imports `flatmc.cli` and is timed. With
TRACE 1 the first COUNT queries run once without and once with tracing, so
the count metrics repeat exactly and the overhead can be read off.

Right before each query, a fixed pure-Python reference loop is timed too, so
that each query's time can be expressed in units of the reference loop: on a
shared host whose speed drifts by half over minutes, that ratio stays steady
while wall times do not. Each query is stopped after LIMIT seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYERS, SPANNED, Tracer

SETUP_EVERY_S = 3.0
# Iterations of the reference loop: about 2 ms on a 2-core x86-64 machine.
REFERENCE_LOOPS = 20000
_REFERENCE_DATA = tuple(range(64))


class QueryTimeout(BaseException):
    """Raised by the alarm when a query goes over the time limit."""


def _alarm(_signum, _frame):
    raise QueryTimeout


def reference_s() -> float:
    """Wall time of the reference loop. It does integer arithmetic and
    tuple reads only, so it allocates nothing that the garbage collector
    tracks and leaves no trace in the program's heap."""
    data, total = _REFERENCE_DATA, 0
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        total += data[i & 63] * i % 7
    return time.perf_counter() - start


def _run_query(cli, workdir: str, query_id: int, query: dict, limit: float,
               tag: str) -> dict:
    machine_path = os.path.join(workdir, f"m{query_id}.json")
    witness_path = os.path.join(workdir, f"{tag}{query_id}.json")
    with open(machine_path, "w", encoding="utf-8") as handle:
        json.dump(query["machine"], handle)
    with contextlib.suppress(FileNotFoundError):
        os.remove(witness_path)
    argv = [query["command"], machine_path, *query["args"], "--json",
            "--witness", witness_path]
    out, err = io.StringIO(), io.StringIO()
    status, code = "done", None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except QueryTimeout:
            status = "timeout"
        except Exception as exc:  # a crash is a failed query, not a failed run
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    verdict = None
    if status == "done" and code in (0, 1):
        try:
            verdict = json.loads(out.getvalue())["verdict"]
        except (ValueError, KeyError):
            status = f"unreadable report: {out.getvalue()[:200]!r}"
    return {"id": query_id, "status": status, "code": code,
            "seconds": elapsed, "verdict": verdict,
            "witness": witness_path, "machine": machine_path}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image. VmHWM, unlike
    ru_maxrss, does not carry over the peak of the parent that spawned it."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _queries(workdir: str, count: int):
    """The first `count` queries with their ids, read one at a time so the
    list does not add to the measured process's memory."""
    with open(os.path.join(workdir, "queries.jsonl"), encoding="utf-8") as f:
        for query_id, line in zip(range(count), f):
            yield query_id, json.loads(line)


def _setup_s() -> float:
    """Wall time of a fresh interpreter importing flatmc.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import flatmc.cli"], check=True)
    return time.perf_counter() - start


def _pass(cli, workdir, queries, limit, tag, tracer=None, seconds=None):
    """Run `queries` in order, timing the reference loop before each one.
    With `seconds`, stop once that many have passed, and time a fresh
    interpreter at the start and every SETUP_EVERY_S seconds."""
    results, setup = [], []
    start = last_setup = time.perf_counter()
    if seconds is not None:
        setup.append(_setup_s())
    for query_id, query in queries:
        now = time.perf_counter()
        if seconds is not None:
            if results and now - start >= seconds:
                break
            if now - last_setup >= SETUP_EVERY_S:
                setup.append(_setup_s())
                last_setup = now
        if tracer is not None:
            tracer.query = query_id
        ref_s = reference_s()
        result = _run_query(cli, workdir, query_id, query, limit, tag)
        result["reference_s"] = ref_s
        results.append(result)
    return results, setup, time.perf_counter() - start


def costs(results: list[dict]) -> list[float]:
    """Each query's wall time in units of the reference loop: divided by the
    median of the reference times measured before it and the two queries on
    either side, which damps the noise of a single 2-ms sample while still
    following the host's drift."""
    refs = [r["reference_s"] for r in results]
    return [r["seconds"] / statistics.median(refs[max(0, i - 2):i + 3])
            for i, r in enumerate(results)]


def layer_metrics(tracer, queries: int, untraced: float,
                  traced: float) -> dict:
    total, own = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name in ("reach.parametric_reach", "reach.fold_constants",
                 "reductions.divergence_context", "reductions.buchi_to_reach",
                 "reductions.buchi_witness_to_lasso",
                 "reductions.succinct_to_unary", "reductions.flat_mc_to_buchi",
                 "formulas.parse", "formulas.nnf", "formulas.evaluate"):
        metrics[name + "_s"] = total.get(name, 0.0)
        metrics[name + "_self_s"] = own.get(name, 0.0)
    for name in ("reach.parametric_reach", "reductions.divergence_context",
                 "reductions.buchi_to_reach"):
        metrics[name + "_calls"] = counts[name + "_calls"]
    calls = counts["reach.parametric_reach_calls"]
    metrics["reach.parametric_reach_hit_ratio"] = (
        counts["reach.parametric_reach_hits"] / calls if calls else 0.0)
    for name in ("reach.instantiations", "machines.successors_calls",
                 "reductions.divergence_configs", "reductions.unary_states",
                 "reductions.product_states",
                 "reductions.product_transitions",
                 "reductions.product_accepting", "formulas.encoded_size"):
        metrics[name] = counts[name]
    validators = ("machines.validate_run", "machines.validate_lasso")
    metrics["machines.validate_s"] = tracer.outermost(validators)
    metrics["machines.validate_self_s"] = sum(own.get(n, 0.0)
                                              for n in validators)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (t for n, t in own.items() if n.startswith(layer + ".")), 0.0)
    metrics["jsonio.s"] = tracer.outermost(
        {f"jsonio.{fn}" for fn in SPANNED["jsonio"]})
    metrics["trace.queries"] = queries
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    return metrics


def main(argv) -> int:
    workdir, seconds, trace, limit, count = argv
    seconds, limit, count = float(seconds), float(limit), int(count)
    src = os.path.abspath("src")
    from flatmc import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"flatmc was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    report: dict = {}
    if trace == "0":
        results, setup, wall = _pass(cli, workdir, _queries(workdir, count),
                                     limit, "w", seconds=seconds)
        report["peak_rss_mb"] = _peak_rss_mb()
        report["setup_s"] = setup
        report["wall_s"] = wall
    else:
        untraced, _setup, _wall = _pass(cli, workdir,
                                        _queries(workdir, count), limit, "u")
        tracer = Tracer()
        tracer.install()
        try:
            traced_run, _setup, _wall = _pass(
                cli, workdir, _queries(workdir, count), limit, "t",
                tracer=tracer)
        finally:
            tracer.uninstall()
        results = untraced + traced_run
        report["layers"] = layer_metrics(tracer, len(traced_run),
                                         sum(costs(untraced)),
                                         sum(costs(traced_run)))
        with open(os.path.join(workdir, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    report["results"] = results
    with open(os.path.join(workdir, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
