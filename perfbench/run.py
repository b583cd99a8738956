"""flatmc benchmark: closed-loop CLI queries with an independent verdict gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach --seed 1 --seconds 10 --trace 0

One client in one process sends the next query only after the previous one
has returned. Each query calls `flatmc.cli.main` in-process on a generated
machine file, always with an explicit `--bound` and with `--json --witness`.
The measured process runs with PYTHONHASHSEED derived from the seed, since
set iteration order moves tableau times by a factor of two or more.

Each query's cost is its wall time in units of a fixed reference loop timed
right before each query, in the same process (see `measure.costs`); the
`_ref` metrics are costs in those units. Raw wall-clock figures (`queries_per_s`,
`query_p50_ms`, `query_p90_ms`) and the reference loop's median time are
printed beside them.

After the timed span, every verdict is compared with a brute-force oracle and
every present witness is re-checked with `flatmc check`. The last line of
output is one JSON object: with `--trace 0` the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics from a traced pass.
The line before it reports everything, `failed_ratio` and the raw wall-clock
figures included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from measure import costs  # noqa: E402

QUERY_LIMIT_S = 20.0
TAIL_PCT = 90
WORKER_LIMIT_S = 170.0


def percentile(samples: list[float], pct: float) -> float:
    """The `pct` percentile of `samples`, nearest rank."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its
    value; None when there are too few samples for one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def check_witness(cli, result: dict, query: dict) -> str | None:
    """Run `flatmc check` on a present answer; None if it accepts."""
    if not os.path.exists(result["witness"]):
        return "no witness file"
    argv = ["check", result["witness"], result["machine"]]
    if query.get("formula"):
        argv.append(query["formula"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    if code != 0 or not out.getvalue().startswith("valid"):
        return f"check rejected the witness: {out.getvalue().strip()}"
    return None


def judge(cli, result: dict, query: dict, expected) -> str | None:
    """Why a query failed, or None if its answer is right."""
    if result["status"] != "done":
        return result["status"]
    if result["code"] not in (0, 1):
        return f"exit code {result['code']}"
    verdict = result["verdict"]
    present = result["code"] == 0
    if verdict != ("present" if present else "absent"):
        return f"verdict {verdict!r} with exit code {result['code']}"
    if expected is not None and present != expected:
        return f"{verdict}, expected {'present' if expected else 'absent'}"
    return check_witness(cli, result, query) if present else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    if args.trace == "0" and args.workload in workloads.TRACE_ONLY:
        parser.error(f"{args.workload} runs only with --trace 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    for needed in (os.path.join(src, "flatmc", "cli.py"),
                   os.path.join(root, "BENCHMARK.json")):
        if not os.path.exists(needed):
            print(f"error: run from the root of a flatmc checkout "
                  f"({needed} is missing)", file=sys.stderr)
            return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    queries = workloads.generate(args.workload, args.seed)
    for query in queries:
        # Without --bound, an instantiation space of (B+1)^|X| tuples with B
        # in the thousands is built and sorted in memory.
        if "--bound" not in query["args"]:
            raise ValueError(f"query without an explicit --bound: {query}")
    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "queries.jsonl"), "w",
              encoding="utf-8") as handle:
        handle.writelines(json.dumps(q) + "\n" for q in queries)

    hash_seed = workloads.hash_seed(args.workload, args.seed)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    _generator, timed, traced = workloads.WORKLOADS[args.workload]
    count = timed if args.trace == "0" else traced
    subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), workdir,
         str(args.seconds), args.trace, str(QUERY_LIMIT_S), str(count)],
        env=env, check=True, timeout=WORKER_LIMIT_S)
    with open(os.path.join(workdir, "results.json"), encoding="utf-8") as f:
        report = json.load(f)

    # The gate runs here, in the parent, outside the timed span.
    sys.path.insert(0, src)
    from flatmc import cli

    expected: dict = {}
    failures = []
    for result in report["results"]:
        query = queries[result["id"]]
        if result["id"] not in expected:
            expected[result["id"]] = workloads.expected_present(query)
        reason = judge(cli, result, query, expected[result["id"]])
        if reason is not None:
            failures.append((result["id"], reason))
    # Keep the record of the run, drop the per-query files.
    for name in os.listdir(workdir):
        if name not in ("results.json", "spans.json"):
            os.remove(os.path.join(workdir, name))
    attempted = len(report["results"])
    for query_id, reason in failures[:5]:
        print(f"failed query {query_id}: {reason}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed,
            "pythonhashseed": hash_seed,
            "inputs_digest": workloads.digest(queries),
            "distinct": len(expected),
            "oracle_present": sum(v is True for v in expected.values()),
            "oracle_absent": sum(v is False for v in expected.values()),
            "failed_ratio": len(failures) / attempted}
    if args.trace == "0":
        results = report["results"]
        cost = costs(results)
        times = [r["seconds"] for r in results]
        values = {
            "query_mean_ref": statistics.fmean(cost),
            "query_p50_ref": statistics.median(cost),
            "query_p90_ref": percentile(cost, TAIL_PCT),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(report["setup_s"]),
        }
        info.update(
            wall_s=report["wall_s"],
            reference_ms=statistics.median(
                r["reference_s"] for r in results) * 1e3,
            queries_per_s=len(results) / report["wall_s"],
            query_p50_ms=statistics.median(times) * 1e3,
            query_p90_ms=percentile(times, TAIL_PCT) * 1e3,
            samples=len(results), setup_samples=len(report["setup_s"]))
        if tail(cost) is not None:
            info.update(tail_percentile=tail(cost)[0],
                        query_tail_ref=tail(cost)[1],
                        query_tail_ms=tail(times)[1] * 1e3)
        wanted = spec["end_to_end"]
    else:
        values = report["layers"]
        wanted = spec["per_layer"]
    info.update(values)
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
