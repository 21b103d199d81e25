"""Steadiness check: run one workload repeatedly and compare spreads to the bounds.

    python3 bench/steady.py --workload query_mix --runs 10 [--seed0 1] [--seconds S]

Each run is `bench/run.py` with the next seed.  For every end-to-end metric
the command prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median, and the metric's bound from BENCHMARK.json, with a verdict: "ok"
below a third of the bound, "within bound", or "TOO NOISY".  It also
prints the share of failed requests of every run, which must be the same
in all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("run failed (seed %d):\n%s" % (seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bench):
    """Lines of the steadiness table for a list of run results."""
    lines = ["%-14s %-6s %12s %12s %12s %8s %6s  %s"
             % ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")]
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in results]
        units = {r["metrics"][name]["unit"] for r in results}
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= spec["bound"] / 3 else (
            "within bound" if spread <= spec["bound"] else "TOO NOISY")
        lines.append("%-14s %-6s %12.6g %12.6g %12.6g %8.4f %6.3g  %s"
                     % (name, "/".join(sorted(units)), med, q1, q3, spread,
                        spec["bound"], verdict))
    shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results})
    lines.append("failed/attempted per run: %s%s" % (
        ", ".join(shares), "" if len({r["failed"] / r["attempted"] for r in results}) == 1
        else "  (NOT THE SAME SHARE)"))
    return lines


def main(argv=None):
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    results = []
    for k in range(args.runs):
        r = one_run(args.workload, args.seed0 + k, args.seconds)
        results.append(r)
        print("seed %d: %s" % (args.seed0 + k, json.dumps(
            {n: round(m["value"], 6) for n, m in r["metrics"].items()})), flush=True)
    print("\n".join(summarize(results, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
