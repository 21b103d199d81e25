"""The qsphere benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload {freeness_n2,rform_eval,query_mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured process is a fresh
interpreter (bench/worker.py) with PYTHONPATH=src and a fixed hash seed;
this process never imports qsphere.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
plus the tracing overhead against an untraced run of the same work.  Every
end-to-end time is in reference seconds (bench/hostspeed.py): scaled by
the host's speed, read from a fixed loop timed next to it.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A request fails if it raises, exits nonzero or fails its check; "correct"
is false when an answer that did not fail otherwise was wrong.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import hostspeed
import plan

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# setup_s is the median of SETUP_STARTS fresh set-up starts, spread in equal
# groups over the gaps before, between and after the measured processes and
# paced SETUP_PAUSE_S apart, so that a run samples several phases of the host
SETUP_STARTS = 12
SETUP_PAUSE_S = 0.3
# a run must end within 180 s: every child is killed past this point of the run
RUN_LIMIT_S = 175

END_TO_END = (
    ("wall_s", "s"), ("req_p50_s", "s"), ("req_p90_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# (metric, unit, source in the tracer summary)
PER_LAYER = (
    ("scalars.ops", "count", ("scalars", "ops")),
    ("scalars.normalize_calls", "count", ("scalars", "normalize_calls")),
    ("scalars.self_s", "s", ("scalars", "self_s")),
    ("scalars.max_degree", "count", ("scalars", "max_degree")),
    ("rewrite.calls", "count", ("calls", "rewrite")),
    ("rewrite.self_s", "s", ("self_s", "rewrite")),
    ("eval.rform_calls", "count", ("calls", "eval.rform")),
    ("eval.rform_self_s", "s", ("self_s", "eval.rform")),
    ("eval.functional_calls", "count", ("calls", "eval.functional")),
    ("eval.functional_self_s", "s", ("self_s", "eval.functional")),
    ("linalg.solve_calls", "count", ("calls", "linalg.solve")),
    ("linalg.solve_self_s", "s", ("self_s", "linalg.solve")),
    ("linalg.rank_calls", "count", ("calls", "linalg.rank")),
    ("linalg.rank_self_s", "s", ("self_s", "linalg.rank")),
    ("linalg.max_cells", "count", ("max_cells",)),
    ("fodc.verify_freeness_self_s", "s", ("self_s", "fodc.verify_freeness")),
    ("fodc.leibniz_report_self_s", "s", ("self_s", "fodc.leibniz_report")),
    ("fodc.chi_functionals_self_s", "s", ("self_s", "fodc.chi_functionals")),
    ("fodc.tangent_space_self_s", "s", ("self_s", "fodc.tangent_space")),
    ("fodc.irreducibility_self_s", "s", ("self_s", "fodc.irreducibility")),
    ("dualfunc.operators_self_s", "s", ("self_s", "dualfunc.operators")),
    ("dualfunc.scan_weights_self_s", "s", ("self_s", "dualfunc.scan_weights")),
    ("uqsl2rep.self_s", "s", ("self_s", "uqsl2rep")),
    ("cli.admissibility_self_s", "s", ("self_s", "cli.admissibility")),
    ("cli.emit_self_s", "s", ("self_s", "cli.emit")),
)
MAX_METRICS = ("scalars.max_degree", "linalg.max_cells")


class Run:
    """Deadline and child bookkeeping of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")

    def child(self, job, beside=False):
        """Start a fresh worker and wait for it.

        Returns (spawn stamp, end stamp, result, loop times); with `beside`,
        the host-speed loop runs here, on the other CPU, while the worker
        runs.
        """
        job = dict(job, workload=self.args.workload, seed=self.args.seed,
                   seconds=self.args.seconds)
        loops = []
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
                tempfile.TemporaryFile(dir=OUT_DIR) as err:
            spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                                    stdin=subprocess.PIPE, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
            # a worker still running at the deadline is killed, and fails
            timer = threading.Timer(max(0.0, self.deadline - spawn), proc.kill)
            timer.start()
            try:
                while beside and proc.poll() is None:
                    loops.append(hostspeed.loop_s())
                    time.sleep(hostspeed.BESIDE_PAUSE_S)
                proc.wait()
            finally:
                timer.cancel()
            end = time.monotonic()
            out.seek(0)
            err.seek(0)
            lines = out.read().decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(err.read().decode()[-2000:])
                return spawn, end, None, loops
        return spawn, end, json.loads(lines[-1]), loops

    def setup_group(self, starts, times):
        """Time `starts` fresh set-up starts into `times`, in reference seconds."""
        for _ in range(starts):
            time.sleep(SETUP_PAUSE_S)
            before = hostspeed.loop_s()
            spawn, end, res, _ = self.child({"job": "setup"})
            if res is None:
                raise SystemExit("set-up start failed")
            times.append(hostspeed.to_reference(end - spawn, [before, hostspeed.loop_s()]))

    def measure(self, trace, setup_times=None):
        """The workload's measured processes, one after the other.

        Returns request seconds, outcomes, the timed phase's wall time (all
        in reference seconds), the peak RSS in kB and the tracer summaries.
        Given a list, set-up starts are timed into it around the measured
        processes.
        """
        wl = self.args.workload
        inputs = plan.inputs(wl, self.args.seed, self.args.seconds)
        # requests per measured process
        per_child = len(inputs["queries"]) if wl == "query_mix" else 1
        n_children = inputs["processes"]
        group = -(-SETUP_STARTS // (n_children + 1))
        request_s, outcomes, summaries, wall, rss = [], [], [], 0.0, 0
        passes = []                     # query_mix: (request seconds, their sum)
        for i in range(n_children):
            if setup_times is not None:
                self.setup_group(group, setup_times)
            trace_path = None
            if trace:
                trace_path = os.path.join(OUT_DIR, "trace-%s-seed%s-%d.json"
                                          % (wl, self.args.seed, i))
            spawn, _, res, beside = self.child(
                {"job": "request", "trace": trace, "trace_path": trace_path, "index": i},
                beside=wl != "query_mix")
            if res is None:
                # every request the process was to make counts as failed
                outcomes.extend({"status": "raised", "problems": ["worker failed"]}
                                for _ in range(per_child))
                continue
            outcomes.extend(res["outcomes"])
            rss = max(rss, res["rss_kb"])
            if res["trace"] is not None:
                summaries.append(res["trace"])
            if wl == "query_mix":
                # each request between the loops timed just before and after it
                loops = res["loops_s"]
                times = [hostspeed.to_reference(t, loops[k:k + 2])
                         for k, t in enumerate(res["request_s"])]
                passes.append((times, sum(times)))
            else:
                # a fresh interpreter per request: the time a user waits
                t = hostspeed.to_reference(res["t_done"] - spawn, beside,
                                           hostspeed.REF_BESIDE_S)
                request_s.append(t)
                wall += t
        if setup_times is not None:
            self.setup_group(group, setup_times)
        if passes:
            # the passes make the same requests: a request's time is its
            # faster one, the timed phase the faster pass's sum of request times
            request_s = [min(ts) for ts in zip(*(p[0] for p in passes))]
            wall = min(p[1] for p in passes)
        return request_s, outcomes, wall, rss, summaries


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def merge_summaries(summaries):
    """Sum counts and times over the traced processes; max of the maxima."""
    out = {}
    for name, _, source in PER_LAYER:
        vals = []
        for s in summaries:
            v = s
            for key in source:
                v = v.get(key) if isinstance(v, dict) else None
            vals.append(v)
        if not vals or any(v is None for v in vals):
            out[name] = None
        else:
            out[name] = max(vals) if name in MAX_METRICS else sum(vals)
    return out


def end_to_end_metrics(request_s, wall, setup_times, rss_kb):
    """The end-to-end metrics of an untraced run, with their units.

    Every metric is printed on every workload, so that all workloads share
    one metric list.  Both percentiles are nearest-rank, so the median of
    two requests is the faster one.  The 90th percentile is a tail only
    with at least ten request times beyond it; with fewer, req_p90_s
    repeats the median.
    """
    p50 = percentile(request_s, 0.5) if request_s else None
    tail = len(request_s) - math.ceil(0.9 * len(request_s)) >= 10
    values = {
        "wall_s": wall, "req_p50_s": p50,
        "req_p90_s": percentile(request_s, 0.9) if tail else p50,
        "setup_s": percentile(setup_times, 0.5), "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(summaries, overhead_s):
    """The per-layer metrics of a traced run, with their units."""
    values = merge_summaries(summaries)
    out = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def tally(outcomes):
    failed = sum(o["status"] != "ok" for o in outcomes)
    correct = not any(o["status"] == "wrong" for o in outcomes)
    for i, o in enumerate(outcomes):
        if o["status"] != "ok":
            sys.stderr.write("request %d %s: %s\n" % (i, o["status"], "; ".join(o["problems"])))
    return correct, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsphere", "__init__.py")):
        sys.stderr.write("bench: no qsphere sources under %s/src\n" % ROOT)
        return 2

    run = Run(args)
    if not args.trace:
        setup_times = []
        request_s, outcomes, wall, rss, _ = run.measure(False, setup_times)
        correct, failed = tally(outcomes)
        metrics = end_to_end_metrics(request_s, wall, setup_times, rss)
    else:
        run.child({"job": "setup"})      # compiles the sources once, outside both passes
        _, ref_outcomes, ref_wall, _, _ = run.measure(trace=False)
        _, outcomes, wall, _, summaries = run.measure(trace=True)
        outcomes = ref_outcomes + outcomes
        correct, failed = tally(outcomes)
        metrics = per_layer_metrics(summaries, wall - ref_wall)
        missing = sorted({m for s in summaries for m in s["missing"]})
        if missing:
            print("unmeasured: entry points missing: %s" % ", ".join(missing))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
