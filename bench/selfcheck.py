"""The benchmark's own tests (about a minute).

    python3 bench/selfcheck.py          # from the root of the repository

They feed a wrong answer to every check and expect it counted as failed,
trace a few requests in-process (also with an entry point missing), check
that the per-layer and steadiness tables carry the metric names and units
of BENCHMARK.json, and that the benchmark refuses to run without sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import checks        # noqa: E402
import hostspeed     # noqa: E402
import plan          # noqa: E402
import run           # noqa: E402
import steady        # noqa: E402
import tracer        # noqa: E402
import worker        # noqa: E402

SEED = 5


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _failed(workload, inputs, results):
    job = {"workload": workload, "seed": SEED}
    return sum(o["status"] != "ok" for o in worker.check_results(job, inputs, results))


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + list(args),
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class QueryChecks(unittest.TestCase):
    """Each query check rejects a wrong answer; raises and nonzero exits fail."""

    @classmethod
    def setUpClass(cls):
        # one real request of every command
        specs = [
            {"cmd": "classify", "c": "exc:1", "lmax": 3},
            {"cmd": "eigenvalues", "c": "exc:1", "l": 3, "sign": "-"},
            {"cmd": "tangent-space", "c": "inf", "components": [[-1, 0], [1, 2]]},
            {"cmd": "de-generated", "c": "inf"},
            {"cmd": "mu-rep", "n": 3, "via_cn": True},
            {"cmd": "build-fodc", "c": "s=1", "n": 1, "nu": "id", "freeness": True},
        ]
        cls.inputs = {"queries": specs}
        cls.results = [("ok", worker.run_query(s)) for s in specs]

    def corrupted(self, cmd, mutate):
        """Failed count after mutating the parsed report of the command's request."""
        results = copy.deepcopy(self.results)
        i = next(k for k, s in enumerate(self.inputs["queries"]) if s["cmd"] == cmd)
        code, out, err, error = results[i][1]
        doc = json.loads(out)
        mutate(doc)
        results[i] = ("ok", (code, json.dumps(doc, indent=2, sort_keys=True), err, error))
        return _failed("query_mix", self.inputs, results)

    def test_real_answers_pass(self):
        self.assertEqual(_failed("query_mix", self.inputs, self.results), 0)

    def test_wrong_answers_fail(self):
        def drop_component(d):
            d["components"].pop()

        def flip_kernel(d):
            d["kernel_dim"] = 0 if d["kernel_dim"] else 1

        def bump(key):
            return lambda d: d.__setitem__(key, d[key] + 1)

        def drop_pair(d):
            d["pairs"].pop()

        def break_matrix(d):
            d["matrices"]["A"][0][0] += " + 1"

        def fail_cert(d):
            d["certificates"][0]["pass"] = False

        def wrong_dim(d):
            d["components"][-1]["dim_calculus"] += 1

        cases = [("classify", drop_component), ("classify", wrong_dim),
                 ("eigenvalues", flip_kernel), ("eigenvalues", drop_pair),
                 ("eigenvalues", bump("zero_root_multiplicity")),
                 ("tangent-space", bump("dim_calculus")), ("de-generated", bump("count")),
                 ("mu-rep", break_matrix), ("build-fodc", bump("dim")),
                 ("build-fodc", fail_cert)]
        for cmd, mutate in cases:
            with self.subTest(cmd=cmd, mutation=mutate.__name__):
                self.assertEqual(self.corrupted(cmd, mutate), 1)

    def test_non_round_trip_fails(self):
        results = copy.deepcopy(self.results)
        code, out, err, error = results[3][1]
        results[3] = ("ok", (code, json.dumps(json.loads(out)), err, error))
        self.assertEqual(_failed("query_mix", self.inputs, results), 1)

    def test_nonzero_exit_and_raise_fail(self):
        results = copy.deepcopy(self.results)
        results[0] = ("ok", (1,) + results[0][1][1:])
        results[1] = ("ok", (None, "", "", "AssertionError: route mismatch"))
        job = {"workload": "query_mix", "seed": SEED}
        outcomes = worker.check_results(job, self.inputs, results)
        self.assertEqual([o["status"] for o in outcomes[:2]], ["raised", "raised"])

    def test_argparse_exit_is_caught_and_fails(self):
        spec = {"cmd": "tangent-space", "c": "inf", "components": [[-1, 0], [1, 2]]}
        bad = ["--format", "json", "tangent-space", "--c", "inf", "--components", "-0,+2"]
        with mock.patch.object(plan, "cli_argv", return_value=bad):
            outcome = worker.run_query(spec)
        self.assertEqual(outcome[0], 2)
        self.assertEqual(_failed("query_mix", {"queries": [spec]}, [("ok", outcome)]), 1)

    def test_mu_rep_relations_need_the_right_c(self):
        t0 = checks.pick_t0(SEED)
        doc = json.loads(self.results[4][1][1])
        self.assertEqual(checks.mu_rep_problems(3, doc["matrices"], t0), [])
        self.assertNotEqual(checks.mu_rep_problems(2, doc["matrices"], t0), [])


class FreenessChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = {"n": 1}
        cls.pres, cls.report = worker.run_freeness(1)

    def failed_with(self, report=None, columns=None, targets=None):
        real_columns, real_targets = worker.freeness_system(self.pres)
        t0 = checks.pick_t0(SEED)
        return bool(worker.freeness_problems(
            report or self.report, 1, real_columns if columns is None else columns,
            real_targets if targets is None else targets, t0))

    def test_real_answer_passes(self):
        self.assertEqual(_failed("freeness_n2", self.inputs, [("ok", (self.pres, self.report))]), 0)

    def test_wrong_reports_fail(self):
        for key, value in (("rank", 47), ("coeff_degree", 2), ("ungenerated", [("A",)]),
                           ("pass", False), ("unknowns", 47)):
            with self.subTest(key=key):
                self.assertTrue(self.failed_with(report=dict(self.report, **{key: value})))

    def test_rank_deficient_system_fails(self):
        columns, _ = worker.freeness_system(self.pres)
        self.assertTrue(self.failed_with(columns=columns[:-1] + [columns[0]]))

    def test_inconsistent_target_fails(self):
        _, targets = worker.freeness_system(self.pres)
        stray = {("stray", ()): next(iter(targets[0].values()))}
        self.assertTrue(self.failed_with(targets=targets + [stray]))


class RformChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = plan.inputs("rform_eval", SEED, 1)
        cls.results = worker.run_rform(cls.inputs["parts"])

    def failed_after(self, mutate):
        results = [dict(r) for r in self.results]
        mutate(results[0])
        return _failed("rform_eval", self.inputs, [("ok", results)])

    def test_real_answer_passes(self):
        self.assertEqual(self.failed_after(lambda r: None), 0)

    def test_wrong_answers_fail(self):
        from qsphere.scalars import ONE

        def dup_chi_row(r):
            chi = dict(r["chi"])
            chi["chi_rows"] = [chi["chi_rows"][0]] + chi["chi_rows"][:-1]
            r["chi"] = chi

        def chi_at_unit(r):
            chi = dict(r["chi"])
            unit = chi["monomials"].index(())
            row = list(chi["chi_rows"][0])
            row[unit] = ONE
            chi["chi_rows"] = [row] + chi["chi_rows"][1:]
            r["chi"] = chi

        def wrong_dimension(r):
            pres = copy.copy(r["pres"])
            pres.N += 1
            r["pres"] = pres

        def broken_twist(r):
            # a left action that is not compatible with the product breaks Leibniz
            pres = copy.copy(r["pres"])
            lmult = r["pres"].lmult
            pres.lmult = lambda a, coords: [u + u for u in lmult(a, coords)]
            r["pres"] = pres

        def failed_report(key):
            def mutate(r):
                r[key] = dict(r[key], **{"pass": False})
            mutate.__name__ = "failed_" + key
            return mutate

        def d1_nonzero(r):
            r["d1_zero"] = False

        for mutate in (dup_chi_row, chi_at_unit, wrong_dimension, broken_twist,
                       failed_report("leibniz"), failed_report("chibar"),
                       failed_report("freeness"), d1_nonzero):
            with self.subTest(mutation=mutate.__name__):
                self.assertEqual(self.failed_after(mutate), 1)


class Tracing(unittest.TestCase):
    def test_traced_requests_give_every_per_layer_metric(self):
        inputs = {"queries": [
            {"cmd": "tangent-space", "c": "inf", "components": [[-1, 0], [1, 2]]},
            {"cmd": "eigenvalues", "c": "exc:1", "l": 1, "sign": "-"},
            {"cmd": "build-fodc", "c": "s=1", "n": 1, "nu": "id", "freeness": True},
        ]}
        tr = tracer.Tracer()
        tr.install()
        try:
            results, _, _, _ = worker.do_request({"workload": "query_mix"}, inputs, tr)
        finally:
            tr.uninstall()
        self.assertEqual(_failed("query_mix", inputs, results), 0)
        self.assertEqual(tr.summary()["missing"], [])
        metrics = run.per_layer_metrics([tr.summary()], 0.5)
        want = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)
        values = {k: v["value"] for k, v in metrics.items()}
        self.assertTrue(all(isinstance(v, (int, float)) for v in values.values()), values)
        self.assertGreater(values["cli.admissibility_self_s"], 0)
        self.assertGreater(values["scalars.ops"], 0)
        self.assertGreater(values["linalg.solve_calls"], 0)

    def test_missing_entry_point_is_unmeasured(self):
        from qsphere import linalg
        original = linalg.rank
        tr = tracer.Tracer(tracer.ENTRY_POINTS
                           + (("linalg.rank", "qsphere.linalg", "no_such_function", True),))
        tr.install()
        try:
            tr.run_request(0, worker.run_freeness, 1)
        finally:
            tr.uninstall()
        self.assertIs(linalg.rank, original)
        summary = tr.summary()
        self.assertIn("qsphere.linalg:no_such_function", summary["missing"])
        self.assertIsNone(summary["calls"]["linalg.rank"])
        self.assertIsNone(summary["max_cells"])
        self.assertGreater(summary["calls"]["linalg.solve"], 0)
        merged = run.merge_summaries([summary])
        self.assertIsNone(merged["linalg.rank_calls"])
        self.assertIsNotNone(merged["linalg.solve_calls"])


class Declarations(unittest.TestCase):
    def test_run_matches_benchmark_json(self):
        bench = _bench()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(plan.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER] + [("trace.overhead_s", "s")])

    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics = run.end_to_end_metrics([0.5, 0.7], 1.2, [0.2, 0.1], 2048)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         {m["name"]: m["unit"] for m in _bench()["end_to_end"]})
        self.assertEqual(metrics["setup_s"]["value"], 0.1)
        # nearest-rank: the median of two is the faster; there is no tail
        self.assertEqual(metrics["req_p50_s"]["value"], 0.5)
        self.assertEqual(metrics["req_p90_s"]["value"], 0.5)
        times = [k / 100 for k in range(100, 0, -1)]
        metrics = run.end_to_end_metrics(times, 1.2, [0.2], 2048)
        self.assertEqual(metrics["req_p90_s"]["value"], 0.9)
        self.assertEqual(metrics["req_p50_s"]["value"], 0.5)

    def test_times_scale_to_the_reference_speed(self):
        ref = hostspeed.REF_LOOP_S
        self.assertAlmostEqual(hostspeed.to_reference(3.0, [ref, ref]), 3.0)
        # a host at half speed: the loop and the work both take twice as long
        self.assertAlmostEqual(hostspeed.to_reference(6.0, [2 * ref, 2 * ref]), 3.0)
        self.assertGreater(hostspeed.loop_s(), 0)

    def test_steady_prints_benchmark_names_and_units(self):
        bench = _bench()

        def result(k, setup_s):
            metrics = {m["name"]: {"value": 1.0 + 0.01 * k, "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            metrics["setup_s"]["value"] = setup_s
            return {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}

        # steady set-up times, then set-up times far too noisy for any bound
        for setups, verdict in (([0.1] * 5, "ok"), ([0.1, 0.2, 0.1, 0.2, 0.1], "TOO NOISY")):
            lines = steady.summarize([result(k, v) for k, v in enumerate(setups)], bench)
            rows = [line for line in lines[1:] if not line.startswith("failed")]
            self.assertEqual([r.split()[:2] for r in rows],
                             [[m["name"], m["unit"]] for m in bench["end_to_end"]])
            setup_row = next(r for r in rows if r.startswith("setup_s "))
            self.assertTrue(setup_row.endswith("  " + verdict), setup_row)
            self.assertTrue(lines[-1].startswith("failed/attempted per run: 0/4"))

    def test_refuses_to_run_without_sources(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _run_bench("--workload", "query_mix", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
