"""One measured process of the qsphere benchmark.

run.py starts this file in a fresh interpreter for every process it
measures, with the job as JSON on standard input:

    {"job": "setup" | "request", "workload": ..., "seed": ..., "seconds": ...,
     "trace": bool, "trace_path": str or null, "index": int}

A setup job imports qsphere, generates the workload's inputs and exits.  A
request job also runs the workload's requests; it stamps the end of the
timed phase with time.monotonic() (system-wide on Linux, so run.py can
subtract its own spawn stamp), records its peak RSS, and only then checks
the answers.  In query_mix it times the host-speed loop (bench/hostspeed.py)
before each request and after the last.  The last line of standard output
is one JSON object.
"""

import contextlib
import io
import json
import resource
import sys
import time

import checks
import hostspeed
import plan

_clock = time.perf_counter


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _exact_zero(x):
    return not any(x.num)


# ---------------------------------------------------------------------------
# freeness: the program's report, and the same system rebuilt mod P

def freeness_system(pres, degree=2, coeff_degree=3):
    """Columns d(b_i) m and targets d(m), as {(gamma index, monomial): value} maps.

    Built from the public presentation API the way the certificate states
    it: right combinations of the d(b_i) with coefficient monomials of
    degree <= coeff_degree, against d of every monomial of degree <= degree.
    """
    from qsphere.scalars import ONE
    alg = pres.alg

    def vec(coords):
        return {(j, m): v for j, x in enumerate(coords) for m, v in x.terms.items() if v}

    d_basis = [pres.d(b) for b in pres.W_basis]
    columns = [vec(pres.rmult(db, alg.element({m: ONE})))
               for db in d_basis for m in alg.normal_monomials(coeff_degree)]
    targets = [vec(pres.d(alg.element({m: ONE})))
               for m in alg.normal_monomials(degree) if m]
    return columns, targets


def rank_of_vectors(vectors, t0):
    """Rank mod P of sparse Q(t) vectors given as {key: value} maps."""
    keys = sorted({k for v in vectors for k in v}, key=repr)
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [0] * len(keys)
        for k, x in v.items():
            row[index[k]] = checks.ratfunc_at(x, t0)
        rows.append(row)
    return checks.rank_mod(rows)


def freeness_problems(report, n, columns, targets, t0):
    problems = []
    unknowns = (2 * n + 1) * 16          # N gamma's times 16 monomials of degree <= 3
    if report.get("pass") is not True:
        problems.append("freeness report does not pass")
    if report.get("ungenerated"):
        problems.append("ungenerated targets %s" % report["ungenerated"])
    if not report.get("unknowns") == report.get("rank") == unknowns:
        problems.append("unknowns %s, rank %s, expected %d"
                        % (report.get("unknowns"), report.get("rank"), unknowns))
    if report.get("degree") != 2 or report.get("coeff_degree") != 3:
        problems.append("bounds degree=%s coeff_degree=%s, expected 2 and 3"
                        % (report.get("degree"), report.get("coeff_degree")))
    if len(columns) != unknowns:
        problems.append("rebuilt system has %d unknowns" % len(columns))
    rank_a = rank_of_vectors(columns, t0)
    if rank_a != unknowns:
        problems.append("rank mod P %d, not full column rank %d" % (rank_a, unknowns))
    rank_ab = rank_of_vectors(columns + targets, t0)
    if rank_ab != rank_a:
        problems.append("rank mod P of [A|B] is %d, of A %d" % (rank_ab, rank_a))
    return problems


def run_freeness(n):
    from qsphere import fodc
    from qsphere.scalars import CParam
    from qsphere.dualfunc import DualEngine
    c = CParam.generic(1)
    pres = fodc.build_rform_calculus(n, "id", c, engine=DualEngine(c))
    return pres, fodc.verify_freeness(pres, 2)


def check_freeness(result, n, seed):
    pres, report = result
    t0 = checks.pick_t0(seed, "freeness/%d" % n)
    columns, targets = freeness_system(pres)
    return freeness_problems(report, n, columns, targets, t0)


# ---------------------------------------------------------------------------
# rform_eval: the rest of AC-8

def _cparam(spec):
    from qsphere.scalars import CParam
    return CParam.infinity() if spec == "inf" else CParam.generic(int(spec[2:]))


def run_rform(parts):
    """chi, chibar, the calculus, Leibniz, d(1) and n=1 freeness, as AC-8 runs them."""
    from qsphere import fodc
    from qsphere.dualfunc import DualEngine
    engines = {}
    out = []
    for nu, cspec, n in parts:
        c = _cparam(cspec)
        eng = engines.setdefault(cspec, DualEngine(c))
        r = {"part": [nu, cspec, n], "chi": fodc.chi_functionals(n, nu, c, engine=eng)}
        if nu == "id":
            r["chibar"] = fodc.chibar_report(n, c, engine=eng)
        pres = fodc.build_rform_calculus(n, nu, c, engine=eng)
        r["pres"] = pres
        r["leibniz"] = pres.leibniz_report(4 if nu == "id" else 3)
        if nu == "id" and n == 1:
            r["freeness"] = fodc.verify_freeness(pres, 2)
        if nu == "id":
            r["d1_zero"] = pres.is_zero_coords(pres.d(eng.alg.unit()))
        out.append(r)
    return out


def chi_problems(chi, n, t0):
    """The chi rows and the module rows span the same (2n+1)-space; chi(1) = 0."""
    dim = 2 * n + 1
    problems = []

    def rank(rows):
        return checks.rank_mod([[checks.ratfunc_at(x, t0) for x in row] for row in rows])

    ranks = (rank(chi["chi_rows"]), rank(chi["module_rows"]),
             rank(chi["chi_rows"] + chi["module_rows"]))
    if ranks != (dim, dim, dim):
        problems.append("ranks mod P (chi, module, joint) = %s, expected %d" % (ranks, dim))
    unit = chi["monomials"].index(())
    if not all(_exact_zero(row[unit]) for row in chi["chi_rows"]):
        problems.append("a chi row does not vanish at 1")
    if chi.get("spans_equal") is not True:
        problems.append("report says the spans differ")
    return problems


def _element(alg, terms, monos):
    from qsphere.scalars import RatFunc
    return alg.element({monos[i]: RatFunc.from_int(k) for k, i in terms})


def calculus_problems(pres, n, sample):
    """Dimension 2n+1, and the Leibniz rule on seeded non-monomial elements."""
    problems = []
    if pres.N != 2 * n + 1 or len(pres.W_basis) != 2 * n + 1:
        problems.append("calculus dimension %d, expected %d" % (pres.N, 2 * n + 1))
    monos = [m for m in pres.alg.normal_monomials(2) if m]
    if len(monos) != 8:
        return problems + ["expected 8 normal monomials of degree 1..2, got %d" % len(monos)]
    bad = 0
    for xt, yt in sample:
        x, y = _element(pres.alg, xt, monos), _element(pres.alg, yt, monos)
        lhs = pres.d(x * y)
        rhs = [u + v for u, v in zip(pres.lmult(x, pres.d(y)), pres.rmult(pres.d(x), y))]
        if len(lhs) != len(rhs) or not all((u - v).is_zero() for u, v in zip(lhs, rhs)):
            bad += 1
    if bad:
        problems.append("Leibniz rule fails on %d of %d sampled pairs" % (bad, len(sample)))
    return problems


def check_rform(results, inputs, seed):
    problems = []
    for r in results:
        nu, cspec, n = r["part"]
        key = "%s/%s/%d" % (nu, cspec, n)
        t0 = checks.pick_t0(seed, "rform/" + key)
        sub = chi_problems(r["chi"], n, t0)
        sub += calculus_problems(r["pres"], n, inputs["leibniz"][key])
        if r["leibniz"].get("pass") is not True:
            sub.append("Leibniz report does not pass")
        if "chibar" in r and r["chibar"].get("pass") is not True:
            sub.append("chibar report does not pass")
        if "d1_zero" in r and r["d1_zero"] is not True:
            sub.append("d(1) is not zero")
        if "freeness" in r:
            columns, targets = freeness_system(r["pres"])
            sub += freeness_problems(r["freeness"], n, columns, targets, t0)
        problems += ["%s: %s" % (key, p) for p in sub]
    return problems


# ---------------------------------------------------------------------------
# query_mix: in-process CLI requests

def run_query(spec):
    """One CLI request; returns (exit code or None, stdout, stderr, error)."""
    from qsphere import cli
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(plan.cli_argv(spec))
        except SystemExit as e:          # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:           # counted as a failed request
            error = "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), err.getvalue(), error


def check_query(spec, outcome, t0):
    """(raised, problems): raised covers exceptions and nonzero exits."""
    code, out, err, error = outcome
    if error:
        return True, [error]
    if code != 0:
        return True, ["exit code %r: %s" % (code, err.strip()[-200:])]
    return False, checks.check_cli_request(spec, out, t0)


# ---------------------------------------------------------------------------

def _import_program():
    import qsphere.cli                   # noqa: F401  (imports every layer)


def do_request(job, inputs, tracer):
    """Run the job's requests.

    Returns the timed results, per-request seconds, the wall time and, for
    query_mix, the host-speed loop times taken before each request and
    after the last.
    """
    wl = job["workload"]
    results, times, loops = [], [], []

    def call(i, fn, *args):
        if tracer is not None:
            return tracer.run_request(i, fn, *args)
        return fn(*args)

    start = _clock()
    if wl == "query_mix":
        for i, spec in enumerate(inputs["queries"]):
            loops.append(hostspeed.loop_s())
            t = _clock()
            results.append(("ok", call(i, run_query, spec)))
            times.append(_clock() - t)
        loops.append(hostspeed.loop_s())
    else:
        fn, arg = ((run_freeness, inputs["n"]) if wl == "freeness_n2"
                   else (run_rform, inputs["parts"]))
        try:
            results.append(("ok", call(job["index"], fn, arg)))
        except Exception as e:           # counted as a failed request
            results.append(("error", "%s: %s" % (type(e).__name__, e)))
        times.append(_clock() - start)
    return results, times, _clock() - start, loops


def check_results(job, inputs, results):
    """Per-request outcome, computed after the timed phase.

    "ok", "raised" (an exception or a nonzero exit) or "wrong" (an answer
    that failed its check), with the problems found.
    """
    wl, seed = job["workload"], job["seed"]
    out = []
    for i, (status, value) in enumerate(results):
        try:
            if status == "error":
                raised, problems = True, [value]
            elif wl == "freeness_n2":
                raised, problems = False, check_freeness(value, inputs["n"], seed)
            elif wl == "rform_eval":
                raised, problems = False, check_rform(value, inputs, seed)
            else:
                t0 = checks.pick_t0(seed, "query/%d" % i)
                raised, problems = check_query(inputs["queries"][i], value, t0)
        except Exception as e:           # an answer the check cannot read is wrong
            raised, problems = False, ["check raised %s: %s" % (type(e).__name__, e)]
        status = "raised" if raised else ("wrong" if problems else "ok")
        out.append({"status": status, "problems": problems})
    return out


def main():
    job = json.loads(sys.stdin.read())
    _import_program()
    inputs = plan.inputs(job["workload"], job["seed"], job["seconds"])
    if job["job"] == "setup":
        print(json.dumps({"setup": True}))
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results, times, wall, loops = do_request(job, inputs, tracer)
    t_done = time.monotonic()
    rss_kb = _peak_rss_kb()
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    print(json.dumps({
        "t_done": t_done, "rss_kb": rss_kb, "wall_s": wall, "request_s": times,
        "loops_s": loops,
        "outcomes": check_results(job, inputs, results), "trace": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
