"""Batch command-line interface.

Commands: selftest, classify, eigenvalues, tangent-space, build-fodc,
de-generated, mu-rep.  Reports are emitted as qsphere-report/1 JSON or as
plain text tables.  Exit codes: 0 when every certificate in the report
passes, 1 when one fails or the report has none, 2 for a usage or
parameter error (an unknown selftest criterion included), 3 when an
internal cross-check fails (an AssertionError inside the engine).

The parameter c is given as one of
    inf         the c = infinity sphere
    s=<expr>    generic c = s^2 (expr is a q-expression, e.g. s=1/(q-q^-1))
    exc:<r2>    c = (q^r - q^-r)^(-2) with r = r2/2
    cn:<n2>     the exceptional value c(n), n = n2/2 (mu-rep only)
A c of t-degree above scalars.MAX_C_DEGREE (400) is refused before it is
built: s of t-degree above 200, and r2 or n2 above 100.
"""

import argparse
import json
import re
import sys

from .scalars import CParam, check_admissible, check_spec_degree, parse_ratfunc
from . import podles, uqsl2rep, fodc, selftest
from .dualfunc import engine_of


class CnSpec:
    """Marker for cn:<n2>; accepted only where c = c(n) makes sense."""

    def __init__(self, n2):
        self.n2 = n2


def parse_param_spec(text):
    text = text.strip()
    if text == "inf":
        return CParam.infinity()
    if text.startswith("s="):
        s = parse_ratfunc(text[2:])
        check_spec_degree(2 * (max(len(s.num), len(s.den)) - 1))
        return CParam.generic(s)
    if text.startswith("exc:"):
        r2 = int(text[4:])
        if r2 < 1:
            raise ValueError("exc:<r2> needs r2 >= 1")
        check_spec_degree(4 * r2)
        return selftest.c_exc(r2)
    if text.startswith("cn:"):
        n2 = int(text[3:])
        check_spec_degree(4 * n2)
        return CnSpec(n2)
    raise ValueError("cannot parse c-specifier %r" % text)


def _classifiable(cspec):
    if isinstance(cspec, CnSpec):
        raise ValueError("cn: parameters are excluded from classification "
                         "(accepted only by mu-rep)")
    rep = check_admissible(cspec)
    if not rep["admissible"]:
        raise ValueError("c is 0 or an exceptional value c(n); "
                         "classification requires c in J2 \\ {0}")
    return rep


def _sign_l_str(sign, l):
    return "%sq^-%d" % ("+" if sign > 0 else "-", l)


def _report_pass(report):
    """Every certificate passes, and there is at least one."""
    certs = report["certificates"]
    return bool(certs) and all(c.get("pass", False) for c in certs)


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0 if _report_pass(report) else 1


def _print_text(report):
    for cert in report["certificates"]:
        print("[%s] %s" % ("pass" if cert.get("pass") else "FAIL", cert["name"]))
    for line in report.get("lines", []):
        print(line)


# -- commands ---------------------------------------------------------------

def cmd_selftest(args):
    results = selftest.run_all(args.only)
    report = {"schema": "qsphere-report/1", "command": "selftest",
              "certificates": [selftest_certificate(r) for r in results], "lines": []}
    if args.format == "json":
        return _emit(report, args.format)
    for r in results:
        print("%s %s" % (r["criterion"], "PASS" if r["pass"] else "FAIL"))
        if not r["pass"]:
            print("    %s" % (r["details"],))
    return 0 if _report_pass(report) else 1


def selftest_certificate(result):
    """A criterion's result as its entry in the selftest report."""
    return {"name": result["criterion"], "pass": result["pass"],
            "details": _jsonable(result["details"])}


def cmd_classify(args):
    c = parse_param_spec(args.c)
    _classifiable(c)
    scan = engine_of(c).scan_weights(args.lmax)
    lines = ["J^c up to l = %d:" % args.lmax]
    certs = []
    components = []
    for sign, l in scan:
        ts = fodc.tangent_space(c, [(sign, l)])
        dim_calc = ts.dim - 1
        entry = {"component": [sign, l], "lambda": _sign_l_str(sign, l),
                 "dim_calculus": dim_calc}
        certs.append({"name": "closure %s" % entry["lambda"],
                      "pass": ts.certificate["pass"]})
        if (sign, l) != (+1, 0):
            irr = fodc.irreducibility_report(ts)
            entry["irreducible"] = irr["pass"]
            certs.append({"name": "irreducible %s" % entry["lambda"],
                          "pass": irr["pass"]})
            lines.append("  %-8s dim %d  irreducible calculus"
                         % (entry["lambda"], dim_calc))
        else:
            lines.append("  %-8s dim 0  trivial calculus" % entry["lambda"])
        components.append(entry)
    report = {"schema": "qsphere-report/1", "command": "classify",
              "params": {"c": args.c, "lmax": args.lmax},
              "components": components, "certificates": certs, "lines": lines}
    return _emit(report, args.format)


def cmd_eigenvalues(args):
    c = parse_param_spec(args.c)
    _classifiable(c)
    sign = +1 if args.sign == "+" else -1
    pairs, zero_mult, diff = uqsl2rep.charpoly_check(args.l, c, sign)
    kd = uqsl2rep.kernel_dim(args.l, c, sign)
    lines = ["level l = %d, sign %s" % (args.l, args.sign),
             "zero root multiplicity: %d" % zero_mult,
             "kernel dimension: %d" % kd]
    pairs = [{"sum": str(s), "prod": str(p)} for s, p in pairs]
    for i, pr in enumerate(pairs):
        lines.append("pair %d: sum = %s ; prod = %s" % (i + 1, pr["sum"], pr["prod"]))
    report = {"schema": "qsphere-report/1", "command": "eigenvalues",
              "params": {"c": args.c, "l": args.l, "sign": args.sign},
              "pairs": pairs,
              "zero_root_multiplicity": zero_mult,
              "kernel_dim": kd,
              "certificates": [{"name": "charpoly factorization", "pass": not diff}],
              "lines": lines}
    return _emit(report, args.format)


def _parse_components(text):
    """A comma list of components, each one optional sign and digits: +2,4,-0."""
    out = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        m = re.fullmatch(r"([+-]?)([0-9]+)", part)
        if m is None:
            raise ValueError("cannot parse component %r, expected e.g. +2 or -1" % part)
        out.append((-1 if m.group(1) == "-" else +1, int(m.group(2))))
    return out


def cmd_tangent_space(args):
    c = parse_param_spec(args.c)
    _classifiable(c)
    comps = _parse_components(args.components)
    ts = fodc.tangent_space(c, comps)
    certs = [{"name": "counit/coproduct/Xc closure", "pass": ts.certificate["pass"]}]
    lines = ["components: %s" % ", ".join(_sign_l_str(*sl) for sl in ts.components),
             "dim T^eps = %d, calculus dimension %d" % (ts.dim, ts.dim - 1)]
    if len(ts.components) == 1 and ts.components[0] != (+1, 0):
        irr = fodc.irreducibility_report(ts)
        certs.append({"name": "irreducible", "pass": irr["pass"]})
    report = fodc.tangent_space_json(ts)
    report.update(command="tangent-space", certificates=certs, lines=lines,
                  params={"c": args.c, "components": args.components})
    return _emit(report, args.format)


def cmd_build_fodc(args):
    c = parse_param_spec(args.c)
    _classifiable(c)
    pres = fodc.build_rform_calculus(args.n, args.nu, c)
    certs = [{"name": "bimodule and Leibniz in every degree (four rules)",
              "pass": pres.bimodule_report()["pass"]}]
    if args.verify_freeness:
        fr = fodc.verify_freeness(pres, 2)
        certs.append({"name": "freeness (degree 2)", "pass": fr["pass"],
                      "coeff_degree": fr["coeff_degree"], "unknowns": fr["unknowns"],
                      "rank": fr["rank"]})
    report = pres.to_json_dict()
    report["command"] = "build-fodc"
    report["params"] = {"c": args.c, "n": args.n, "nu": args.nu}
    report["certificates"] = certs
    report["lines"] = ["dim = %d, nu = %s" % (pres.N, args.nu)]
    return _emit(report, args.format)


def cmd_de_generated(args):
    c = parse_param_spec(args.c)
    _classifiable(c)
    r = fodc.classify_de_generated(c, Lmax=args.lmax)
    lines = ["calculi generated by the differentials of the generators: %d"
             % r["count"]]
    for e in r["calculi"]:
        lines.append("  components %s  dim %d"
                     % (", ".join(_sign_l_str(*sl) for sl in e["components"]),
                        e["dim"]))
    lines.append("pruned components (dimension beyond the separating bound): %s"
                 % (r["pruned_components"] or "none"))
    report = {"schema": "qsphere-report/1", "command": "de-generated",
              "params": {"c": args.c, "lmax": args.lmax},
              "count": r["count"],
              "calculi": [{"components": [list(sl) for sl in e["components"]],
                           "dim": e["dim"]} for e in r["calculi"]],
              "certificates": [{"name": "candidate tangent spaces closed",
                                "pass": r["candidates_closed"]}],
              "lines": lines}
    return _emit(report, args.format)


def cmd_mu_rep(args):
    n = args.n
    if args.c is not None:
        spec = parse_param_spec(args.c)
        if not isinstance(spec, CnSpec):
            raise ValueError("mu-rep takes cn:<n2> or --n")
        if spec.n2 % 2:
            raise ValueError("mu_n needs integer n, i.e. even n2")
        n = spec.n2 // 2
    if n is None:
        raise ValueError("mu-rep needs --n or --c cn:<n2>")
    r = podles.mu_rep_report(n)
    rep = r.pop("rep")
    lines = ["mu_%d matrices at c = c(%d):" % (n, n)]
    mats = {}
    for name, m in rep.items():
        mats[name] = [[str(x) for x in row] for row in m.rows(n)]
        lines.append("  %s = %s" % (name, mats[name]))
    report = {"schema": "qsphere-report/1", "command": "mu-rep",
              "params": {"n": n}, "matrices": mats,
              "certificates": [{"name": "relations at c(n)", "pass": r["pass"]}],
              "lines": lines}
    return _emit(report, args.format)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, set):
        return [_jsonable(v) for v in sorted(x, key=str)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)


def build_parser():
    ap = argparse.ArgumentParser(prog="qsphere",
                                 description="Exact engine for the quantum "
                                 "sphere and its covariant calculi")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--only", nargs="*", help="subset of criteria, e.g. AC-1 AC-5")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("classify", help="J^c and the irreducible-calculus table")
    p.add_argument("--c", required=True)
    p.add_argument("--lmax", type=int, default=6)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("eigenvalues", help="spectral data of the X_c matrix")
    p.add_argument("--c", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.set_defaults(fn=cmd_eigenvalues)

    p = sub.add_parser("tangent-space", help="certify a tangent space")
    p.add_argument("--c", required=True)
    p.add_argument("--components", required=True,
                   help="comma list like +2,+4 or -1")
    p.set_defaults(fn=cmd_tangent_space)

    p = sub.add_parser("build-fodc", help="construct the r-form calculus on V(n)")
    p.add_argument("--c", default="s=1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", choices=("id", "flip"), default="id")
    p.add_argument("--verify-freeness", action="store_true", dest="verify_freeness")
    p.set_defaults(fn=cmd_build_fodc)

    p = sub.add_parser("de-generated", help="calculi generated by the d e_i")
    p.add_argument("--c", required=True)
    p.add_argument("--lmax", type=int, default=6)
    p.set_defaults(fn=cmd_de_generated)

    p = sub.add_parser("mu-rep", help="the representation mu_n at c = c(n)")
    p.add_argument("--n", type=int)
    p.add_argument("--c")
    p.set_defaults(fn=cmd_mu_rep)
    return ap


_parser = None                          # built by the first `main` call


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except AssertionError as e:
        print("internal check failed: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
