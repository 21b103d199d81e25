"""The acceptance suite: one certificate function per criterion.

Each function returns {"criterion", "pass", "details"}; the CLI selftest
command and the pytest acceptance module both run these.  Every check is
exact over Q(t), on sampled ranges.  Truncations of one claim: AC-8's
freeness at degree 2 (guessed coeff_degree = degree + 1); AC-10's
confluence and Hopf axioms on words of length <= 3, r-form
well-definedness on length <= 2, psi and normal-basis independence at
degree 4.  Finite samples of a family: l <= lmax in AC-3 (6, nine lambda),
AC-4 (6), AC-5 (6 at four c; kernel dichotomy 8) and AC-6 (8; the CLI's
--lmax); AC-7's Lmax 6; AC-8's n in (1, 2); AC-9's n <= 4.
"""

from .scalars import ZERO, ONE, Q, QINV, QHAT, RatFunc, CParam, qpow
from . import oqsl2, podles, uqsl2rep, fodc
from .dualfunc import PsiVector, engine_of


def c_exc(r2):
    """c = (q^r - q^-r)^(-2) with r = r2/2, via its exact square root."""
    return CParam.generic((qpow(r2) - qpow(-r2)).inv())


def ac1_embedded_relations():
    """Embedded generators satisfy the four defining relations."""
    details = {}
    ok = True
    for label, c in (("s=1", CParam.generic(1)), ("s=2", CParam.generic(2)),
                     ("inf", CParam.infinity())):
        rep = podles.embedded_relations_report(c)
        rep2 = podles.original_relations_report(c)
        details[label] = {"rewritten": rep["pass"], "original": rep2["pass"]}
        ok = ok and rep["pass"] and rep2["pass"]
    return {"criterion": "AC-1", "pass": ok, "details": details}


def ac2_functional_tables():
    """f_lambda, g, E, F on the pi-matrix reproduce the four displayed matrices."""
    lam = RatFunc.from_int(5)
    ev = oqsl2.EVALUATOR
    words = {"f": (("f", lam),), "g": (("g",),), "E": (("E",),), "F": (("F",),)}
    ok = True
    mismatches = []
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            pij = oqsl2.pi_coeff(i, j)
            want_f = lam ** (2 * i) if i == j else ZERO
            want_g = RatFunc.from_int(2 * i) if i == j else ZERO
            want_e = ZERO
            if (i, j) == (-1, 0):
                want_e = -(Q * Q + 1)
            elif (i, j) == (0, 1):
                want_e = ONE
            want_fcap = ZERO
            if (i, j) == (0, -1):
                want_fcap = -QINV
            elif (i, j) == (1, 0):
                want_fcap = Q + QINV
            got = {k: ev.eval(word, pij) for k, word in words.items()}
            want = {"f": want_f, "g": want_g, "E": want_e, "F": want_fcap}
            for k in got:
                if got[k] != want[k]:
                    ok = False
                    mismatches.append((k, i, j, str(got[k])))
    return {"criterion": "AC-2", "pass": ok,
            "details": {"entries_checked": 36, "mismatches": mismatches}}


def ac3_operator_algebra(lmax=6):
    """phi varphi - varphi phi = (kappa - kappa^-1)/(q - q^-1) and conjugations."""
    eng = engine_of(CParam.generic(1))
    grid = [ONE, Q, QINV, Q * Q, qpow(-4), qpow(6),
            RatFunc.from_int(2), RatFunc.from_int(3), Q * Q + 1]
    ok = True
    for lam in grid:
        for l in range(lmax + 1):
            v = PsiVector.symbol(l, lam)
            lhs = eng.phi(eng.varphi(v)) - eng.varphi(eng.phi(v))
            rhs = (eng.kappa(v) - eng.kappa(v, -1)) * QHAT.inv()
            ok = ok and lhs == rhs
            ok = ok and eng.kappa(eng.phi(v)) == Q * Q * eng.phi(eng.kappa(v))
            ok = ok and eng.kappa(eng.varphi(v)) == qpow(-4) * eng.varphi(eng.kappa(v))
    return {"criterion": "AC-3", "pass": ok,
            "details": {"lmax": lmax, "grid_size": len(grid)}}


def ac4_xc_matrix(lmax=6):
    """The displayed tridiagonal matrix from both the irrep and operator routes."""
    ok = True
    bad = []
    for c, label in ((CParam.generic(1), "s=1"), (CParam.infinity(), "inf")):
        for l in range(lmax + 1):
            for sign in (+1, -1):
                disp = uqsl2rep.xc_matrix(l, c, sign)
                if disp != uqsl2rep.xc_matrix_from_irrep(l, c, sign):
                    ok = False
                    bad.append((label, l, sign, "irrep"))
                if disp != engine_of(c).phi_matrix_rescaled(sign, l):
                    ok = False
                    bad.append((label, l, sign, "phi"))
    return {"criterion": "AC-4", "pass": ok,
            "details": {"lmax": lmax, "mismatches": bad}}


def ac5_spectra(lmax=6, kernel_lmax=8):
    """Characteristic polynomial factorizations and the zero-kernel dichotomy."""
    ok = True
    verdicts = {}
    for label, c in (("s=1", CParam.generic(1)), ("s=2", CParam.generic(2)),
                     ("inf", CParam.infinity()), ("exc:1", c_exc(1))):
        bad = []
        for l in range(lmax + 1):
            for sign in (+1, -1):
                if uqsl2rep.charpoly_check(l, c, sign)[2]:
                    bad.append((l, sign))
        verdicts[label] = bad
        ok = ok and not bad
    dichotomy = True
    for l in range(kernel_lmax + 1):
        kd = uqsl2rep.kernel_dim(l, CParam.generic(1), +1)
        if kd != (1 if l % 2 == 0 else 0):
            dichotomy = False
    ok = ok and dichotomy
    return {"criterion": "AC-5", "pass": ok,
            "details": {"verdict_failures": verdicts, "kernel_dichotomy": dichotomy}}


def ac6_jc_sets(lmax=8):
    """scan_weights reproduces the highest-weight sets, with both routes agreeing."""
    expected = {
        "s=1": {(+1, l) for l in range(0, lmax + 1, 2)},
        "inf": {(s, l) for l in range(0, lmax + 1, 2) for s in (+1, -1)},
        "exc:1": ({(+1, l) for l in range(0, lmax + 1, 2)}       # r = 1/2
                  | {(-1, k) for k in range(1, lmax + 1, 2)}),
        "exc:2": ({(+1, l) for l in range(0, lmax + 1, 2)}       # r = 1
                  | {(-1, k) for k in range(2, lmax + 1, 2)}),
    }
    cs = {"s=1": CParam.generic(1), "inf": CParam.infinity(),
          "exc:1": c_exc(1), "exc:2": c_exc(2)}
    ok = True
    got = {}
    for label, c in cs.items():
        scan = set(engine_of(c).scan_weights(lmax))    # raises on route mismatch
        got[label] = sorted(scan)
        if scan != expected[label]:
            ok = False
    return {"criterion": "AC-6", "pass": ok,
            "details": {"lmax": lmax, "scans": {k: v for k, v in got.items()}}}


def ac7_corollary_counts(lmax=6):
    """The de_i-generated classification: 1 / 3 / 2 calculi with stated dims."""
    cases = (
        ("s=1", CParam.generic(1), 1, [3]),
        ("inf", CParam.infinity(), 3, [1, 3, 3]),
        ("exc:1", c_exc(1), 2, [2, 3]),
    )
    ok = True
    details = {}
    for label, c, want_count, want_dims in cases:
        r = fodc.classify_de_generated(c, Lmax=lmax)
        dims = sorted(e["dim"] for e in r["calculi"])
        details[label] = {"count": r["count"], "dims": dims}
        if r["count"] != want_count or dims != sorted(want_dims):
            ok = False
    return {"criterion": "AC-7", "pass": ok, "details": details}


def ac8_rform_calculi(ns=(1, 2)):
    """r-form calculi: the submodule V(n), tangent span identification,
    chibar, Leibniz in every degree (the four rules on the letter operators),
    freeness."""
    ok = True
    details = {}
    c1 = CParam.generic(1)
    for n in ns:
        chi = fodc.chi_functionals(n, "id", c1)
        cb = fodc.chibar_report(n, c1)
        pres = fodc.build_rform_calculus(n, "id", c1)
        fr = fodc.verify_freeness(pres, 2)
        sub = fodc.submodule_report(pres)
        entry = {"spans_equal": chi["spans_equal"], "chibar": cb["pass"],
                 "leibniz": pres.bimodule_report()["pass"], "freeness": fr["pass"],
                 "submodule": sub["pass"]}
        ok = ok and all(entry.values())
        entry["freeness_system"] = {k: fr[k]
                                    for k in ("coeff_degree", "unknowns", "rank")}
        details["n=%d" % n] = dict(entry, stable_degree=chi["stable_degree"])
    cinf = CParam.infinity()
    chif = fodc.chi_functionals(1, "flip", cinf)
    presf = fodc.build_rform_calculus(1, "flip", cinf)
    entry = {"spans_equal": chif["spans_equal"],
             "leibniz": presf.bimodule_report()["pass"]}
    ok = ok and all(entry.values())
    details["n=1,flip,inf"] = dict(entry, stable_degree=chif["stable_degree"])
    return {"criterion": "AC-8", "pass": ok, "details": details}


def ac9_mu_reps(nmax=4):
    """mu_n satisfies all relations at c = c(n), A invertible, shifts nilpotent."""
    ok = True
    details = {}
    for n in range(1, nmax + 1):
        r = podles.mu_rep_report(n)
        details["n=%d" % n] = {k: r[k] for k in
                               ("pass", "e1_nilpotent", "em1_nilpotent", "A_invertible")}
        ok = ok and r["pass"]
    return {"criterion": "AC-9", "pass": ok, "details": details}


def ac10_structural():
    """Rewriting confluence, Hopf axioms, r-form well-definedness,
    truncated psi-independence, independence of the embedded normal
    monomials, localization residuals."""
    details = {}
    conf_sl2 = oqsl2.confluence_report(3)
    details["sl2_confluent"] = conf_sl2["confluent"]
    conf_pod = all(podles.confluence_report(c, 3)["confluent"]
                   for c in (CParam.generic(1), CParam.generic(2), CParam.infinity(),
                             CParam.zero()))
    details["podles_confluent"] = conf_pod
    hopf = oqsl2.hopf_axioms_report(3)
    details["hopf_axioms"] = hopf["pass"]
    rwd = oqsl2.rform_well_defined_report()
    details["rform_well_defined"] = rwd["pass"]
    # the 18-symbol set cannot be independent against the 16 monomials of
    # degree <= 3, so the certificate runs at degree 4 (25 monomials)
    indep = engine_of(CParam.generic(1)).truncated_independence(degree=4)
    details["psi_independence"] = indep["full_row_rank"]
    details["psi_independence_degree"] = indep["degree"]
    basis = all(podles.basis_independence(c, 4)["independent"]
                for c in (CParam.generic(1), CParam.infinity()))
    details["normal_basis_independent"] = basis
    details["normal_basis_degree"] = 4
    pb = all(podles.verify_localization(CParam.generic(s))["pass"] for s in (1, 2))
    details["localization_residuals_zero"] = pb
    ok = (conf_sl2["confluent"] and conf_pod and hopf["pass"] and rwd["pass"]
          and indep["full_row_rank"] and basis and pb)
    return {"criterion": "AC-10", "pass": ok, "details": details}


CRITERIA = [
    ("AC-1", ac1_embedded_relations),
    ("AC-2", ac2_functional_tables),
    ("AC-3", ac3_operator_algebra),
    ("AC-4", ac4_xc_matrix),
    ("AC-5", ac5_spectra),
    ("AC-6", ac6_jc_sets),
    ("AC-7", ac7_corollary_counts),
    ("AC-8", ac8_rform_calculi),
    ("AC-9", ac9_mu_reps),
    ("AC-10", ac10_structural),
]


def run_all(names=None):
    unknown = sorted(set(names or ()) - {name for name, _ in CRITERIA})
    if unknown:
        raise ValueError("unknown criterion: %s" % ", ".join(unknown))
    out = []
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        out.append(fn())
    return out
