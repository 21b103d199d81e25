"""Planted faults: one primitive datum changed, and the check it must reach.

Each row plants one change in a datum that a certificate reads, runs one
CLI request in a fresh engine registry, and requires a defined outcome:
a FAIL (exit 1, nothing on stderr, the named report field flipped) or an
internal check failure (exit 3, nothing on stdout).  Never a pass, and
never a traceback.  The rows reach the failure branches of AC-2, AC-4
(both routes), AC-5 (both checks), AC-6, AC-7 (counts and closure) and
AC-8's submodule, and the internal checks of `comodule_matrix`'s rank,
the weight scan's two routes, X_c's superdiagonal and the E-orbit of V(n).
"""

import json

import pytest

from qsphere import dualfunc, fodc, oqsl2, uqsl2rep
from qsphere.cli import main
from qsphere.dualfunc import DualEngine
from qsphere.linalg import Matrix
from qsphere.podles import PodlesAlgebra
from qsphere.scalars import Q, QINV, ZERO


def _repeated_w_vector(monkeypatch):
    # W = [b_0, b_1, 2 b_1] at n=1: every coaction leg stays in the span
    real = fodc.submodule_Vn

    def planted(n, alg):
        basis = real(n, alg)
        return basis[:2] + [2 * basis[1]]

    monkeypatch.setattr(fodc, "submodule_Vn", planted)


def _k_weight_of_b1_times_q(monkeypatch):
    real = PodlesAlgebra.act

    def planted(self, kind, x, power=1):
        out = real(self, kind, x, power)
        return Q * out if kind == "K" and x == self.e0() else out

    monkeypatch.setattr(PodlesAlgebra, "act", planted)


def _f_letter_entry_times_q(monkeypatch):
    # entry (0, 1) of F's letter matrix times q
    real = oqsl2.Evaluator.letter_matrix

    def planted(self, letter):
        m = real(self, letter)
        if letter[0] != "F":
            return m
        (a, b), row = m
        return (a, Q * b), row

    monkeypatch.setattr(oqsl2.Evaluator, "letter_matrix", planted)
    monkeypatch.setattr(oqsl2, "EVALUATOR", oqsl2.Evaluator())


def _irrep_e_entry_times_q(monkeypatch):
    real = uqsl2rep.irrep

    def planted(l, sign=+1):
        E, F, K = real(l, sign)
        return E + (Q - 1) * Matrix({(0, 1): E[0, 1]}), F, K

    monkeypatch.setattr(uqsl2rep, "irrep", planted)


def _a_l_times_q(monkeypatch):
    # phi's psi^(l-1) coefficient; AC-3 still passes, since both products in
    # the psi^(l-2) term of the commutator with varphi scale by q
    real = DualEngine._per_l
    monkeypatch.setattr(DualEngine, "_per_l",
                        lambda self, l: (Q * real(self, l)[0], real(self, l)[1]))


def _pair_sum_sign(monkeypatch):
    real = uqsl2rep._pair_closed_forms

    def planted(l, c, sign):
        pairs, zero_root = real(l, c, sign)
        return [(r2, -s, p) for r2, s, p in pairs], zero_root

    monkeypatch.setattr(uqsl2rep, "_pair_closed_forms", planted)


def _beta_singular_at_l1(monkeypatch):
    # det X_c at l=1, s=1 is -q^4/(q + 2 + q^-1) - q^3 BETA GAMMA: zero here.
    # The closed forms read the same BETA, so the factorization still holds.
    monkeypatch.setattr(uqsl2rep, "BETA", -Q / (Q + 2 + QINV))


def _gamma_zero(monkeypatch):
    # every superdiagonal entry of X_c carries GAMMA
    monkeypatch.setattr(uqsl2rep, "GAMMA", ZERO)


def _e_kills_e1(monkeypatch):
    real = PodlesAlgebra.act
    monkeypatch.setattr(PodlesAlgebra, "act", lambda self, kind, x, power=1: (
        self.element() if kind == "E" and x == self.e1() else real(self, kind, x, power)))


def _e_of_a_killed_vector_is_e1(monkeypatch):
    # E |> x = e_1 wherever E kills a nonconstant x: at n=1 the last vector
    # of the orbit of e_1, E^2 |> e_1, is mapped back to e_1
    real = PodlesAlgebra.act

    def planted(self, kind, x, power=1):
        out = real(self, kind, x, power)
        return self.e1() if kind == "E" and x.degree() and not out else out

    monkeypatch.setattr(PodlesAlgebra, "act", planted)


def _alpha_times_two(monkeypatch):
    # both weight routes read alpha(c), so they agree: the exceptional
    # values become generic ones
    real = uqsl2rep.xc_alpha
    monkeypatch.setattr(uqsl2rep, "xc_alpha", lambda c: 2 * real(c))


def _generators_e_dependent(monkeypatch):
    monkeypatch.setattr(PodlesAlgebra, "generators_e",
                        lambda self: [self.em1(), self.e0(), self.e0()])


def _psi_coproduct_times_q(monkeypatch):
    # every coefficient of Delta psi^l_lam, l >= 1, times q: the counts and
    # dimensions stay those of AC-7, but the candidate tangent spaces do not close
    real = DualEngine.psi_coproduct

    def planted(self, sym):
        return [(Q * c if sym[1] else c, s1, s2) for c, s1, s2 in real(self, sym)]

    monkeypatch.setattr(DualEngine, "psi_coproduct", planted)


def _routes(details):
    return {route for *_, route in details["mismatches"]}


PLANTS = [
    (_repeated_w_vector, ["build-fodc", "--n", "1"], 3, "W is dependent: rank 2 < 3"),
    (_k_weight_of_b1_times_q, ["selftest", "--only", "AC-8"], 1,
     lambda d: d["n=1"]["submodule"] is False and d["n=1"]["spans_equal"]),
    (_f_letter_entry_times_q, ["selftest", "--only", "AC-2"], 1,
     lambda d: {k for k, *_ in d["mismatches"]} == {"F"}),
    (_irrep_e_entry_times_q, ["selftest", "--only", "AC-4"], 1,
     lambda d: _routes(d) == {"irrep"}),
    (_a_l_times_q, ["selftest", "--only", "AC-4"], 1, lambda d: _routes(d) == {"phi"}),
    (_pair_sum_sign, ["selftest", "--only", "AC-5"], 1,
     lambda d: d["verdict_failures"]["s=1"] and d["kernel_dichotomy"]),
    (_beta_singular_at_l1, ["selftest", "--only", "AC-5"], 1,
     lambda d: not any(d["verdict_failures"].values()) and not d["kernel_dichotomy"]),
    (_alpha_times_two, ["selftest", "--only", "AC-6"], 1,
     lambda d: [-1, 1] not in d["scans"]["exc:1"] and [-1, 2] not in d["scans"]["exc:2"]),
    (_generators_e_dependent, ["selftest", "--only", "AC-7"], 1,
     lambda d: d["s=1"]["count"] == 0),
    (_psi_coproduct_times_q, ["selftest", "--only", "AC-7"], 1,
     lambda d: d["s=1"]["candidates_closed"] is False),
    (_beta_singular_at_l1, ["selftest", "--only", "AC-6"], 3,
     "operator and matrix routes disagree at sign=+1 l=1"),
    (_gamma_zero, ["eigenvalues", "--c", "s=1", "--l", "1"], 3,
     "X_c has a zero on its superdiagonal at sign=+1 l=1"),
    (_e_kills_e1, ["build-fodc", "--n", "1"], 3, "E-orbit of e_1^n collapsed early"),
    (_e_of_a_killed_vector_is_e1, ["build-fodc", "--n", "1"], 3,
     "E-orbit of e_1^n does not close after 2n+1 steps"),
]


@pytest.mark.parametrize("plant, argv, code, expected", PLANTS, ids=[
    "W-repeated-vector", "AC-8-K-weight", "AC-2-F-letter", "AC-4-irrep-E", "AC-4-phi-a_l",
    "AC-5-pair-sign", "AC-5-BETA-singular", "AC-6-alpha", "AC-7-generators",
    "AC-7-psi-coproduct", "AC-6-BETA-singular", "X_c-GAMMA-zero", "V(n)-orbit-collapse",
    "V(n)-orbit-open"])
def test_a_planted_datum_fails_its_check(monkeypatch, capsys, plant, argv, code, expected):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    plant(monkeypatch)
    got = main(["--format", "json"] + argv)
    captured = capsys.readouterr()
    assert got == code
    if code == 3:
        assert captured.out == ""
        assert captured.err == "internal check failed: %s\n" % expected
        return
    assert captured.err == ""
    (cert,) = json.loads(captured.out)["certificates"]
    assert cert["pass"] is False and expected(cert["details"]), cert["details"]
