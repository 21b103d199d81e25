import copy
import json
import random

import pytest

from qsphere.algebra import accumulate
from qsphere.scalars import ONE, Q, RatFunc, CParam, qpow
from qsphere import dualfunc, fodc, linalg, oqsl2
from qsphere.cli import main, parse_param_spec
from qsphere.selftest import c_exc
from qsphere.dualfunc import DualEngine, EPSILON, HWModule, PsiVector
from qsphere.linalg import Matrix
from qsphere.podles import PodlesElement
from qsphere.fodc import (chi_functionals, chibar_report, classify_de_generated,
                          build_rform_calculus, check_comodule_matrix,
                          comodule_matrix, irreducibility_report,
                          nu_apply, nu_is_admissible, pairing_matrix,
                          submodule_Vn, submodule_report, tangent_space,
                          tangent_space_json, verify_freeness)

GENERIC = CParam.generic(1)
INF = CParam.infinity()
EXC_HALF = CParam.generic((qpow(1) - qpow(-1)).inv())


@pytest.fixture(scope="module")
def eng():
    return DualEngine(GENERIC)


@pytest.fixture(scope="module")
def eng_inf():
    return DualEngine(INF)


def test_trivial_tangent_space(eng):
    ts = tangent_space(GENERIC, [], engine=eng)
    assert ts.dim == 1 and ts.certificate["pass"]
    assert pairing_matrix(ts, eng.alg.generators_e()) == []


def test_single_component_tangent_space(eng):
    ts = tangent_space(GENERIC, [(1, 2)], engine=eng)
    assert ts.dim == 4
    assert ts.certificate["pass"]
    assert irreducibility_report(ts)["pass"]


def test_direct_sum_tangent_space(eng):
    ts = tangent_space(GENERIC, [(1, 2), (1, 4)], engine=eng)
    assert ts.dim == 9
    assert ts.certificate["pass"]


def test_tangent_space_rejects_bad_component(eng):
    with pytest.raises(ValueError):
        tangent_space(GENERIC, [(-1, 2)], engine=eng)


def test_pairing_ranks(eng, eng_inf):
    ts = tangent_space(GENERIC, [(1, 2)], engine=eng)
    assert linalg.rank(pairing_matrix(ts, eng.alg.generators_e())) == 3
    ts1 = tangent_space(INF, [(-1, 0)], engine=eng_inf)
    pm = pairing_matrix(ts1, eng_inf.alg.generators_e())
    assert linalg.rank(pm) == 1


def test_classification_counts(eng, eng_inf):
    r = classify_de_generated(GENERIC, Lmax=6, engine=eng)
    assert r["count"] == 1
    assert r["calculi"][0]["components"] == [(1, 2)]
    assert r["calculi"][0]["dim"] == 3

    r = classify_de_generated(INF, Lmax=6, engine=eng_inf)
    assert r["count"] == 3
    assert sorted(e["dim"] for e in r["calculi"]) == [1, 3, 3]

    r = classify_de_generated(EXC_HALF, Lmax=6)
    assert r["count"] == 2
    assert sorted(e["dim"] for e in r["calculi"]) == [2, 3]


def test_classification_exc_r1_still_one():
    # at c = (q - q^-1)^-2 the weight set gains (-1, 2), but that component
    # pairs with rank 2 < 3 against the generators, so the count stays 1
    c = CParam.generic((qpow(2) - qpow(-2)).inv())
    r = classify_de_generated(c, Lmax=4)
    assert r["count"] == 1
    assert r["calculi"][0]["components"] == [(1, 2)]
    assert any(e["components"] == [(-1, 2)] and e["pairing_rank"] == 2
               for e in r["rejected"])


def test_submodule_v1(eng):
    alg = eng.alg
    basis = submodule_Vn(1, alg)
    assert basis[0] == alg.e1()
    assert basis[1] == alg.e0()
    assert basis[2] == -(Q * Q + 1) * alg.em1()
    rep = submodule_report(build_rform_calculus(1, "id", GENERIC, eng))
    assert rep["pass"] and rep["K_weights"] and rep["dim"] == 3


def test_submodule_v2(eng):
    rep = submodule_report(build_rform_calculus(2, "id", GENERIC, eng))
    assert rep["pass"] and rep["K_weights"] and rep["dim"] == 5


def test_submodule_report_solves_no_linear_system(eng, monkeypatch):
    # the comodule solve that built the calculus proved independence and F-closure
    calculi = [build_rform_calculus(n, "id", GENERIC, eng) for n in (1, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("submodule_report solved a linear system")

    monkeypatch.setattr(linalg, "_solve", refuse)
    for pres in calculi:
        assert submodule_report(pres)["pass"]


def test_a_cold_calculus_build_solves_once_in_comodule_matrix(monkeypatch):
    inside, calls = [], []
    real_solve, real_comodule = linalg.solve_with_rank, fodc.comodule_matrix

    def comodule(alg, W):
        inside.append(W)
        try:
            return real_comodule(alg, W)
        finally:
            inside.pop()

    monkeypatch.setattr(fodc, "comodule_matrix", comodule)
    monkeypatch.setattr(linalg, "solve_with_rank",
                        lambda a, b: calls.append(bool(inside)) or real_solve(a, b))
    for n, nu, c in ((1, "id", GENERIC), (2, "id", GENERIC), (1, "flip", INF)):
        calls.clear()
        build_rform_calculus(n, nu, c, engine=DualEngine(c))
        assert calls == [True], (n, nu)


def test_nu_admissibility():
    assert nu_is_admissible("id", GENERIC)
    assert not nu_is_admissible("flip", GENERIC)
    assert nu_is_admissible("flip", INF)
    assert not nu_is_admissible("flip", CParam.zero())
    assert not nu_is_admissible("flip", c_exc(1))
    with pytest.raises(ValueError):
        nu_is_admissible("other", GENERIC)
    with pytest.raises(ValueError):
        build_rform_calculus(1, "flip", GENERIC)


def test_nu_flip_is_endomorphism_at_infinity(eng_inf):
    alg = eng_inf.alg
    x = alg.em1() * alg.e1()
    y = alg.A() * alg.e1()
    assert nu_apply("flip", x * y) == nu_apply("flip", x) * nu_apply("flip", y)


def test_rform_calculus_n1(eng):
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    alg = eng.alg
    assert pres.N == 3
    assert pres.is_zero_coords(pres.d(alg.unit()))
    table = pres.differential_table()
    for name in ("em1", "e0", "e1"):
        assert not pres.is_zero_coords(table[name])
    assert pres.bimodule_report()["pass"]
    assert pres.leibniz_report(3)["pass"]


def test_left_action_table_shape(eng):
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    table = pres.left_action_table()
    assert set(table) == {"em1", "e0", "e1", "A"}
    assert len(table["A"]) == 3 and len(table["A"][0]) == 3
    # absent matrix entries come out as sphere elements too, not as scalar zeros
    assert all(isinstance(x, PodlesElement) for v in table.values() for row in v for x in row)


def test_freeness_n1(eng):
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    rep = verify_freeness(pres, 2)
    assert rep["pass"], rep


@pytest.mark.parametrize("coeff_degree, rank, ungenerated", [
    (1, 12, [("m", "m"), ("p", "p"), ("A", "m"), ("A", "p"), ("A", "A")]),
    (2, 27, [("m", "m"), ("p", "p"), ("A", "m"), ("A", "p"), ("A", "A")]),
    (3, 48, [])])
def test_freeness_verdict_matches_the_raw_columns(eng, coeff_degree, rank, ungenerated):
    # the oracle solves the system of the undivided columns d(b_i)·m
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    alg = eng.alg
    rep = verify_freeness(pres, 2, coeff_degree)
    d_basis = [pres.d(b) for b in pres.W_basis]
    inner_deg = max(x.degree() for co in d_basis for x in co)
    big_idx = {m: i for i, m in
               enumerate(alg.normal_monomials(inner_deg + coeff_degree))}

    def gamma_vec(coords):
        return [v for x in coords for v in linalg.coordinate_row(x.terms, big_idx)]

    columns = [gamma_vec(pres.rmult(db, alg.element({m: ONE})))
               for db in d_basis for m in alg.normal_monomials(coeff_degree)]
    targets = [m for m in alg.normal_monomials(2) if m]
    raw_rank, sols = linalg.solve_with_rank(
        linalg.transpose(columns),
        [gamma_vec(pres.d(alg.element({m: ONE}))) for m in targets])
    assert rep["rank"] == raw_rank == rank
    assert rep["unknowns"] == len(columns)
    assert rep["unique_expansion"] == (raw_rank == len(columns))
    assert rep["ungenerated"] == [m for m, x in zip(targets, sols) if x is None]
    assert rep["ungenerated"] == ungenerated
    assert rep["pass"] == (not ungenerated)


def _freeness_by_the_whole_system(monkeypatch, pres):
    """verify_freeness with one exact elimination of the whole system (the oracle)."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "solve_with_rank", linalg._solve_by_elimination)
        return verify_freeness(pres, 2)


@pytest.mark.parametrize("n, c, nu", [(1, CParam.generic(2), "id"), (1, INF, "flip"),
                                      (2, GENERIC, "id")])
def test_freeness_by_pivots_mod_p_matches_the_whole_system(monkeypatch, n, c, nu):
    pres = build_rform_calculus(n, nu, c)
    rep = verify_freeness(pres, 2)
    assert rep == _freeness_by_the_whole_system(monkeypatch, pres)
    assert rep["pass"] and rep["rank"] == rep["unknowns"] == (48, 80)[n - 1]


def test_freeness_n3_keeps_the_whole_system_verdict():
    # one elimination of the whole 448x112 system gave this report (about 9 s);
    # the full column rank is proven mod P and the 8 targets fail their rows
    rep = verify_freeness(build_rform_calculus(3, "id", GENERIC), 2)
    assert rep == {"pass": False, "unique_expansion": True,
                   "ungenerated": [("m",), ("p",), ("A",), ("m", "m"), ("p", "p"),
                                   ("A", "m"), ("A", "p"), ("A", "A")],
                   "degree": 2, "coeff_degree": 3, "unknowns": 112, "rank": 112}


def test_freeness_with_a_duplicated_column_is_not_unique(monkeypatch, eng):
    # the rank mod P is below the column count, so the whole system is solved
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    real = linalg.transpose
    monkeypatch.setattr(linalg, "transpose", lambda cols: real(cols[:-1] + cols[:1]))
    rep = verify_freeness(pres, 2)
    assert rep == _freeness_by_the_whole_system(monkeypatch, pres)
    assert rep["unique_expansion"] is False and rep["pass"] is False
    assert rep["rank"] == rep["unknowns"] - 1 == 47


def test_freeness_target_moved_off_the_pivot_rows_is_ungenerated(monkeypatch, eng):
    # a change in a row that the square solve does not see is found by the
    # check of the other rows over the common denominator
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)

    def moving(solve):
        def moved(a_rows, b_cols):
            sparse = [[(j, x) for j, x in enumerate(row) if x] for row in a_rows]
            kept = linalg._pivot_rows_mod_p(sparse, len(a_rows[0]))
            i = min(set(range(len(a_rows))) - set(kept))
            b_cols = [list(col) for col in b_cols]
            b_cols[0][i] = b_cols[0][i] + ONE
            return solve(a_rows, b_cols)
        return moved

    reps = []
    for solve in (linalg.solve_with_rank, linalg._solve_by_elimination):
        with monkeypatch.context() as m:
            m.setattr(linalg, "solve_with_rank", moving(solve))
            reps.append(verify_freeness(pres, 2))
    first = [m for m in eng.alg.normal_monomials(2) if m][0]
    assert reps[0] == reps[1]
    assert reps[0]["ungenerated"] == [first] and reps[0]["pass"] is False
    assert reps[0]["unique_expansion"] is True


def test_freeness_minor_contradicting_its_rank_mod_p_exits_3(capsys, monkeypatch):
    real = linalg._solve_by_elimination

    def contradicting(a_rows, b_cols):
        # the 48x48 freeness minor at n = 1 only; the calculus is built first
        r, sols = real(a_rows, b_cols)
        return (r - 1 if len(a_rows) == 48 else r), sols

    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(linalg, "_solve_by_elimination", contradicting)
    code = main(["--format", "json", "build-fodc", "--c", "s=1", "--n", "1",
                 "--verify-freeness"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal check failed: column rank 48 at t0 mod P, "
                            "but the minor has rank 47\n")


@pytest.mark.parametrize("degree, coeff_degree, match", [
    (0, None, "degree bound >= 1"),
    (-1, None, "degree bound >= 1"),
    (2, -1, "coefficient degree >= 0")])
def test_verify_freeness_refuses_empty_or_negative_bounds(eng, degree, coeff_degree, match):
    # degree 0 had no target and passed; coefficient degree -1 raised KeyError
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    with pytest.raises(ValueError, match=match):
        verify_freeness(pres, degree, coeff_degree)


def test_rform_calculus_flip_infinity(eng_inf):
    pres = build_rform_calculus(1, "flip", INF, engine=eng_inf)
    assert pres.leibniz_report(2)["pass"]
    chi = chi_functionals(1, "flip", INF, engine=eng_inf)
    assert chi["spans_equal"]
    assert chi["stable_degree"] == 1


def test_chi_functionals_n1(eng):
    chi = chi_functionals(1, "id", GENERIC, engine=eng)
    assert chi["spans_equal"]
    unit = chi["monomials"].index(())
    assert all(row[unit] == RatFunc((), (1,)) for row in chi["chi_rows"])
    assert chi["rank_chi"] == 3
    assert chi["stable_degree"] == 1
    assert chi["monomials"] == eng.alg.normal_monomials(2)


def test_chi_functionals_n2_stabilizes_at_degree_two(eng):
    chi = chi_functionals(2, "id", GENERIC, engine=eng)
    assert chi["spans_equal"]
    assert (chi["rank_chi"], chi["rank_module"], chi["rank_joint"]) == (5, 5, 5)
    assert chi["stable_degree"] == 2
    assert chi["monomials"] == eng.alg.normal_monomials(3)


def test_rewriting_rules_keep_the_degree_filtration(eng):
    # the stopping rule of chi_functionals needs g B_{<=d} inside B_{<=d+1}
    for lhs, rhs in eng.alg.rewriting.rules.items():
        assert len(lhs) == 2 and all(len(word) <= 2 for _, word in rhs), lhs


def _element_level_chi_rows(n, nu, c, alg, monos):
    """chi_i(x) = r(nu(x), S^-1(b_i)) - eps(b_i) eps(x), one r-form per monomial."""
    elems = [alg.element({m: ONE}) for m in monos]
    embedded = [alg.embed(nu_apply(nu, x)) for x in elems]
    rows = []
    for b in submodule_Vn(n, alg):
        sb = oqsl2.antipode(alg.embed(b), inverse=True)
        rows.append([oqsl2.rform(y, sb) - alg.counit(b) * alg.counit(x)
                     for x, y in zip(elems, embedded)])
    return rows


def _walked(letters, start, monos):
    """[[values[m][i, 0] for m in monos] for each i] from the letter walk of fodc."""
    values = {(): fodc._column(start)}
    fodc._walk(letters, values, monos)
    return [[values[m][i, 0] for m in monos] for i in range(len(start))]


ORACLE_CASES = [("id", GENERIC, 1), ("id", GENERIC, 2), ("id", CParam.generic(2), 2),
                ("flip", INF, 1), ("flip", INF, 2)]


@pytest.mark.parametrize("nu, c, n", ORACLE_CASES)
def test_chi_rows_equal_the_element_level_rform(nu, c, n):
    # the chi-side walk, on every monomial of degree <= 2n+2
    eng = DualEngine(c)
    alg = eng.alg
    monos = alg.normal_monomials(2 * n + 2)
    letters, eps_W = fodc._chi_letters(build_rform_calculus(n, nu, c, engine=eng))
    eps_m = [alg.counit(alg.element({m: ONE})) for m in monos]
    walked = [[x - e_b * e for x, e in zip(row, eps_m)]
              for row, e_b in zip(_walked(letters, eps_W, monos), eps_W)]
    oracle = _element_level_chi_rows(n, nu, c, alg, monos)
    assert walked == oracle
    chi = chi_functionals(n, nu, c, engine=eng)
    k = len(chi["monomials"])
    assert chi["monomials"] == monos[:k]
    assert chi["chi_rows"] == [row[:k] for row in oracle]


@pytest.mark.parametrize("nu, c, n", ORACLE_CASES)
def test_module_rows_equal_the_evaluated_functionals(nu, c, n):
    # the module-side walk against eval_vector, on every monomial of degree <= 2n+2
    eng = DualEngine(c)
    alg = eng.alg
    monos = alg.normal_monomials(2 * n + 2)
    ts = tangent_space(c, [(-1 if nu == "flip" else +1, 2 * n)], engine=eng)
    basis = ts.basis
    assert basis == [EPSILON] + eng.build_module(-1 if nu == "flip" else +1, 2 * n).basis
    walked = _walked(fodc._module_letters(ts), [v.value_at_unit() for v in basis], monos)
    elems = [alg.element({m: ONE}) for m in monos]
    assert walked == [[eng.eval_vector(v, x) for x in elems] for v in basis]
    chi = chi_functionals(n, nu, c, engine=eng)
    k = len(chi["monomials"])
    assert chi["module_rows"] == [
        [eng.eval_vector(v - v.value_at_unit() * EPSILON, x) for x in elems[:k]]
        for v in basis[1:]]


def _swap_m_p(letters):
    return dict(letters, m=letters["p"], p=letters["m"])


@pytest.mark.parametrize("side", ["chi", "module"])
def test_swapped_letter_matrices_break_the_span_identification(monkeypatch, side):
    if side == "chi":
        real = fodc._chi_letters

        def swapped(pres):
            letters, eps_W = real(pres)
            return _swap_m_p(letters), eps_W

        monkeypatch.setattr(fodc, "_chi_letters", swapped)
    else:
        real = fodc._module_letters
        monkeypatch.setattr(fodc, "_module_letters", lambda ts: _swap_m_p(real(ts)))
    for n, joint in ((1, 6), (2, 10)):
        chi = chi_functionals(n, "id", GENERIC, engine=DualEngine(GENERIC))
        assert chi["spans_equal"] is False
        assert chi["rank_joint"] == joint


def test_module_leg_outside_the_tangent_space_fails_spans_equal(monkeypatch, capsys):
    # psi^1_(q) has the right leg psi^0_(q^-1), which is not in T^eps: the
    # tangent space fails coproduct_closed, so spans_equal is false although
    # all three ranks are 2n+1
    real = DualEngine.build_module

    def widened(self, sign, l):
        mod = real(self, sign, l)
        return HWModule(mod.sign, mod.l, mod.lambda0,
                        mod.basis + [PsiVector.symbol(1, qpow(2))],
                        mod.matE, mod.matF, mod.matK)

    monkeypatch.setattr(DualEngine, "build_module", widened)
    eng = DualEngine(GENERIC)
    chi = chi_functionals(1, "id", GENERIC, engine=eng)
    assert (chi["rank_chi"], chi["rank_module"], chi["rank_joint"]) == (3, 3, 3)
    assert chi["spans_equal"] is False
    cert = tangent_space(GENERIC, [(1, 2)], engine=eng).certificate
    assert cert["coproduct_closed"] is False
    assert cert["coproduct_witness"] == (str(PsiVector.symbol(1, qpow(2))),
                                         str(PsiVector.symbol(0, qpow(-2))))
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    assert main(["--format", "json", "selftest", "--only", "AC-8"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (report,) = json.loads(captured.out)["certificates"]
    assert report["pass"] is False and report["details"]["n=1"]["spans_equal"] is False


def _whole_monomial_twist(pres, mono):
    """T[i][j] = sum nu(m(0)) r(m(1), S^-1 psi_ij) over the coaction of the whole
    monomial: row i is the action on gamma^i."""
    alg, N = pres.alg, pres.N
    t = [[alg.element() for _ in range(N)] for _ in range(N)]
    for am, x in alg.coact(alg.element({mono: ONE})).terms.items():
        left = nu_apply(pres.nu, x)
        leg = oqsl2.SL2Element({am: ONE})
        for (i, j), sinv in pres.sinv_psi.terms.items():
            t[i][j] = t[i][j] + oqsl2.rform(leg, sinv) * left
    return t


@pytest.mark.parametrize("n, nu, c, degree", [
    (1, "id", GENERIC, 4), (2, "id", GENERIC, 4), (1, "flip", INF, 4),
    (1, "id", CParam.generic(2), 3), (2, "flip", INF, 3)])
def test_twist_equals_the_whole_monomial_rule(n, nu, c, degree):
    # lmult composes the letter twists; on each normal monomial and gamma^i
    # that is the twisted rule of the whole monomial
    pres = build_rform_calculus(n, nu, c, engine=DualEngine(c))
    alg = pres.alg
    for m in alg.normal_monomials(degree):
        whole = _whole_monomial_twist(pres, m)
        for i in range(pres.N):
            gamma = [alg.unit() if k == i else alg.element() for k in range(pres.N)]
            assert pres.lmult(alg.element({m: ONE}), gamma) == whole[i], (m, i)
    assert pres.bimodule_report() == {"pass": True, "failures": []}


def test_swapped_letter_twists_fail_all_four_rules(monkeypatch, capsys):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = fodc.CalculusPresentation._twist
    swap = {"m": "p", "p": "m"}
    monkeypatch.setattr(fodc.CalculusPresentation, "_twist",
                        lambda self, g: real(self, swap.get(g, g)))
    for n in (1, 2):
        pres = build_rform_calculus(n, "id", GENERIC, engine=DualEngine(GENERIC))
        assert [rule for rule, _ in pres.bimodule_report()["failures"]] == [
            "em1*A", "e1*A", "em1*e1", "e1*em1"]
    assert main(["--format", "json", "build-fodc", "--n", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"][0]["pass"] is False


def test_a_twist_entry_times_q_fails_three_rules(monkeypatch, capsys):
    # T_A[0][0] = M_A[0, 0] of the n=1 id calculus at s=1, multiplied by q
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = fodc.CalculusPresentation._twist

    def planted(self, g):
        m = real(self, g)
        return Matrix({**m.terms, (0, 0): m[0, 0] * Q}) if g == "A" else m

    monkeypatch.setattr(fodc.CalculusPresentation, "_twist", planted)
    pres = build_rform_calculus(1, "id", GENERIC, engine=DualEngine(GENERIC))
    assert [rule for rule, _ in pres.bimodule_report()["failures"]] == [
        "e1*A", "em1*e1", "e1*em1"]
    assert main(["--format", "json", "build-fodc", "--n", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"][0]["pass"] is False


def test_leibniz_to_degree_four_at_n2(eng):
    # the bounded oracle next to the four-rule certificate
    rep = build_rform_calculus(2, "id", GENERIC, engine=eng).leibniz_report(4)
    assert rep == {"pass": True, "failures": [], "bound": 4}


def _direct_d(pres, x):
    """omega x - x omega, the left action applied letter by letter (`lmult`)."""
    return [u - v for u, v in zip(pres.rmult(pres.omega, x), pres.lmult(x, pres.omega))]


def _direct_leibniz_failures(pres, bound):
    """The monomial pairs failing d(xy) = x d(y) + d(x) y, each pair recomputed
    through `lmult` alone."""
    alg = pres.alg
    monos = [m for m in alg.normal_monomials(bound) if m]
    failures = []
    for m1 in monos:
        for m2 in monos:
            if len(m1) + len(m2) <= bound:
                x, y = alg.element({m1: ONE}), alg.element({m2: ONE})
                rhs = [u + v for u, v in zip(pres.lmult(x, _direct_d(pres, y)),
                                             pres.rmult(_direct_d(pres, x), y))]
                if _direct_d(pres, x * y) != rhs:
                    failures.append((m1, m2))
    return failures


@pytest.mark.parametrize("n, nu, c, bound", [(1, "id", GENERIC, 4), (2, "id", GENERIC, 4),
                                             (1, "flip", INF, 3)])
def test_the_suffix_walk_gives_the_direct_d_and_leibniz(n, nu, c, bound):
    # a fresh calculus, so that d and Leibniz start from empty tables
    pres = build_rform_calculus(n, nu, c, engine=DualEngine(c))
    rep = pres.leibniz_report(bound)
    assert rep == {"pass": True, "failures": _direct_leibniz_failures(pres, bound),
                   "bound": bound}
    alg = pres.alg
    for m in alg.normal_monomials(bound):
        assert pres.d(alg.element({m: ONE})) == _direct_d(pres, alg.element({m: ONE}))
    x = alg.e0() * alg.e1() - Q * alg.A() + 2
    assert pres.d(x) == _direct_d(pres, x)


@pytest.mark.parametrize("letter, ij", [("m", (0, 0)), ("A", (0, 0)), ("A", (1, 0)),
                                        ("p", (1, 0))], ids=["m00", "A00", "A10", "p10"])
@pytest.mark.parametrize("n, nu, c", [(1, "id", GENERIC), (2, "id", GENERIC), (1, "flip", INF)],
                         ids=["n1-id", "n2-id", "n1-flip-inf"])
@pytest.mark.parametrize("bound", [3, 4])
def test_a_twist_entry_times_q_fails_the_walked_leibniz_on_the_direct_pairs(
        monkeypatch, letter, ij, n, nu, c, bound):
    # one letter-matrix entry times q (M_A[0, 0] is the plant of
    # test_a_twist_entry_times_q_fails_three_rules), in a fresh engine
    real = fodc.CalculusPresentation._twist

    def planted(self, g):
        m = real(self, g)
        return Matrix({**m.terms, ij: m[ij] * Q}) if g == letter else m

    monkeypatch.setattr(fodc.CalculusPresentation, "_twist", planted)
    pres = build_rform_calculus(n, nu, c, engine=DualEngine(c))
    rep = pres.leibniz_report(bound)
    assert rep["pass"] is False and rep["bound"] == bound
    assert rep["failures"] == _direct_leibniz_failures(pres, bound) != []


def test_leibniz_makes_one_letter_product_per_non_normal_word(monkeypatch):
    # with M_m omega kept for every normal m of degree <= 4, each distinct
    # word x y that is not normal costs one product and a normal one none
    pres = build_rform_calculus(2, "id", GENERIC, engine=DualEngine(GENERIC))
    alg = pres.alg
    monos = [m for m in alg.normal_monomials(4) if m]
    for m in monos:
        pres.d(alg.element({m: ONE}))
    words = {x + y for x in monos for y in monos if len(x + y) <= 4}
    non_normal = {w for w in words if alg.reduce_word(w) != {w: ONE}}
    assert len(non_normal) < len(words)
    calls = []
    real = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: (
        isinstance(other, Matrix) and calls.append(other)) or real(self, other))

    def refused(*args):
        raise AssertionError("leibniz_report builds d(x) y or d(xy)")

    monkeypatch.setattr(fodc.CalculusPresentation, "rmult", refused)
    monkeypatch.setattr(fodc.CalculusPresentation, "_d_terms", refused)
    assert pres.leibniz_report(4)["pass"]
    assert len(calls) == len(non_normal)


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_leibniz_report_refuses_bounds_below_two(eng, bound):
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    with pytest.raises(ValueError, match="total degree bound >= 2"):
        pres.leibniz_report(bound)


def _count_linalg_calls(monkeypatch):
    """The names of the exact eliminations and modular pivot searches made."""
    calls = []
    for name in ("_eliminate", "_pivot_rows_mod_p"):
        monkeypatch.setattr(linalg, name, lambda *a, real=getattr(linalg, name), name=name:
                            calls.append(name) or real(*a))
    return calls


def test_an_engine_certifies_each_result_once(monkeypatch):
    eng = DualEngine(GENERIC)
    calls = _count_linalg_calls(monkeypatch)
    ts, mod = tangent_space(GENERIC, [(1, 2), (1, 4)], engine=eng), eng.build_module(1, 4)
    assert "_eliminate" in calls
    calls.clear()
    again = tangent_space(GENERIC, [(1, 4), (1, 2), (1, 2)], engine=eng)
    assert (again.components, again.dim, again.certificate) == (
        ts.components, ts.dim, ts.certificate)
    assert again.basis == ts.basis and again.certificate is not ts.certificate
    mod_again = eng.build_module(1, 4)
    assert mod_again is not mod and mod_again.matF is not mod.matF
    assert ([mod_again.basis, mod_again.matE, mod_again.matF, mod_again.matK]
            == [mod.basis, mod.matE, mod.matF, mod.matK])
    assert calls == []
    # the bimodule report is kept on its calculus
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    rep = pres.bimodule_report()
    monkeypatch.setattr(fodc, "rule_failures", None)        # a second run would raise
    assert pres.bimodule_report() == rep and rep["pass"]


def test_editing_a_returned_report_changes_no_later_answer():
    eng = DualEngine(GENERIC)
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    ts = tangent_space(GENERIC, [(1, 4)], engine=eng)
    fr, bi = verify_freeness(pres, 2), pres.bimodule_report()
    want = copy.deepcopy((ts.certificate, fr, bi, irreducibility_report(ts)))
    ts.certificate["pass"] = False
    del ts.certificate["xc_closed"]
    del ts.modules[0].matF.terms[(1, 2)]
    ts.modules[0].basis.pop()
    del eng.build_module(1, 4).matF.terms[(2, 3)]
    fr["pass"] = False
    fr["ungenerated"].append(("m",))
    bi["failures"].append("planted")
    again = tangent_space(GENERIC, [(1, 4)], engine=eng)
    assert (again.certificate, verify_freeness(pres, 2), pres.bimodule_report(),
            irreducibility_report(again)) == want
    assert all(w["pass"] for w in want)
    assert len(eng.build_module(1, 4).basis) == 5


def _swap_first_columns(psi):
    return Matrix({(i, {0: 1, 1: 0}.get(j, j)): x for (i, j), x in psi.terms.items()})


def _count_comodule_builds(monkeypatch):
    calls = []
    real = fodc.comodule_matrix

    def counted(alg, W):
        calls.append(len(W))
        return real(alg, W)

    monkeypatch.setattr(fodc, "comodule_matrix", counted)
    return calls


def test_one_engine_builds_each_calculus_once(monkeypatch):
    calls = _count_comodule_builds(monkeypatch)
    engine = DualEngine(GENERIC)
    chi_functionals(1, "id", GENERIC, engine=engine)
    chibar_report(1, GENERIC, engine=engine)
    pres = build_rform_calculus(1, "id", GENERIC, engine=engine)
    assert calls == [3]
    assert build_rform_calculus(1, "id", GENERIC, engine=engine) is pres
    assert calls == [3]


def test_calculi_are_not_shared_across_n_nu_or_engines(monkeypatch):
    calls = _count_comodule_builds(monkeypatch)
    engine, other = DualEngine(INF), DualEngine(INF)
    built = [build_rform_calculus(n, nu, INF, engine=e)
             for n, nu, e in ((1, "id", engine), (2, "id", engine),
                              (1, "flip", engine), (1, "id", other))]
    assert len({id(p) for p in built}) == 4
    assert [(p.n, p.nu) for p in built] == [(1, "id"), (2, "id"), (1, "flip"), (1, "id")]
    assert calls == [3, 5, 3, 3]


def test_an_engine_builds_only_at_its_own_c():
    engine = DualEngine(GENERIC)
    for c in (INF, CParam.generic(2)):
        with pytest.raises(ValueError, match="cannot build the calculus"):
            build_rform_calculus(1, "id", c, engine=engine)
        with pytest.raises(ValueError, match="cannot build the calculus"):
            chi_functionals(1, "id", c, engine=engine)
    assert build_rform_calculus(1, "id", CParam.generic(1), engine=engine).c == GENERIC


def test_without_an_engine_calls_share_the_process_engine(monkeypatch):
    calls = _count_comodule_builds(monkeypatch)
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    first = build_rform_calculus(1, "id", GENERIC)
    assert build_rform_calculus(1, "id", CParam.generic(1)) is first
    assert build_rform_calculus(1, "id", GENERIC, engine=dualfunc.engine_of(GENERIC)) is first
    assert calls == [3]
    monkeypatch.setattr(dualfunc, "_ENGINES", {})    # as in a new process
    assert build_rform_calculus(1, "id", GENERIC) is not first
    assert calls == [3, 3]


def test_comodule_matrix_check_catches_swapped_columns(eng, monkeypatch):
    alg = eng.alg
    W = submodule_Vn(1, alg)
    psi, _ = comodule_matrix(alg, W)
    check_comodule_matrix(alg, W, psi)
    with pytest.raises(AssertionError, match=r"^Delta\(b_0\) is not sum_j b_j \(x\) psi_j0$"):
        check_comodule_matrix(alg, W, _swap_first_columns(psi))
    # the CLI reports the failed identity as an internal check failure, on
    # every call: a calculus that failed its checks is not kept
    real = fodc.check_comodule_matrix
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(fodc, "check_comodule_matrix",
                        lambda alg, W, psi: real(alg, W, _swap_first_columns(psi)))
    assert main(["--format", "json", "build-fodc", "--n", "1"]) == 3
    assert main(["--format", "json", "build-fodc", "--n", "1"]) == 3


def test_chibar(eng):
    for n in (1, 2):
        assert chibar_report(n, GENERIC, engine=eng) == {
            "pass": True, "generators": True, "equals_psi": True, "is_character": True}


@pytest.mark.parametrize("n", [1, 2])
def test_chibar_equals_psi_at_the_element_level(eng, n):
    # the bounded oracle: eps(e1)^-n r(a, S^-1(e1^n)) by one r-form per element
    alg = eng.alg
    scale = (alg.eps_weights()[2] ** n).inv()
    sb = oqsl2.antipode(alg.embed(alg.e1() ** n), inverse=True)

    def chibar(x):
        return scale * oqsl2.rform(alg.embed(x), sb)

    for m in alg.normal_monomials(4):
        x = alg.element({m: ONE})
        assert chibar(x) == eng.psi_eval((0, 0, qpow(-4 * n)), x), m
    for m1 in alg.normal_monomials(2):
        for m2 in alg.normal_monomials(1):
            x, y = alg.element({m1: ONE}), alg.element({m2: ONE})
            assert chibar(x * y) == chibar(x) * chibar(y), (m1, m2)


@pytest.mark.parametrize("letter, j, failed", [
    ("p", 1, "is_character"), ("A", 0, "equals_psi")])
def test_chibar_planted_entry_in_row_zero_fails(monkeypatch, letter, j, failed):
    # an entry off the diagonal of row 0 breaks the character; one added on
    # the diagonal of G(A) moves its value away from psi^0_(q^-4n)
    real = fodc._chi_letters

    def planted(pres):
        letters, eps_W = real(pres)
        letters[letter] = letters[letter] + Matrix({(0, j): ONE})
        return letters, eps_W

    monkeypatch.setattr(fodc, "_chi_letters", planted)
    rep = chibar_report(1, GENERIC, engine=DualEngine(GENERIC))
    assert rep[failed] is False and rep["pass"] is False


def test_tangent_space_json_roundtrip(eng):
    ts = tangent_space(GENERIC, [(1, 2)], engine=eng)
    doc = tangent_space_json(ts)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["dim_calculus"] == 3


def test_presentation_json_roundtrip(eng):
    pres = build_rform_calculus(1, "id", GENERIC, engine=eng)
    doc = pres.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["dim"] == 3
    assert doc["components"] == [[1, 2]]
    assert set(doc["differential_table"]) == {"em1", "e0", "e1", "A"}


@pytest.mark.parametrize("n, nu, c", [(1, "id", GENERIC), (1, "flip", INF)])
def test_memoized_differential_is_the_commutator(n, nu, c):
    pres = build_rform_calculus(n, nu, c, engine=DualEngine(c))
    alg = pres.alg
    assert pres.is_zero_coords(pres.d(alg.unit()))
    monos = [m for m in alg.normal_monomials(2) if m]
    rng = random.Random("d/%s/%d" % (nu, n))
    for _ in range(4):
        picked = rng.sample(monos, 3)
        x = alg.element({m: RatFunc.from_int(rng.choice((-3, -2, 2, 3)))
                         for m in picked})
        direct = [u - v for u, v in zip(pres.rmult(pres.omega, x),
                                        pres.lmult(x, pres.omega))]
        assert pres.d(x) == direct
        assert pres.d(x) == direct
    # the cached d(m) is never handed out: editing a result changes nothing
    m = alg.element({monos[0]: ONE})
    first = pres.d(m)
    want = [alg.element(dict(u.terms)) for u in first]
    first[0] = alg.unit()
    for u in first[1:]:
        u.terms.clear()
    assert pres.d(m) == want
    assert not pres.is_zero_coords(want)


STRAY = (0, 9, qpow(5))             # psi^9_(q^(5/2)), in no tangent space here


def _leave_the_span(monkeypatch, eng, where):
    """Patch eng so that X_c of the top vector, or a coproduct leg of the
    highest weight vector, of the (+1, 2) module leaves T^eps."""
    basis = eng.build_module(1, 2).basis
    if where in ("xc", "both"):
        real_xc = eng.xc_right_action
        monkeypatch.setattr(eng, "xc_right_action", lambda v: real_xc(v) + (
            PsiVector({STRAY: ONE}) if v == basis[-1] else PsiVector()))
    if where in ("coproduct", "both"):
        real_cop = eng.psi_coproduct
        (hw,) = basis[0].terms
        monkeypatch.setattr(eng, "psi_coproduct", lambda sym: real_cop(sym) + (
            [(ONE, (0, 1, qpow(6)), STRAY)] if sym == hw else []))
    return basis


@pytest.mark.parametrize("where", ["xc", "coproduct", "both"])
def test_closure_witnesses(monkeypatch, where):
    eng = DualEngine(GENERIC)
    basis = _leave_the_span(monkeypatch, eng, where)
    cert = tangent_space(GENERIC, [(1, 2)], engine=eng).certificate
    want = {"dim_matches": True, "coproduct_closed": where == "xc",
            "xc_closed": where == "coproduct", "pass": False,
            "first_failure": "xc_closed" if where == "xc" else "coproduct_closed"}
    if where != "coproduct":
        want["xc_witness"] = str(basis[-1])
    if where != "xc":
        want["coproduct_witness"] = (str(PsiVector({(0, 1, qpow(6)): ONE})),
                                     str(PsiVector({STRAY: ONE})))
    assert cert == want


def _orbit_irreducibility(ts):
    """The orbit search: the phi/varphi orbit of each module vector spans T^eps / C eps."""
    engine = ts.engine

    def project(v):
        return PsiVector({s: x for s, x in v.terms.items() if s != (0, 0, ONE)})

    proj = [project(v) for v in ts.basis[1:]]
    failures = []
    for k in range(len(proj)):
        span = frontier = [proj[k]]
        while frontier:             # the images of a frontier are tested together
            images = [img for v in frontier
                      for img in (project(engine.phi(v)), project(engine.varphi(v)))]
            frontier = [img for img, x in zip(images, fodc._span_solve(span, images)[1])
                        if x is None]
            span = span + frontier
        if fodc._span_solve(span, [])[0] != len(proj):
            failures.append(k)
    return {"pass": not failures, "failures": failures}


@pytest.mark.parametrize("spec", ["s=1", "s=2", "inf", "exc:1", "exc:2"])
def test_irreducibility_equals_the_orbit_search(spec):
    # every single component of J^c with l <= 8
    c = parse_param_spec(spec)
    eng = DualEngine(c)
    for sl in eng.scan_weights(8):
        ts = tangent_space(c, [sl], engine=eng)
        rep = irreducibility_report(ts)
        if sl == (1, 0):
            assert rep == {"pass": True, "note": "trivial component"}
        else:
            assert rep == _orbit_irreducibility(ts), sl


def _planted_module(monkeypatch, plant):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = DualEngine.build_module

    def planted(self, sign, l):
        mod = real(self, sign, l)
        basis, entriesF = list(mod.basis), dict(mod.matF.terms)
        plant(basis, entriesF)
        return HWModule(mod.sign, mod.l, mod.lambda0, basis, mod.matE, Matrix(entriesF),
                        mod.matK)

    monkeypatch.setattr(DualEngine, "build_module", planted)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_zero_superdiagonal_entry_of_F_fails_from_j_on(monkeypatch, j):
    # varphi v_j = 0 cuts v_j, ..., v_l off from v_0, ..., v_(j-1)
    _planted_module(monkeypatch, lambda basis, F: F.pop((j - 1, j)))
    ts = tangent_space(GENERIC, [(1, 4)], engine=DualEngine(GENERIC))
    assert ts.certificate["pass"]
    assert irreducibility_report(ts) == {"pass": False, "failures": list(range(j, 5))}


def test_dependent_module_basis_fails_every_vector(monkeypatch):
    # with v_2 replaced by v_1 the span is no module: phi v_1, the true v_2,
    # lies outside it.  The orbit search followed phi out of the span and passed.
    _planted_module(monkeypatch, lambda basis, F: basis.__setitem__(2, basis[1]))
    ts = tangent_space(GENERIC, [(1, 4)], engine=DualEngine(GENERIC))
    assert ts.certificate["dim_matches"] is False
    assert irreducibility_report(ts) == {"pass": False, "failures": [0, 1, 2, 3, 4]}
    assert _orbit_irreducibility(ts)["pass"]


def _tensor(pairs):
    """{(left symbol, right symbol): coefficient} of sum x (x) y over (x, y) PsiVector pairs."""
    out = {}
    for x, y in pairs:
        for s1, c1 in x.terms.items():
            for s2, c2 in y.terms.items():
                accumulate(out, {(s1, s2): c1 * c2})
    return out


@pytest.mark.parametrize("spec, components", [
    ("s=1", [(1, 2)]), ("s=1", [(1, 2), (1, 4)]), ("inf", [(-1, 0), (1, 2)]),
    ("inf", [(-1, 2)])])
def test_the_coproduct_matrix_of_a_tangent_space_gives_every_leg(spec, components):
    # Delta basis[i] = sum_k L[i, k] (x) basis[k], against psi_coproduct term by term
    c = parse_param_spec(spec)
    eng = DualEngine(c)
    ts = tangent_space(c, components, engine=eng)
    assert ts.certificate["pass"]
    for i, v in enumerate(ts.basis):
        delta = _tensor((PsiVector({left: cc * coeff}), PsiVector({right: ONE}))
                        for sym, coeff in v.terms.items()
                        for cc, left, right in eng.psi_coproduct(sym))
        assert _tensor((ts.L[i, k], ts.basis[k]) for (j, k) in ts.L.terms if j == i) == delta
    # each call gets its own L
    ts.L.terms.clear()
    assert tangent_space(c, components, engine=eng).L.terms


def test_chi_functionals_solves_nothing_once_its_spaces_are_kept(monkeypatch):
    # the calculus's comodule solve and T^eps's one elimination are kept on the
    # engine, and T^eps is the tangent space that `classify` keeps
    calls, real = [], linalg.solve_with_rank
    monkeypatch.setattr(linalg, "solve_with_rank", lambda a, b: calls.append(1) or real(a, b))
    for n, nu, c in ((1, "id", GENERIC), (2, "id", GENERIC), (1, "flip", INF)):
        eng = DualEngine(c)
        build_rform_calculus(n, nu, c, engine=eng)
        for sl in eng.scan_weights(2 * n):
            tangent_space(c, [sl], engine=eng)
        calls.clear()
        assert chi_functionals(n, nu, c, engine=eng)["spans_equal"]
        assert calls == [], (n, nu)


def test_one_elimination_per_tangent_space_and_none_per_irreducibility(monkeypatch):
    eng = DualEngine(GENERIC)
    eng.scan_weights(4)                 # the weight verdicts rank matrices of their own
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, nc: calls.append(nc) or real(rows, nc))
    for components in ([(1, 2)], [(1, 2), (1, 4)], [(1, 0), (1, 4)], [(1, 4)]):
        calls.clear()
        ts = tangent_space(GENERIC, components, engine=eng)
        assert ts.certificate["pass"] and len(calls) == 1, components
    calls.clear()
    assert irreducibility_report(ts)["pass"] and calls == []


def test_tangent_space_report_names_a_coproduct_witness(monkeypatch, capsys):
    # a failed closure is a failed certificate in the JSON report, not a traceback
    real = DualEngine.psi_coproduct
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(DualEngine, "psi_coproduct", lambda self, sym: real(self, sym) + (
        [(ONE, (0, 1, qpow(6)), STRAY)] if sym == (0, 0, qpow(-4)) else []))
    assert main(["--format", "json", "tangent-space", "--c", "s=1", "--components=+2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["coproduct_witness"] == [
        str(PsiVector({(0, 1, qpow(6)): ONE})), str(PsiVector({STRAY: ONE}))]
    assert doc["certificate"]["first_failure"] == "coproduct_closed"


def _w_with_a_non_comodule_vector(monkeypatch):
    # b_0 = e_1 replaced by A^2, whose coaction has legs outside V(1)
    real = fodc.submodule_Vn
    monkeypatch.setattr(fodc, "submodule_Vn",
                        lambda n, alg: [alg.A() * alg.A()] + real(n, alg)[1:])


def _psi_entry_times_q(monkeypatch):
    real = fodc.check_comodule_matrix
    monkeypatch.setattr(fodc, "check_comodule_matrix", lambda alg, W, psi: real(
        alg, W, Matrix({**psi.terms, (0, 0): Q * psi[0, 0]})))


def _varphi_coefficient_times_q(monkeypatch):
    # the psi^2 -> psi^1 coefficient of varphi, met in v_2 of the +2 module
    real = DualEngine._per_l
    monkeypatch.setattr(DualEngine, "_per_l", lambda self, l: (
        real(self, l) if l != 2 else (real(self, l)[0], Q * real(self, l)[1])))


def _phi_top_coefficient_without_the_square(monkeypatch):
    # q^2 (q^(2l) - lam) for q^2 (q^(2l) - lam^2): phi of the top vector at
    # lam = -1 gains a psi^1 term outside span{psi^0}
    monkeypatch.setattr(dualfunc, "_phi_coefficients", lambda a_l, alpha_q, q2, q2l, lam: (
        a_l, alpha_q * (q2l - lam), q2 * (q2l - lam)))


@pytest.mark.parametrize("plant, argv, message", [
    (_w_with_a_non_comodule_vector, ["build-fodc", "--n", "1"],
     "coaction leg leaves the W-span"),
    (_psi_entry_times_q, ["build-fodc", "--n", "1"],
     "Delta(b_0) is not sum_j b_j (x) psi_j0"),
    (_varphi_coefficient_times_q, ["tangent-space", "--c", "s=1", "--components=+2"],
     "varphi does not stay on the orbit line"),
    (_phi_top_coefficient_without_the_square, ["selftest", "--only", "AC-4"],
     "phi image leaves the expected span"),
], ids=["W-leg", "psi-entry", "varphi", "phi-span"])
def test_a_planted_fault_reaches_its_internal_check(monkeypatch, capsys, plant, argv,
                                                    message):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    plant(monkeypatch)
    code = main(["--format", "json"] + argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "internal check failed: %s\n" % message


def test_d_returns_fresh_coordinates_and_leaves_its_cache_alone():
    pres = build_rform_calculus(1, "id", GENERIC, engine=DualEngine(GENERIC))
    alg = pres.alg
    for x in (alg.element({("A", "p"): ONE}), alg.e0() * alg.e1() - Q * alg.A() + 2):
        first = pres.d(x)
        want = [dict(v.terms) for v in first]
        kept = {m: [dict(v.terms) for v in dm] for m, dm in pres._d_cache.items()}
        second = pres.d(x)
        assert second is not first
        assert all(u is not v and u.terms is not v.terms for u, v in zip(first, second))
        for v in first:                 # mutate every entry and the list itself
            v.terms.clear()
            v.terms[("m",)] = Q
        first.append(alg.unit())
        assert [v.terms for v in second] == want
        assert [v.terms for v in pres.d(x)] == want
        assert {m: [v.terms for v in dm] for m, dm in pres._d_cache.items()} == kept


def test_d_of_a_seeded_combination_is_the_sum_over_its_monomials():
    rng = random.Random(4821)
    pres = build_rform_calculus(1, "id", GENERIC, engine=DualEngine(GENERIC))
    alg = pres.alg
    monos = alg.normal_monomials(3)
    for _ in range(10):
        coeffs = {m: qpow(rng.randint(-3, 3)) * rng.choice((-2, -1, 1, 3))
                  for m in rng.sample(monos, rng.randint(1, 6))}
        if len(coeffs) > 1 and rng.random() < 0.5:
            coeffs[next(iter(coeffs))] = ONE            # a term on the unit coefficient
        want = [alg.element() for _ in range(pres.N)]
        for m, c in coeffs.items():
            want = [u + c * v for u, v in zip(want, pres.d(alg.element({m: ONE})))]
        got = pres.d(alg.element(coeffs))
        assert got == want
        assert all(v for u in got for v in u.terms.values())
