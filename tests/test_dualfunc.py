import pytest

from qsphere.scalars import ZERO, ONE, Q, QHAT, RatFunc, CParam, qpow
from qsphere import dualfunc, fodc, oqsl2, scalars, selftest, uqsl2rep
from qsphere.dualfunc import DualEngine, PsiVector, EPSILON
from qsphere.uqsl2rep import BETA, GAMMA, xc_alpha

GENERIC = CParam.generic(1)
EXC_HALF = CParam.generic((qpow(1) - qpow(-1)).inv())


@pytest.fixture(scope="module")
def eng():
    return DualEngine(GENERIC)


@pytest.fixture(scope="module")
def eng_inf():
    return DualEngine(CParam.infinity())


def test_rejects_zero_c():
    with pytest.raises(ValueError):
        DualEngine(CParam.zero())


def test_kappa_is_subscript_multiplication(eng):
    v = PsiVector.symbol(2, qpow(-8))
    assert eng.kappa(v) == qpow(-8) * v


def test_varphi_kills_l0(eng):
    assert eng.varphi(PsiVector.symbol(0, RatFunc.from_int(7))).is_zero()


def test_phi_fixes_counit(eng):
    assert eng.phi(EPSILON).is_zero()
    assert eng.xc_right_action(EPSILON).is_zero()


def test_xc_right_action_l0_formula(eng):
    lam = RatFunc.from_int(3)
    got = eng.xc_right_action(PsiVector.symbol(0, lam))
    a = eng.alpha
    want = (a * (1 - lam)) * PsiVector.symbol(0, qpow(4) * lam) \
        + (Q * (1 - lam * lam)) * PsiVector.symbol(1, qpow(4) * lam) \
        + (a * (lam - 1)) * PsiVector.symbol(0, lam)
    assert got == want


def test_xc_right_action_linear(eng):
    lam = Q * Q
    u = PsiVector.symbol(0, lam)
    v = PsiVector.symbol(1, lam)
    assert eng.xc_right_action(u + v) == eng.xc_right_action(u) + eng.xc_right_action(v)


def test_operator_relations_sample(eng):
    for lam in (ONE, Q, RatFunc.from_int(2)):
        for l in range(0, 5):
            v = PsiVector.symbol(l, lam)
            lhs = eng.phi(eng.varphi(v)) - eng.varphi(eng.phi(v))
            rhs = (eng.kappa(v) - eng.kappa(v, -1)) * QHAT.inv()
            assert lhs == rhs


def test_operator_engine_rejects_m_nonzero(eng):
    v = PsiVector.symbol(1, Q, m=1)
    with pytest.raises(ValueError):
        eng.phi(v)


def test_psi_coproduct(eng):
    lam = RatFunc.from_int(5)
    assert eng.psi_coproduct((0, 0, lam)) == [(ONE, (0, 0, lam), (0, 0, lam))]
    terms = eng.psi_coproduct((0, 1, lam))
    assert terms == [(ONE, (0, 0, lam), (0, 1, lam)),
                     (ONE, (0, 1, lam), (0, 0, qpow(-4) * lam))]
    # counit law: only the r = l term survives evaluation of the right leg at 1
    l = 3
    total = PsiVector()
    for c, s1, s2 in eng.psi_coproduct((0, l, lam)):
        if s2[1] == 0:
            total = total + c * PsiVector({s1: ONE})
    assert total == PsiVector.symbol(l, lam)


def test_psi_eval_examples(eng):
    alg = eng.alg
    assert eng.psi_eval((0, 0, ONE), alg.e1()) == alg.counit(alg.e1())
    lam = Q * Q
    for i, e in ((-1, alg.em1()), (0, alg.e0()), (1, alg.e1())):
        assert eng.psi_eval((0, 0, lam), e) == lam ** i * alg.counit(e)


def test_psi_eval_root_independence(eng):
    # for a square subscript both explicit roots give the evaluation
    alg = eng.alg
    lam = qpow(8)          # mu = ±q^2
    x = alg.A() * alg.e1() * alg.e1()
    got = eng.psi_eval((0, 2, lam), x)
    for mu in (qpow(4), -qpow(4)):
        word = (("f", mu), ("E",), ("E",))
        assert oqsl2.Evaluator().eval(word, alg.embed(x)) == got


def test_embedded_monomials_have_even_length():
    # the premise that keeps psi values in Q(t): f_mu contributes mu^(n mod 2)
    # on a monomial of length n, and the sphere embeds into even lengths
    for c in (GENERIC, CParam.infinity(), EXC_HALF):
        eng = DualEngine(c)
        for mono in eng.alg.normal_monomials(4):
            img = eng.alg.embed(eng.alg.element({mono: ONE}))
            assert all(len(w) % 2 == 0 for w in img.terms), (c, mono)


def test_psi_eval_rejects_an_odd_length_monomial(monkeypatch):
    eng = DualEngine(GENERIC)
    alg = eng.alg
    real = alg.embed
    # plant u_12 = b, of length 1, beside the embedded image
    monkeypatch.setattr(alg, "embed", lambda x: real(x) + oqsl2.B_)
    with pytest.raises(ArithmeticError, match="odd-length"):
        eng.psi_eval((0, 1, Q), alg.e1())
    word = (("f", Q), ("E",))
    assert oqsl2.Evaluator().eval(word, oqsl2.B_) == ZERO
    with pytest.raises(ArithmeticError, match="odd-length"):
        oqsl2.Evaluator().eval((("fs", Q),) + word[1:], oqsl2.B_)


def test_psi_product_pairing(eng):
    alg = eng.alg
    smalls = alg.normal_monomials(2)[:6]
    lam = Q * Q
    for l in (0, 1, 2):
        cop = eng.psi_coproduct((0, l, lam))
        for m1 in smalls:
            for m2 in smalls:
                x, y = alg.element({m1: ONE}), alg.element({m2: ONE})
                lhs = eng.psi_eval((0, l, lam), x * y)
                rhs = ZERO
                for cc, s1, s2 in cop:
                    rhs = rhs + cc * eng.psi_eval(s1, x) * eng.psi_eval(s2, y)
                assert lhs == rhs


def _act_xc(alg, x):
    """Left action of the twisted primitive element X_c on a sphere element."""
    alpha = xc_alpha(alg.c)
    out = BETA * alg.act("K", alg.act("E", x), -1)
    out = out + GAMMA * alg.act("F", x)
    if alpha:
        out = out + alpha * (alg.act("K", x, -1) - x)
    return out


def test_xc_action_compatible_with_evaluation(eng):
    alg = eng.alg
    for lam in (ONE, RatFunc.from_int(2)):
        for l in (0, 1):
            v = PsiVector.symbol(l, lam)
            vx = eng.xc_right_action(v)
            for mono in alg.normal_monomials(2):
                x = alg.element({mono: ONE})
                assert eng.eval_vector(vx, x) == eng.eval_vector(v, _act_xc(alg, x))


def test_scan_jc(eng, eng_inf):
    assert eng.scan_weights(4) == [(1, 0), (1, 2), (1, 4)]
    assert eng_inf.scan_weights(2) == [(1, 0), (-1, 0), (1, 2), (-1, 2)]
    assert DualEngine(EXC_HALF).scan_weights(3) == [(1, 0), (-1, 1), (1, 2), (-1, 3)]


def _lam0(sign, l):
    return sign * qpow(-2 * l)


def _record_phi(monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    calls = []
    real = DualEngine.phi
    monkeypatch.setattr(DualEngine, "phi",
                        lambda self, v: calls.append(v) or real(self, v))
    return calls


def test_scan_applies_phi_to_members_only(monkeypatch):
    # a non-member is proven by phi^(l+1) psi != 0 at t0 mod P; only the
    # members' orbits are computed exactly, l+1 applications each
    calls = _record_phi(monkeypatch)
    members = DualEngine(CParam.generic(2)).scan_weights(6)
    assert members == [(1, 0), (1, 2), (1, 4), (1, 6)]
    assert len(calls) == sum(l + 1 for _, l in members)
    starts = {PsiVector.symbol(0, _lam0(sign, l)) for l in range(7) for sign in (+1, -1)}
    assert starts & set(calls) == {PsiVector.symbol(0, _lam0(sign, l)) for sign, l in members}


def test_vanishing_denominator_at_t0_takes_the_exact_path(monkeypatch):
    # at t0 = 1 the denominator t^4 - 1 of alpha and of [l]/(q-q^-1)
    # vanishes, so no weight is decided mod P
    want = DualEngine(CParam.generic(2)).scan_weights(6)
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(dualfunc, "_T0", 1)
    calls = _record_phi(monkeypatch)
    assert DualEngine(CParam.generic(2)).scan_weights(6) == want
    for l in range(7):
        for sign in (+1, -1):
            assert PsiVector.symbol(0, _lam0(sign, l)) in calls
    assert len(calls) > sum(l + 1 for _, l in want)


def test_coordinates_zero_at_t0_still_need_their_row(monkeypatch):
    # at exc:1 the member (-1, 1) has phi psi = m psi^0 + (q^2 - 1) psi^1;
    # its psi^1 coordinate vanishes at t0 = 1, but a_1 = -q^2/(q^2 - 1)
    # has no value there, so the weight must not be decided mod P
    want = DualEngine(EXC_HALF).scan_weights(5)
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(dualfunc, "_T0", 1)
    assert DualEngine(EXC_HALF).scan_weights(5) == want


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), CParam.infinity(),
                               EXC_HALF, selftest.c_exc(2)], ids=str)
def test_mod_p_rows_carry_the_exact_rows_terms(c):
    # the terms of phi at t0 mod P are those of the exact row, with their
    # values; alpha = 0 at c = inf, and lam = q^(2l) or lam^2 = q^(2l) on the grid
    eng = DualEngine(c)
    for l in range(6):
        for k in range(-8, 9):
            for sign in (+1, -1):
                lam = sign * qpow(2 * k)
                exact = eng._constants(l, lam)[0]
                mod = eng._mod_row(l, sign, k)
                want = [(sym[1], scalars.eval_mod(x, dualfunc._T0, dualfunc._P))
                        for sym, x in exact.items()]
                if mod is None:
                    assert c != CParam.infinity()
                else:
                    assert mod == want, (l, lam)


def test_scan_builds_exact_rows_for_members_only(monkeypatch):
    # a non-member is decided from the modular rows; only the members'
    # exact orbits read exact rows.  A modular row is built where the scan
    # meets it and is not kept.
    eng = DualEngine(CParam.generic(2))
    built = set()
    real = eng._mod_row
    monkeypatch.setattr(eng, "_mod_row",
                        lambda l, sign, e: built.add((l, sign, e)) or real(l, sign, e))
    members = eng.scan_weights(6)
    rows = {key for key in eng._table if isinstance(key, tuple)}
    assert rows == {(l, lam) for sl in members for v in eng._orbits[sl]
                    for (_, l, lam) in v.terms}
    assert len(rows) < len(built)


def test_scan_matches_ac6_and_non_member_orbits_do_not_vanish():
    rep = selftest.ac6_jc_sets(lmax=10)
    assert rep["pass"]
    cs = {"s=1": GENERIC, "inf": CParam.infinity(),
          "exc:1": selftest.c_exc(1), "exc:2": selftest.c_exc(2)}
    for label, c in cs.items():
        eng = DualEngine(c)
        members = eng.scan_weights(10)
        assert members == [tuple(w) for w in sorted(rep["details"]["scans"][label],
                                                    key=lambda w: (w[1], -w[0]))]
        for l in range(11):
            for sign in (+1, -1):
                if (sign, l) in members:
                    continue
                v = PsiVector.symbol(0, _lam0(sign, l))
                for _ in range(l + 1):
                    v = eng.phi(v)
                assert not v.is_zero(), (label, sign, l)


def test_sign_outside_plus_minus_one_is_refused():
    eng = DualEngine(CParam.infinity())
    with pytest.raises(ValueError, match="sign"):
        eng.is_nilpotent_weight(0, 0)
    assert eng._orbits == {}
    with pytest.raises(ValueError, match="sign"):
        fodc.tangent_space(CParam.infinity(), [(7, 2)])
    for f in (uqsl2rep.xc_matrix, uqsl2rep.kernel_dim, uqsl2rep.xc_tridiagonal_mod):
        for sign in (0, 7):
            with pytest.raises(ValueError, match="sign"):
                f(1, GENERIC, sign)


def test_build_module_reads_the_scanned_orbits(monkeypatch):
    eng = DualEngine(GENERIC)
    members = eng.scan_weights(4)
    calls = []
    real = eng.phi
    monkeypatch.setattr(eng, "phi", lambda v: calls.append(v) or real(v))
    for sign, l in members:
        mod = eng.build_module(sign, l)
        assert len(mod.basis) == l + 1
        assert all(real(u) == w for u, w in zip(mod.basis, mod.basis[1:]))
    assert members == [(1, 0), (1, 2), (1, 4)]
    assert calls == []


def test_early_zero_in_the_orbit_is_refused(monkeypatch):
    # phi kills the second orbit vector of (+1, 2): still nilpotent, as the
    # kernel says, but the orbit is one vector short of a module basis
    eng = DualEngine(GENERIC)
    calls = []
    real = eng.phi

    def planted(v):
        calls.append(v)
        return PsiVector() if len(calls) == 2 else real(v)

    monkeypatch.setattr(eng, "phi", planted)
    assert eng.is_nilpotent_weight(+1, 2)
    with pytest.raises(AssertionError, match="^phi-orbit collapsed early$"):
        eng.build_module(+1, 2)


def test_build_module_trivial(eng):
    mod = eng.build_module(+1, 0)
    assert len(mod.basis) == 1
    assert mod.basis[0] == EPSILON
    assert mod.matK.rows(1) == [[ONE]]
    assert mod.matE.rows(1) == [[ZERO]] and mod.matF.rows(1) == [[ZERO]]


def test_build_module_weights(eng):
    mod = eng.build_module(+1, 2)
    assert [mod.matK[k, k] for k in range(3)] == [qpow(-4), ONE, qpow(4)]
    # E is the shift, nilpotent of order exactly 3
    p = mod.matE * (mod.matE * mod.matE)
    assert p.is_zero()


def test_build_module_exceptional():
    eng = DualEngine(EXC_HALF)
    mod = eng.build_module(-1, 1)
    assert len(mod.basis) == 2
    assert mod.lambda0 == -qpow(-2)
    assert [mod.matK[k, k] for k in range(2)] == [-qpow(-2), -qpow(2)]


def test_build_module_rejects_non_weights(eng):
    with pytest.raises(ValueError):
        eng.build_module(-1, 2)


def test_module_vectors_are_graded():
    # what _build_module takes from `_constants`: psi^k = phi^k psi^0 has the
    # single grade q^(2k) lam0, varphi kills psi^0, and K is diag of the grades
    for c in (GENERIC, CParam.infinity(), selftest.c_exc(1), selftest.c_exc(2)):
        eng = dualfunc.engine_of(c)
        for sign, l in eng.scan_weights(8):
            mod = eng.build_module(sign, l)
            grades = [qpow(4 * k) * mod.lambda0 for k in range(l + 1)]
            for v, grade in zip(mod.basis, grades):
                assert {lam for (_, _, lam) in v.terms} == {grade}, (c, sign, l)
            assert eng.varphi(mod.basis[0]).is_zero()
            assert [mod.matK[k, k] for k in range(l + 1)] == grades


def test_truncated_independence(eng):
    rep = eng.truncated_independence(degree=4)
    assert rep["full_row_rank"] and rep["rows"] == 18 and rep["monomials"] == 25


def test_phi_matrix_rescaled_matches_display(eng):
    from qsphere.uqsl2rep import xc_matrix
    for l in (0, 1, 3):
        for sign in (+1, -1):
            assert eng.phi_matrix_rescaled(sign, l) == xc_matrix(l, GENERIC, sign)
