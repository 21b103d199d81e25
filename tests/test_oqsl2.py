import itertools

import pytest

from qsphere import dualfunc, oqsl2, selftest
from qsphere.algebra import accumulate
from qsphere.cli import main
from qsphere.scalars import ZERO, ONE, Q, QINV, QHAT, RatFunc, parse_ratfunc, qpow
from qsphere.oqsl2 import (A_, B_, C_, D_, UNIT, SL2Element,
                           antipode, coproduct, confluence_report,
                           hopf_axioms_report,
                           pi_coeff, rform, rform_well_defined_report,
                           reduce_word, Evaluator, word_counit, GENS)


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product(GENS, repeat=n)


def _pairs(t):
    """The tensor {a2: a1} = sum a1 (x) a2 as {(mono1, mono2): coeff}."""
    return {(m1, m2): c for m2, left in t.terms.items() for m1, c in left.terms.items()}


def test_unit_law_and_off_diagonal_commute():
    x = B_
    assert UNIT * x == x
    assert B_ * C_ == C_ * B_


def test_determinant_relations():
    # the convention pinned by the embedded sphere relations has
    # ad - q bc = 1 and da - q^-1 bc = 1
    assert A_ * D_ - Q * B_ * C_ == UNIT
    assert D_ * A_ - QINV * B_ * C_ == UNIT


def test_row_column_commutations():
    assert A_ * B_ == Q * (B_ * A_)
    assert A_ * C_ == Q * (C_ * A_)
    assert B_ * D_ == Q * (D_ * B_)
    assert C_ * D_ == Q * (D_ * C_)


def test_confluence_all_degree3_words():
    rep = confluence_report()
    assert rep["confluent"], rep
    assert rep["checked"] == 8          # dab dac dad adb adc ada acb dcb


def test_associativity_on_generators():
    gens = [A_, B_, C_, D_]
    for x, y, z in itertools.product(gens, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_coproduct_examples():
    assert _pairs(coproduct(UNIT)) == {((), ()): ONE}
    cop = _pairs(coproduct(A_))
    assert cop == {(("a",), ("a",)): ONE, (("b",), ("c",)): ONE}
    # algebra map on a product, against the 4-term expansion
    ab = A_ * B_
    lhs = _pairs(coproduct(ab))
    rhs = {}
    for (x1, y1), c1 in _pairs(coproduct(A_)).items():
        for (x2, y2), c2 in _pairs(coproduct(B_)).items():
            prod1 = SL2Element({x1: ONE}) * SL2Element({x2: ONE})
            prod2 = SL2Element({y1: ONE}) * SL2Element({y2: ONE})
            for m1, v1 in prod1.terms.items():
                for m2, v2 in prod2.terms.items():
                    k = (m1, m2)
                    val = rhs.get(k, ZERO) + c1 * c2 * v1 * v2
                    if val:
                        rhs[k] = val
                    elif k in rhs:
                        del rhs[k]
    assert lhs == rhs


def _pair_word_coproduct(word):
    """Delta of a word as {(mono1, mono2): coeff}: every choice of letter legs as a
    pair of free words, both reduced, and the products of their terms summed."""
    pairs = {((), ()): ONE}
    for g in word:
        nxt = {}
        for (u, v), c in pairs.items():
            for x, y in oqsl2._GEN_COPROD[g]:
                key = (u + (x,), v + (y,))
                nxt[key] = nxt.get(key, ZERO) + c
        pairs = nxt
    out = {}
    for (u, v), c in pairs.items():
        accumulate(out, {(m1, m2): c1 * c2 for m1, c1 in reduce_word(u).items()
                         for m2, c2 in reduce_word(v).items()}, c)
    return out


def test_word_coproduct_matches_the_pair_construction():
    monos = sorted({m for w in all_words(4) for m in reduce_word(w)}, key=lambda m: (len(m), m))
    assert len(monos) == sum((n + 1) ** 2 for n in range(5))   # the PBW monomials, length <= 4
    for mono in monos:
        cop = oqsl2.word_coproduct(mono)
        assert all(type(x) is SL2Element for x in cop.terms.values())
        assert _pairs(cop) == _pair_word_coproduct(mono), mono


def test_hopf_axioms():
    rep = hopf_axioms_report()
    assert rep["pass"], rep["failures"]


# -- planted faults: AC-10 must fail where the fault is, as a verdict


@pytest.fixture
def fresh(monkeypatch):
    """Empty process-wide caches, so a planted fault is seen; all restored after."""
    monkeypatch.setattr(oqsl2, "_COPROD_CACHE", {(): oqsl2.word_coproduct(())})
    monkeypatch.setattr(oqsl2._REWRITING, "_nf", {})
    monkeypatch.setattr(oqsl2.EVALUATOR, "_memo", {})
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    return monkeypatch


def _ac10_fails_in(capsys, failing):
    details = selftest.ac10_structural()["details"]
    assert {k for k, v in details.items() if v is False} == failing
    assert main(["selftest", "--only", "AC-10"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("AC-10 FAIL") and captured.err == ""


def test_a_wrong_rule_coefficient_fails_confluence_and_the_hopf_axioms(fresh, capsys):
    fresh.setitem(oqsl2.RULES, ("a", "b"), [(Q * Q, ("b", "a"))])     # ab -> q^2 ba
    # the normal-basis proof multiplies the sphere's coaction in B (x) O_q(SL2)
    _ac10_fails_in(capsys, {"sl2_confluent", "hopf_axioms", "rform_well_defined",
                            "normal_basis_independent"})


def test_a_wrong_antipode_sign_fails_only_the_hopf_axioms(fresh, capsys):
    fresh.setitem(oqsl2._S_LETTER, "b", ("b", QINV))                 # S(b) = +q^-1 b
    failures = hopf_axioms_report()["failures"]
    assert ("antipode", "a*d", "(2*q)*b*c") in failures
    assert ("left antipode", "a", "1 + (2*q^-1)*b*c") in failures
    _ac10_fails_in(capsys, {"hopf_axioms"})


def test_a_wrong_coproduct_leg_fails_the_hopf_axioms_with_a_tensor_residual(fresh, capsys):
    fresh.setitem(oqsl2._GEN_COPROD, "b", [("a", "b"), ("b", "a")])   # b (x) d -> b (x) a
    failures = hopf_axioms_report()["failures"]
    name, rule, residual = failures[0]
    assert (name, rule) == ("coproduct", "a*b") and " (x) " in residual
    assert ("coassociativity", "b", "") in failures
    # the sphere's coaction is no longer coassociative against this Delta
    _ac10_fails_in(capsys, {"hopf_axioms", "normal_basis_independent"})


def test_antipode_examples():
    assert antipode(UNIT) == UNIT
    x = B_
    assert antipode(antipode(x, inverse=True)) == x
    assert antipode(antipode(x)) == qpow(-4) * x
    # S and S^-1 invert each other on every PBW monomial of length <= 3
    for mono in sorted({m for w in all_words(3) for m in reduce_word(w)}):
        m = SL2Element({mono: ONE})
        assert antipode(antipode(m, inverse=True)) == m == antipode(antipode(m), inverse=True)
    # m(S (x) id) Delta(a) = eps(a) 1
    total = SL2Element()
    for (m1, m2), c in _pairs(coproduct(A_)).items():
        total = total + antipode(SL2Element({m1: c})) * SL2Element({m2: ONE})
    assert total == UNIT


def test_pi_counit_is_identity_matrix():
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            want = ONE if i == j else ZERO
            assert pi_coeff(i, j).counit() == want


def test_functional_values_on_pi():
    lam = RatFunc.from_int(3)
    ev = Evaluator()
    assert ev.eval((("f", lam),), pi_coeff(1, 1)) == lam * lam
    assert ev.eval((("E",),), pi_coeff(-1, 0)) == -(Q * Q + 1)
    assert ev.eval((("g",),), UNIT) == ZERO


def test_functional_product_respects_coproduct():
    # (f_lam g)(x) = sum f_lam(x(1)) g(x(2)) on monomials of degree <= 4
    lam = Q * Q
    word_fg = (("f", lam), ("g",))
    ev, ev_fg = Evaluator(), Evaluator()
    monos = set()
    for w in all_words(4):
        monos.update(reduce_word(w))
    for mono in sorted(monos, key=lambda w: (len(w), w))[:60]:
        x = SL2Element({mono: ONE})
        lhs = ev_fg.eval(word_fg, x)
        rhs = ZERO
        for (m1, m2), c in _pairs(coproduct(x)).items():
            rhs = rhs + c * ev.eval_word((("f", lam),), m1) * ev.eval_word((("g",),), m2)
        assert lhs == rhs


def test_functional_relations_as_functionals():
    # EF - FE = (K - K^-1)/(q - q^-1) and f_lam E = lam^-2 E f_lam
    ev = Evaluator()
    lam = RatFunc.from_int(2)
    monos = set()
    for w in all_words(3):
        monos.update(reduce_word(w))
    for mono in sorted(monos, key=lambda w: (len(w), w)):
        ef = ev.eval_word((("E",), ("F",)), mono)
        fe = ev.eval_word((("F",), ("E",)), mono)
        k = ev.eval_word((("K", 1),), mono)
        kinv = ev.eval_word((("K", -1),), mono)
        assert ef - fe == (k - kinv) / QHAT
        fl_e = ev.eval_word((("f", lam), ("E",)), mono)
        e_fl = ev.eval_word((("E",), ("f", lam)), mono)
        assert fl_e == lam ** -2 * e_fl


def test_rform_generator_values():
    assert rform(A_, A_) == qpow(1)
    assert rform(D_, D_) == qpow(1)
    assert rform(A_, D_) == qpow(-1)
    assert rform(C_, B_) == qpow(-1) * QHAT
    assert rform(B_, C_) == ZERO


def test_rform_unit_axiom_and_c_annihilation():
    for w in all_words(2):
        x = SL2Element.from_word(w)
        assert rform(UNIT, x) == x.counit()
        assert rform(x, UNIT) == x.counit()
        assert rform(x, C_) == ZERO


def test_rform_well_defined_on_relations():
    rep = rform_well_defined_report()
    assert rep["pass"], rep["failures"]


def test_parser_roundtrip():
    x = A_ * A_ * B_ - Q * C_ + SL2Element.unit(RatFunc.from_int(3))
    assert all(parse_ratfunc(str(v)) == v for v in x.terms.values())
    assert A_ * D_ - Q * B_ * C_ == UNIT


# -- the monomial walks against the dense product and the full expansion


_EYE = ((ONE, ZERO), (ZERO, ONE))


def _dense_mul(p, m):
    return tuple(tuple(row[0] * m[0][k] + row[1] * m[1][k] for k in (0, 1))
                 for row in p)


def _dense_products(ev, letters, max_len):
    """Every word up to max_len with the dense product of its 2x2 letter matrices."""
    level = {(): _EYE}
    for n in range(max_len + 1):
        yield from level.items()
        if n < max_len:
            nxt = {}
            for word, p in level.items():
                for letter in letters:
                    nxt[word + (letter,)] = _dense_mul(p, ev.letter_matrix(letter))
            level = nxt


_R_LETTERS = [("r", x) for x in GENS]


@pytest.mark.parametrize("first", [("f", RatFunc.from_int(3)),
                                   ("fs", RatFunc.from_int(3))], ids=["f", "fs"])
def test_eval_word_matches_dense_product(first):
    ev = Evaluator()
    letters = [first, ("g",), ("E",), ("F",), ("K", 1), ("K", -1)]
    # every word of length <= 5 over the functional letters, and every word
    # of length <= 4 that also uses the r-form letters
    words = itertools.chain(
        _dense_products(ev, letters, 5),
        ((w, p) for w, p in _dense_products(ev, letters + _R_LETTERS, 4)
         if any(l[0] == "r" for l in w)))
    for word, p in words:
        for gen in GENS:
            i, j = oqsl2._GEN_POS[gen]
            assert ev.eval_word(word, (gen,)) == p[i][j], (word, gen)


def test_non_monomial_letter_is_an_internal_error():
    class Dense(Evaluator):
        def letter_matrix(self, letter):
            if letter == ("g",):
                return ((ONE, ONE), (ZERO, -ONE))
            return super().letter_matrix(letter)

    ev = Dense()
    assert ev.eval_word((("F",), ("E",)), ("a",)) == ONE
    with pytest.raises(AssertionError,
                       match=r"^matrix of \('g',\) has a row with two nonzero entries$"):
        ev.eval_word((("E",), ("g",)), ("c",))


def _expanded_eval(ev, word, mono, memo):
    """A word on a monomial by expanding every choice of legs, each choice's
    first legs taken as the dense product of their matrices."""
    key = (word, mono)
    if key in memo:
        return memo[key]
    if not mono:
        v = ev.word_unit_value(word)
    else:
        i, j = oqsl2._GEN_POS[mono[0]]
        v = ZERO
        for choice in itertools.product(*[oqsl2._letter_legs(l) for l in word]):
            p = _EYE
            for l1, _ in choice:
                if l1 is not None:
                    p = _dense_mul(p, ev.letter_matrix(l1))
            if p[i][j]:
                rest = tuple(l2 for _, l2 in choice if l2 is not None)
                v = v + p[i][j] * _expanded_eval(ev, rest, mono[1:], memo)
        sq = oqsl2._mu_square(word)
        if len(mono) % 2 == 0 and sq is not None:
            v = v * sq
    memo[key] = v
    return v


def test_eval_word_matches_full_leg_expansion():
    lam = RatFunc.from_int(3)
    letters = [("f", lam), ("fs", lam), ("g",), ("E",), ("F",), ("K", 1), ("K", -1)]
    words = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
    monos = set()
    for w in all_words(3):
        monos.update(reduce_word(w))
    ev, memo = Evaluator(), {}
    for word in words:
        for mono in sorted(monos):
            assert ev.eval_word(word, mono) == _expanded_eval(ev, word, mono, memo), (word, mono)


def _expanded_rform(w1, w2, memo):
    """The r-form by the full coproduct expansion of the second word."""
    key = (w1, w2)
    if key in memo:
        return memo[key]
    if not w1:
        v = word_counit(w2)
    elif not w2:
        v = word_counit(w1)
    elif len(w1) == 1:
        if len(w2) == 1:
            v = oqsl2._R_GEN.get((w1[0], w2[0]), ZERO)
        else:
            v = ZERO
            for x, y in oqsl2._GEN_COPROD[w1[0]]:
                left = _expanded_rform((x,), w2[1:], memo)
                if left:
                    v = v + left * _expanded_rform((y,), w2[:1], memo)
    else:
        v = ZERO
        for choice in itertools.product(*[oqsl2._GEN_COPROD[g] for g in w2]):
            left = _expanded_rform(w1[:1], tuple(x for x, _ in choice), memo)
            if left:
                v = v + left * _expanded_rform(w1[1:], tuple(y for _, y in choice), memo)
    memo[key] = v
    return v


def test_rform_words_matches_full_expansion():
    pairs = [(w1, w2) for w1 in all_words(2) for w2 in all_words(4)]
    oqsl2.EVALUATOR._memo.clear()
    memo = {}
    want = [_expanded_rform(w1, w2, memo) for w1, w2 in pairs]
    oqsl2.EVALUATOR._memo.clear()
    got = [oqsl2.rform_words(w1, w2) for w1, w2 in pairs]
    assert got == want
