import itertools
import random

import pytest

from qsphere import oqsl2
from qsphere.algebra import LinComb, RewriteSystem, accumulate, word_image
from qsphere.oqsl2 import A_, B_, D_, UNIT, SL2Element
from qsphere.podles import LETTERS, BorelOp, PodlesAlgebra, sphere_rules
from qsphere.dualfunc import PsiVector
from qsphere.linalg import Matrix
from qsphere.uqsl2rep import X, XPoly
from qsphere.scalars import ZERO, ONE, Q, CParam, RatFunc, qpow

# the q-plane yx -> q xy; with y^2 = 1 the overlap yyx resolves to x
# through yy and to q^2 x through yx, so that table is confluent for
# q -> -1 (the Clifford table) but not for q
PLANE = {("y", "x"): [(Q, ("x", "y"))]}
CLIFFORD = {("y", "y"): [(ONE, ())], ("y", "x"): [(-ONE, ("x", "y"))]}
BAD = {("y", "y"): [(ONE, ())], ("y", "x"): [(Q, ("x", "y"))]}


def test_accumulate_drops_zero_sums():
    out = {"x": ONE, "y": Q}
    assert accumulate(out, {"x": -ONE, "z": Q}) is out
    assert out == {"y": Q, "z": Q}
    accumulate(out, {"y": ONE, "w": ONE}, ZERO)
    assert out == {"y": Q, "z": Q}
    accumulate(out, {"y": ONE}, -Q)
    assert out == {"z": Q}


def test_elements_on_the_unit_hash_like_scalars():
    alg = PodlesAlgebra(CParam.generic(1))
    for unit in (SL2Element.unit(), alg.unit(), BorelOp.mono(0, 0)):
        assert unit == 1 and hash(unit) == hash(1)
        assert {unit: "x"}.get(1) == "x"
        assert {1: "x"}.get(unit) == "x"
        assert 3 * unit == 3 and hash(3 * unit) == hash(3)
    for zero in (SL2Element(), alg.element(), BorelOp(), PsiVector()):
        assert hash(zero) == hash(0)
    assert SL2Element() == 0 and alg.element() == 0
    assert Q * UNIT == Q and hash(Q * UNIT) == hash(Q)
    # equal elements off the unit hash equal: ad = 1 + q bc
    assert hash(A_ * D_) == hash(UNIT + Q * B_ * SL2Element.gen("c"))


def test_mixed_types_do_not_combine():
    alg = PodlesAlgebra(CParam.generic(1))
    other = PodlesAlgebra(CParam.generic(2))
    with pytest.raises(TypeError):
        A_ + alg.A()
    with pytest.raises(TypeError):
        PsiVector.symbol(0, ONE) + 1
    with pytest.raises(TypeError):
        PsiVector.symbol(0, ONE) * PsiVector.symbol(1, ONE)
    with pytest.raises(ValueError):
        alg.A() + other.A()
    with pytest.raises(ValueError, match="mixing sphere algebras"):
        Matrix({(0, 0): alg.A()}) * Matrix({(0, 0): other.A()})
    assert A_ != alg.A()


def test_borel_product_is_associative_and_printed():
    rng = random.Random(11)
    ops = [BorelOp({(rng.randrange(3), rng.randrange(-2, 3)):
                    RatFunc.from_int(rng.choice((-2, 1, 3))) for _ in range(2)})
           for _ in range(4)]
    for x, y, z in itertools.product(ops, repeat=3):
        assert (x * y) * z == x * (y * z)
    K, F = BorelOp.mono(0, 1), BorelOp.mono(1, 0)
    assert str(2 + K * F) == "2 + F^1*K^1"
    assert K * F - Q * Q * (F * K) == 0


def test_rewrite_system_normal_forms_and_confluence():
    # the q-plane is confluent; its normal words are x^i y^j
    plane = RewriteSystem(PLANE)
    assert plane.reduce_word(("y", "y", "x")) == {("x", "y", "y"): Q * Q}
    rep = plane.confluence_report()
    # no rule starts with x, so yx overlaps nothing: confluent by the
    # diamond lemma with nothing to check
    assert rep["confluent"] and rep["checked"] == 0
    assert RewriteSystem(CLIFFORD).confluence_report()["confluent"]
    rep = RewriteSystem(BAD).confluence_report()
    assert not rep["confluent"] and rep["witness"] == ("y", "y", "x")


def _enumerated_confluence(system, letters, max_len=4):
    """The reference check: every first step of every word of <= max_len
    letters, taken in word order, reaches one normal form."""
    for n in range(max_len + 1):
        for word in itertools.product(sorted(letters), repeat=n):
            base = system.reduce_word(word)
            if any(system._step(word, i) != base
                   for i in range(n - 1) if word[i:i + 2] in system.rules):
                return {"confluent": False, "witness": word}
    return {"confluent": True, "witness": None}


def test_the_overlaps_decide_confluence_as_every_short_word_does():
    planted = sphere_rules(CParam.generic(1).c_value())
    planted[("p", "A")] = [(qpow(8), ("A", "p"))]        # e_1 A -> q^4 A e_1
    cases = [(RewriteSystem(PLANE), "xy"), (RewriteSystem(CLIFFORD), "xy"),
             (RewriteSystem(BAD), "xy"), (RewriteSystem(oqsl2.RULES), oqsl2.GENS),
             (RewriteSystem(planted), LETTERS)]
    cases += [(PodlesAlgebra(c).rewriting, LETTERS) for c in (
        CParam.generic(1), CParam.generic(2), CParam.infinity(), CParam.zero())]
    verdicts = []
    for system, letters in cases:
        rep = system.confluence_report()
        want = _enumerated_confluence(RewriteSystem(system.rules), letters)
        assert (rep["confluent"], rep["witness"]) == (want["confluent"], want["witness"])
        verdicts.append(rep["confluent"])
    assert verdicts == [True, True, False, True, False, True, True, True, True]


def test_lincomb_needs_a_product():
    with pytest.raises(TypeError):
        LinComb({("a",): ONE}) * LinComb({("b",): ONE})


def test_zero_coefficients_are_dropped_on_construction():
    alg = PodlesAlgebra(CParam.generic(1))
    psi = PsiVector.symbol(1, Q)
    built = [(XPoly({0: ZERO, 1: ONE}), X),
             (SL2Element({**A_.terms, (): ZERO}), A_),
             (PsiVector({**psi.terms, (0, 0, ONE): ZERO}), psi),
             (BorelOp({(0, 0): ZERO, (1, 0): ONE}), BorelOp.mono(1, 0)),
             (alg.element({(): ZERO, ("A",): ONE}), alg.A())]
    for got, want in built:
        assert ZERO not in got.terms.values()
        zero = want - want
        for x in (got, got + zero, zero + got, got - zero):
            assert x == want and hash(x) == hash(want)
    assert XPoly({0: ZERO, 1: ONE}) + 0 == X
    assert XPoly({0: ZERO}) == 0 and not XPoly({0: ZERO})
    assert alg.element({("m",): ZERO}).is_zero()


def test_degree_is_the_longest_sphere_word():
    alg = PodlesAlgebra(CParam.generic(1))
    assert alg.element().degree() == 0 and alg.unit().degree() == 0
    assert alg.e0().degree() == 1
    assert (alg.A() * alg.em1() * alg.e1() + 3).degree() == 3
    assert (alg.em1() * alg.e1()).degree() == 2      # m p -> A - A^2 + c
    assert not hasattr(XPoly, "degree") and not hasattr(X, "degree")


def test_word_image_multiplies_each_letter_once_onto_the_kept_prefix():
    # letters are read when reached; a kept word, () included, costs no product
    calls, table = [], {"x": 2, "y": 3}
    kept = {(): 1}

    def letter(g):
        calls.append(g)
        return table[g]

    assert word_image(("x", "y", "x"), letter, kept) == 12 and calls == ["x", "y", "x"]
    assert word_image(("x", "y"), letter, kept) == 6 and word_image((), letter, kept) == 1
    table["y"] = 5
    assert word_image(("x", "y", "y"), letter, kept) == 30 and calls == ["x", "y", "x", "y"]
    assert set(kept) == {(), ("x",), ("x", "y"), ("x", "y", "x"), ("x", "y", "y")}


def test_powers_start_from_the_element_and_need_a_unit_only_at_zero():
    m = Matrix({(0, 1): Q, (1, 0): ONE, (1, 1): -ONE})
    assert m ** 1 == m and m ** 2 == m * m and m ** 3 == m * m * m
    v = PsiVector.symbol(1, Q)
    assert v ** 1 == v
    for no_unit in (m, v, Matrix(), PsiVector()):
        with pytest.raises(ValueError, match="%s has no unit" % type(no_unit).__name__):
            no_unit ** 0
    alg = PodlesAlgebra(CParam.generic(1))
    x = alg.em1() + Q * alg.A()
    assert x ** 0 == alg.unit() == 1 and x ** 1 == x and x ** 3 == x * x * x
    assert X ** 0 == XPoly({0: ONE}) == 1 and X ** 3 == XPoly({3: ONE})
    with pytest.raises(ValueError, match="nonnegative"):
        m ** -1
