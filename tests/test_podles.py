import itertools

import pytest

from qsphere.scalars import ZERO, ONE, Q, QINV, RatFunc, CParam, parse_ratfunc, qpow
from qsphere import dualfunc, linalg, oqsl2, podles, selftest
from qsphere.algebra import accumulate
from qsphere.cli import main
from qsphere.linalg import Matrix
from qsphere.podles import (PodlesAlgebra, build_mu_n, confluence_report,
                            embedded_relations_report, mu_rep_report,
                            normal_basis_report, original_relations_report,
                            verify_localization)
from qsphere.fodc import build_rform_calculus, submodule_Vn
from qsphere.selftest import c_exc

GENERIC = CParam.generic(1)
INF = CParam.infinity()


@pytest.fixture(scope="module")
def alg():
    return PodlesAlgebra(GENERIC)


@pytest.fixture(scope="module")
def alg_inf():
    return PodlesAlgebra(INF)


def test_defining_relations(alg):
    cv = GENERIC.c_value()
    A = alg.A()
    assert alg.e1() * A == Q * Q * (A * alg.e1())
    assert alg.em1() * A == qpow(-4) * (A * alg.em1())
    assert alg.em1() * alg.e1() == A - A * A + cv * alg.unit()
    assert alg.e1() * alg.em1() == Q * Q * A - qpow(8) * A * A + cv * alg.unit()


def test_defining_relations_infinity(alg_inf):
    A = alg_inf.A()
    assert alg_inf.em1() * alg_inf.e1() == -A * A + alg_inf.unit()
    assert alg_inf.e1() * alg_inf.em1() == -qpow(8) * A * A + alg_inf.unit()


def test_associativity_all_degree3(alg):
    gens = [alg.em1(), alg.A(), alg.e1()]
    for x, y, z in itertools.product(gens, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_confluence():
    for c in (GENERIC, CParam.generic(2), INF, CParam.zero()):
        rep = confluence_report(c)
        assert rep["confluent"], (c, rep)
        assert rep["checked"] == 4          # m p A, m p m, p m A, p m p


def test_embed_is_algebra_map(alg):
    x, y = alg.em1(), alg.e1()
    assert alg.embed(x * y) == alg.embed(x) * alg.embed(y)
    assert alg.embed(alg.unit()) == oqsl2.UNIT
    z = alg.A() * alg.e1() - Q * alg.em1()
    w = alg.e0() + 2 * alg.A()
    assert alg.embed(z * w) == alg.embed(z) * alg.embed(w)


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), INF,
                               CParam.generic((qpow(1) - qpow(-1)).inv())])
def test_embed_on_the_prefix_is_the_letter_product(c):
    # each monomial's image is built on its cached prefix; the reference
    # multiplies the letter images one by one
    alg = PodlesAlgebra(c)
    letters = {g: alg.embed(alg.gen(g)) for g in ("m", "A", "p")}
    for mono in alg.normal_monomials(6):
        want = oqsl2.UNIT
        for g in mono:
            want = want * letters[g]
        assert alg.embed(alg.element({mono: ONE})) == want, mono


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), INF, c_exc(1), CParam.zero()])
def test_letter_images_match_the_spin1_formula(c):
    # the oracle: iota(e_i) = sum_j eps(e_j) pi_{j,i} and
    # iota(A) = (kappa - iota(e_0))/(1+q^2), with kappa = 0 at c = inf, else 1
    alg = PodlesAlgebra(c)
    eps = dict(zip((-1, 0, 1), alg.eps_weights()))
    e = {i: sum((eps[j] * oqsl2.pi_coeff(j, i) for j in (-1, 0, 1)), oqsl2.SL2Element())
         for i in (-1, 0, 1)}
    kappa = ZERO if c.is_infinity() else ONE
    want = {"m": e[-1], "p": e[1], "A": (kappa * oqsl2.UNIT - e[0]) * (Q * Q + 1).inv()}
    for g, img in want.items():
        assert alg.embed(alg.gen(g)) == img, g


def _pairs(t):
    """The tensor {a: x} = sum x (x) a as {(sphere monomial, SL2 monomial): coeff}."""
    return {(pm, am): c for am, x in t.terms.items() for pm, c in x.terms.items()}


def _pair_coact(alg, word):
    """The coaction of a word as {(sphere monomial, SL2 monomial): coeff}: the
    letter table e_i -> sum_j e_j (x) pi_(j,i) as pair dicts, multiplied out
    by reducing both legs of each pair of terms."""
    def tens(x, a):
        return {(pm, am): c * v for pm, c in x.terms.items() for am, v in a.terms.items()}

    ee = {-1: alg.em1(), 0: alg.e0(), 1: alg.e1()}
    coact_e = {i: {} for i in ee}
    for i, j in itertools.product(ee, repeat=2):
        accumulate(coact_e[i], tens(ee[j], oqsl2.pi_coeff(j, i)))
    kappa = alg.eps_weights()[1]
    scale = (Q * Q + 1).inv()
    letters = {"m": coact_e[-1], "p": coact_e[1],
               "A": accumulate({((), ()): kappa * scale}, coact_e[0], -scale)}
    out = {((), ()): ONE}
    for g in word:
        prod = {}
        for (p1, a1), c1 in out.items():
            for (p2, a2), c2 in letters[g].items():
                accumulate(prod, {(pm, am): c * v
                                  for pm, c in alg.reduce_word(p1 + p2).items()
                                  for am, v in oqsl2.reduce_word(a1 + a2).items()}, c1 * c2)
        out = prod
    return out


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), INF, CParam.zero()])
def test_coact_matches_the_pair_construction(c):
    alg = PodlesAlgebra(c)
    monos = alg.normal_monomials(3)
    assert len(monos) == sum(2 * d + 1 for d in range(4))
    for mono in monos:
        t = alg.coact(alg.element({mono: ONE}))
        assert all(x.alg is alg for x in t.terms.values())
        assert _pairs(t) == _pair_coact(alg, mono), mono


def test_a_fault_in_the_coaction_letters_reaches_the_embedding(monkeypatch):
    # the embedding is read off the coaction letter table: doubling e_1's
    # coaction doubles its image and breaks the embedded relations
    real = PodlesAlgebra._coact_letters

    def doubled(self):
        letters = dict(real(self))
        letters["p"] = 2 * letters["p"]
        return letters

    clean = PodlesAlgebra(GENERIC)
    clean_e1 = clean.embed(clean.e1())
    monkeypatch.setattr(PodlesAlgebra, "_coact_letters", doubled)
    alg = PodlesAlgebra(GENERIC)
    assert alg.embed(alg.e1()) == 2 * clean_e1
    assert not embedded_relations_report(GENERIC)["pass"]


def test_a_planted_eps_e0_reaches_e0_and_the_coaction_of_A(monkeypatch):
    # kappa = eps(e_0) is read from eps_weights alone: a planted eps(e_0) = 2
    # moves e_0's constant and doubles the part of A's coaction with an
    # empty sphere leg, and the embedded relations then fail
    def sphere_constant(alg):
        return {am: x.terms[()] for am, x in alg._coact_letters()["A"].terms.items()
                if () in x.terms}

    clean = sphere_constant(PodlesAlgebra(GENERIC))
    wm, _, wp = PodlesAlgebra(GENERIC).eps_weights()
    monkeypatch.setattr(PodlesAlgebra, "eps_weights", lambda self: (wm, 2 * ONE, wp))
    alg = PodlesAlgebra(GENERIC)
    assert alg.e0() == 2 * alg.unit() - (Q * Q + 1) * alg.A()
    assert clean and sphere_constant(alg) == {am: 2 * v for am, v in clean.items()}
    assert not embedded_relations_report(GENERIC)["pass"]


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), INF, c_exc(1), CParam.zero()])
def test_counit_of_A_is_zero_and_of_e0_is_kappa(c):
    alg = PodlesAlgebra(c)
    assert alg.counit(alg.A()) == ZERO
    assert alg.counit(alg.e0()) == alg.eps_weights()[1]


def test_embedded_relations_all_variants():
    for c in (GENERIC, CParam.generic(2), INF, CParam.zero()):
        assert embedded_relations_report(c)["pass"]
        assert original_relations_report(c)["pass"]


def test_embed_counit_compatible(alg):
    for mono in alg.normal_monomials(3):
        x = alg.element({mono: ONE})
        assert alg.embed(x).counit() == alg.counit(x)


def basis_independence(c, degree):
    """The oracle of `normal_basis_report`: the exact rank of the embedded
    normal monomials of degree <= degree, and the first one dependent on
    those before it."""
    alg = PodlesAlgebra(c)
    monos = alg.normal_monomials(degree)
    images = [alg.embed(alg.element({m: ONE})) for m in monos]
    cols = sorted({w for img in images for w in img.terms}, key=lambda w: (len(w), w))
    colidx = {w: i for i, w in enumerate(cols)}
    rows = [linalg.coordinate_row(img.terms, colidx) for img in images]
    r = linalg.rank(rows)
    witness = None
    if r < len(rows):
        r = 0
        for k, mono in enumerate(monos):
            r2 = linalg.rank(rows[:k + 1])
            if r2 == r:
                witness = mono
                break
            r = r2
    return {"independent": witness is None, "rank": r, "count": len(monos),
            "witness": witness, "degree": degree}


def test_basis_independence():
    rep = basis_independence(GENERIC, 1)
    assert rep["independent"] and rep["rank"] == 4
    rep = basis_independence(GENERIC, 4)
    assert rep["independent"] and rep["rank"] == 25
    rep = basis_independence(INF, 3)
    assert rep["independent"]
    rep = basis_independence(GENERIC, 0)
    assert rep["independent"] and rep["rank"] == 1


def test_basis_independence_ranks_once_and_finds_a_witness(monkeypatch):
    calls = []
    real_rank = linalg.rank

    def counted_rank(rows):
        calls.append(len(rows))
        return real_rank(rows)

    monkeypatch.setattr(linalg, "rank", counted_rank)
    for c in (GENERIC, INF):
        calls.clear()
        rep = basis_independence(c, 4)
        assert rep["independent"] and rep["rank"] == rep["count"] == 25
        assert calls == [25]
    # plant a dependence: the third monomial embeds as the second
    monos = PodlesAlgebra(GENERIC).normal_monomials(2)
    real_embed = PodlesAlgebra.embed

    def embed(self, x):
        if set(x.terms) == {monos[2]}:
            x = self.element({monos[1]: ONE})
        return real_embed(self, x)

    monkeypatch.setattr(PodlesAlgebra, "embed", embed)
    rep = basis_independence(GENERIC, 2)
    assert not rep["independent"]
    assert rep["witness"] == monos[2] and rep["rank"] == 2


@pytest.mark.parametrize("c", [GENERIC, CParam.generic(2), INF, CParam.zero()])
def test_the_rank_oracle_and_the_proof_agree_up_to_degree_6(c):
    # independence at degree 6 holds at every lower degree: the monomials
    # of degree <= 5 are among those of degree <= 6
    rep = basis_independence(c, 6)
    assert rep["independent"] and rep["rank"] == rep["count"] == 49
    assert normal_basis_report(c)["independent"]


def test_the_proof_needs_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normal_basis_report solved a linear system")

    monkeypatch.setattr(linalg, "_solve", refuse)
    for c in (GENERIC, CParam.generic(2), INF, CParam.zero()):
        rep = normal_basis_report(c)
        assert rep["independent"], (c, rep)


def test_parser_e0_sugar(alg):
    assert alg.e0() == alg.unit() - (Q * Q + 1) * alg.A()
    x = alg.em1() * alg.e1() + Q * Q * alg.A()
    assert all(parse_ratfunc(str(v)) == v for v in x.terms.values())


def test_action_tables(alg, alg_inf):
    for a in (alg, alg_inf):
        em1, e0, e1, A = a.em1(), a.e0(), a.e1(), a.A()
        assert a.act("E", e1) == e0
        assert a.act("E", e0) == -(Q * Q + 1) * em1
        assert a.act("E", em1).is_zero()
        assert a.act("E", A) == em1
        assert a.act("F", em1) == -QINV * e0
        assert a.act("F", e0) == (Q + QINV) * e1
        assert a.act("F", e1).is_zero()
        assert a.act("F", A) == -QINV * e1
        assert a.act("K", em1) == Q * Q * em1
        assert a.act("K", e1) == qpow(-4) * e1
        assert a.act("K", em1, -1) == qpow(-4) * em1
        assert a.act("K", e1, -1) == Q * Q * e1
        for power in (1, -1):
            assert a.act("K", e0, power) == e0 and a.act("K", A, power) == A


def test_action_is_module_algebra(alg, alg_inf):
    # E(xy) = E(x)K(y) + xE(y), F(xy) = F(x)y + K^-1(x)F(y), K(xy) = K(x)K(y)
    # on every pair of normal monomials of total degree <= 4
    for a in (alg, alg_inf, PodlesAlgebra(c_exc(1))):
        monos = [a.element({m: ONE}) for m in a.normal_monomials(4)]
        for x, y in itertools.product(monos, repeat=2):
            if x.degree() + y.degree() > 4:
                continue
            xy = x * y
            assert a.act("E", xy) == a.act("E", x) * a.act("K", y) + x * a.act("E", y)
            assert a.act("F", xy) == a.act("F", x) * y + a.act("K", x, -1) * a.act("F", y)
            assert a.act("K", xy) == a.act("K", x) * a.act("K", y)


def test_mu_reps():
    for n in range(1, 5):
        rep = mu_rep_report(n)
        assert rep["pass"], rep
    r1 = build_mu_n(1)
    assert r1["A"][0, 0] == qpow(-2) / (Q + QINV)
    assert r1["e1"][0, 0].is_zero() and r1["em1"][0, 0].is_zero()


def test_a_non_triangular_entry_in_em1_is_not_read_as_nilpotent(monkeypatch):
    # mu_n's nilpotency verdicts are read off the support of e_{±1}
    real = podles.build_mu_n

    def planted(n):
        rep = real(n)
        rep["em1"] = rep["em1"] + Matrix({(1, 0): ONE})
        return rep

    monkeypatch.setattr(podles, "build_mu_n", planted)
    rep = mu_rep_report(3)
    assert not rep["em1_nilpotent"] and rep["e1_nilpotent"] and not rep["pass"]


def test_a_wrong_coefficient_in_one_rule_fails_ac1_and_ac9(monkeypatch, capsys):
    # e_1 A -> q^4 A e_1 in place of q^2 A e_1: mu_n is checked against the
    # same rules as the embedded generators, so both criteria see the plant
    real = podles.sphere_rules

    def planted(c):
        rules = real(c)
        rules[("p", "A")] = [(qpow(8), ("A", "p"))]
        return rules

    monkeypatch.setattr(podles, "sphere_rules", planted)
    assert not selftest.ac1_embedded_relations()["pass"]
    assert not selftest.ac9_mu_reps()["pass"]
    assert mu_rep_report(1)["pass"]                     # e_1 = 0 in mu_1
    for n in (2, 3, 4):
        rep = mu_rep_report(n)
        assert not rep["pass"]
        (rule, residual), = rep["relation_failures"]
        assert rule == "e1*A" and "E_1,0" in residual
    assert main(["selftest", "--only", "AC-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("AC-9 FAIL") and captured.err == ""


def test_verify_localization():
    for s in (ONE, RatFunc.from_int(2), Q):
        rep = verify_localization(CParam.generic(s))
        assert rep["pass"], rep
    with pytest.raises(ValueError):
        verify_localization(INF)
    with pytest.raises(ValueError):
        verify_localization(CParam.zero())


def test_nilpotency_of_embedded_mu_shifts():
    # e_1, e_-1 act nilpotently in mu_n (n-th power vanishes)
    rep = build_mu_n(3)
    p = Matrix.identity(3)
    for _ in range(3):
        p = p * rep["e1"]
    assert p.is_zero()


def test_elements_of_two_algebras_with_one_c_combine():
    # each call builds its own PodlesAlgebra; only c decides whether they mix
    w = build_rform_calculus(1, "id", GENERIC).W_basis[0]
    v = submodule_Vn(1, PodlesAlgebra(GENERIC))[0]
    assert w.alg is not v.alg
    assert w == v and hash(w) == hash(v)
    assert not (w - v) and w * v == w * w
    other = PodlesAlgebra(CParam.generic(2)).element({("A",): ONE})
    mine = PodlesAlgebra(GENERIC).element({("A",): ONE})
    assert other != mine and not (other == mine)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError, match="different c"):
            op(mine, other)


# -- planted faults in the normal-basis proof's inputs: a defined AC-10 FAIL

def _scaled_term(letter, k, factor):
    """_coact_letters with the k-th term (in printed order) of letter's coaction times factor."""
    real = PodlesAlgebra._coact_letters

    def planted(self):
        letters = dict(real(self))
        terms = _pairs(letters[letter])
        key = sorted(terms, key=str)[k]
        terms[key] = factor * terms[key]
        legs = {}
        for (pm, am), v in terms.items():
            legs.setdefault(am, {})[pm] = v
        letters[letter] = oqsl2.SL2Element({am: self.element(x) for am, x in legs.items()})
        return letters

    return planted


_REAL_ACT = PodlesAlgebra.act


def _wrong_a_weight(self, kind, x, power=1):
    """act with K weighing A by q in place of 1."""
    out = _REAL_ACT(self, kind, x, power)
    return Q * out if kind == "K" and x == self.A() else out


@pytest.mark.parametrize("attr, value, broken", [
    ("_coact_letters", _scaled_term("p", 0, Q), lambda rep: len(rep["rule_failures"]) == 3),
    ("act", _wrong_a_weight, lambda rep: rep["K_weights"] is False),
    ("eps_weights", lambda self: (ZERO, ONE, ONE),
     lambda rep: rep["counit_em1_nonzero"] is False),
], ids=["e1-coaction-term", "A-weight", "eps-em1-zero"])
def test_a_planted_fault_fails_the_normal_basis_proof(monkeypatch, capsys, attr, value,
                                                      broken):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(PodlesAlgebra, attr, value)
    rep = normal_basis_report(GENERIC)
    assert not rep["independent"] and broken(rep)
    assert selftest.ac10_structural()["details"]["normal_basis_independent"] is False
    assert main(["selftest", "--only", "AC-10"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("AC-10 FAIL") and captured.err == ""
