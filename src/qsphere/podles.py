"""The Podles sphere O_q(S^2_c) as an abstract algebra.

Internal generators are e_{-1} (letter "m"), A (letter "A") and e_1
(letter "p"); e_0 = kappa - (1+q^2) A, where kappa = eps(e_0) is 1 at
finite c and 0 at c = infinity.  The four-rule rewriting system of the
defining relations (e_1 A -> q^2 A e_1, e_{-1} A -> q^-2 A e_{-1}, and the
two e-e rules) moves A-letters to the front, so stored normal-form
monomials are A^j e_{-1}^i and A^j e_1^k; no monomial contains both e_{-1}
and e_1.  These equal the basis monomials e_{-1}^i A^j and A^j e_1^k up to
an explicit q-power.  The rules terminate: each lowers (number of e_{±1}
letters, A-letters right of them) lexicographically, in any context.

Besides the rules, the data are the counit and the right coaction's letter
table (e_i -> sum_j e_j (x) pi_{j,i}); the rest is read off the coaction
(Podles, Lett. Math. Phys. 14, 1987; Klimyk-Schmuedgen, 11.6): the
embedding into O_q(SL2) as (eps (x) id) Delta_B on the letters, and the left
U_q(sl2)-action as X |> b = b(0) X(b(1)), X evaluated on the O_q(SL2) leg
by `oqsl2.EVALUATOR`.  The rules are written once, in `sphere_rules`, and
every relation check runs them through `algebra.rule_failures`: the
embedded generators, the coaction and the counit (`normal_basis_report`),
mu_n at c = c(n) and the localization onto the opposite Borel algebra.
"""

import math

from .algebra import LinComb, RewriteSystem, accumulate, rule_failures, word_image
from .scalars import (ZERO, ONE, Q, QHAT, RatFunc, qpow, CParam, cn_value)
from . import oqsl2
from .oqsl2 import SL2Element, pi_coeff
from .linalg import Matrix

LETTERS = ("m", "A", "p")
_PRINT = {"m": "em1", "A": "A", "p": "e1"}


def sphere_rules(c):
    """{(x, y): [(coeff, word)]}, the four rules at c in Q(t) (None: c = infinity):
    e_{-1} A -> q^-2 A e_{-1}, e_1 A -> q^2 A e_1, e_{-1} e_1 -> A - A^2 + c
    and e_1 e_{-1} -> q^2 A - q^4 A^2 + c (A -> 0, c -> 1 at infinity)."""
    q2, q4 = Q * Q, qpow(8)
    if c is None:
        mp = [(-ONE, ("A", "A")), (ONE, ())]
        pm = [(-q4, ("A", "A")), (ONE, ())]
    else:
        mp = [(ONE, ("A",)), (-ONE, ("A", "A")), (c, ())]
        pm = [(q2, ("A",)), (-q4, ("A", "A")), (c, ())]
    return {("m", "A"): [(qpow(-4), ("A", "m"))], ("p", "A"): [(q2, ("A", "p"))],
            ("m", "p"): mp, ("p", "m"): pm}


class PodlesAlgebra:
    """The sphere algebra for a fixed parameter c, with caches."""

    def __init__(self, c: CParam):
        self.c = c
        self.rewriting = RewriteSystem(sphere_rules(c.c_value()))
        self._embed_letter = None
        self._embed_cache = {(): SL2Element.unit()}
        self._coact_letter = None
        self._coact_cache = {(): SL2Element.unit(self.unit())}

    # -- normal form

    def reduce_word(self, word):
        return self.rewriting.reduce_word(word)

    # -- element constructors

    def element(self, terms=None):
        return PodlesElement(self, {m: v for m, v in terms.items() if v} if terms else {})

    def unit(self, coeff=ONE):
        coeff = RatFunc.coerce(coeff)
        return self.element({(): coeff})

    def gen(self, name):
        return self.element({(name,): ONE})

    def em1(self):
        return self.gen("m")

    def e1(self):
        return self.gen("p")

    def A(self):
        return self.gen("A")

    def e0(self):
        """e_0 = kappa - (1+q^2) A, with kappa = eps(e_0)."""
        return self.element({(): self.eps_weights()[1], ("A",): -(Q * Q + 1)})

    def generators_e(self):
        """[e_{-1}, e_0, e_1] as elements."""
        return [self.em1(), self.e0(), self.e1()]

    def normal_monomials(self, max_degree):
        """All normal-form words A^j x^i (x one of e_{-1}, e_1) of degree <= max_degree."""
        out = []
        for d in range(max_degree + 1):
            for j in range(d + 1):
                i = d - j
                if i == 0:
                    out.append(("A",) * j)
                else:
                    out.append(("A",) * j + ("m",) * i)
                    out.append(("A",) * j + ("p",) * i)
        return out

    # -- counit (the AlgebraBase normalization: eps(e_i) used to embed)

    def eps_weights(self):
        """(eps(e_{-1}), eps(e_0), eps(e_1)) for the chosen normalization."""
        if self.c.variant == "generic":
            return (self.c.s, ONE, self.c.s)
        if self.c.is_infinity():
            return (ONE, ZERO, ONE)
        return (ONE, ONE, ZERO)      # c = 0, localization normalization

    def counit(self, x):
        """The restriction of the counit.

        eps(A) = 0, since e_0 = kappa - (1+q^2) A and kappa = eps(e_0).
        """
        wm, _, wp = self.eps_weights()
        return self.character({"m": wm, "A": ZERO, "p": wp}, x)

    def character(self, table, x):
        """The value on x of the character with letter values table[g]."""
        total = ZERO
        for mono, coeff in x.terms.items():
            v = coeff
            for g in mono:
                v = v * table[g]
                if not v:
                    break
            total = total + v
        return total

    # -- embedding into O_q(SL2)

    def _letter_images(self):
        """iota(g) = eps(g(0)) g(1) for each letter g, read off its coaction."""
        if self._embed_letter is None:
            self._embed_letter = {}
            for g, t in self._coact_letters().items():
                self._embed_letter[g] = SL2Element({am: self.counit(x)
                                                    for am, x in t.terms.items()})
        return self._embed_letter

    def embed(self, x):
        out = SL2Element()
        for mono, coeff in x.terms.items():
            out = out + coeff * self._embed_mono(mono)
        return out

    def _embed_mono(self, mono):
        """The image of a word, one SL2 product on the image of its prefix."""
        return word_image(mono, lambda g: self._letter_images()[g], self._embed_cache)

    # -- left action of E, F, K^n, read off the right coaction

    def act(self, kind, x, power=1):
        """Left action X |> x = x(0) X(x(1)) of X = E, F or K^power."""
        word = ((kind, power),) if kind == "K" else ((kind,),)
        out = {}
        for am, y in self.coact(x).terms.items():
            v = oqsl2.EVALUATOR.eval_word(word, am)
            if v:
                accumulate(out, y.terms, v)
        return self.element(out)

    # -- right coaction B -> B (x) O_q(SL2)

    def _coact_letters(self):
        """Each letter's coaction, e_i -> sum_j e_j (x) pi_(j,i)."""
        if self._coact_letter is None:
            ee = {-1: self.em1(), 0: self.e0(), 1: self.e1()}
            def coact_ei(i):
                out = {}
                for j in (-1, 0, 1):
                    accumulate(out, (SL2Element.unit(ee[j]) * pi_coeff(j, i)).terms)
                return SL2Element(out)
            # A = (kappa - e_0)/(1+q^2), and kappa is grouplike
            scale = (Q * Q + 1).inv()
            tA = (coact_ei(0) - SL2Element.unit(self.unit(self.eps_weights()[1]))) * -scale
            self._coact_letter = {"m": coact_ei(-1), "p": coact_ei(1), "A": tA}
        return self._coact_letter

    def coact(self, x):
        """Right coaction sum x(0) (x) x(1), as the SL2Element {x(1): x(0)} over B."""
        out = {}
        for mono, coeff in x.terms.items():
            accumulate(out, self._coact_mono(mono).terms, coeff)
        return SL2Element(out)

    def _coact_mono(self, mono):
        """The coaction of a word, one product in B (x) O_q(SL2) on that of its prefix."""
        return word_image(mono, lambda g: self._coact_letters()[g], self._coact_cache)


class PodlesElement(LinComb):
    """Linear combination of sphere normal-form monomials, tied to its algebra."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def _new(self, terms):
        return PodlesElement(self.alg, terms)

    def _other_c(self, other):
        """other is an element of a sphere algebra with another c."""
        return (isinstance(other, PodlesElement) and other.alg is not self.alg
                and other.alg.c != self.alg.c)

    def _coerce(self, other):
        if self._other_c(other):
            raise ValueError("mixing sphere algebras with different c")
        return LinComb._coerce(self, other)

    def __eq__(self, other):
        return False if self._other_c(other) else LinComb.__eq__(self, other)

    __hash__ = LinComb.__hash__

    def _mono_mul(self, m1, m2):
        return self.alg.reduce_word(m1 + m2)

    def degree(self):
        """The length of the longest word, 0 for zero."""
        return max((len(m) for m in self.terms), default=0)

    def _mono_str(self, m):
        return super()._mono_str(tuple(_PRINT[g] for g in m))


# ---------------------------------------------------------------------------
# structural reports

def confluence_report(c: CParam):
    """The four overlaps of the rules resolve (see `RewriteSystem`)."""
    return PodlesAlgebra(c).rewriting.confluence_report()


def _products(images, one):
    """The multiplicative map of free words with these letter images."""
    return lambda w: math.prod((images[g] for g in w), start=one)


def embedded_relations_report(c: CParam):
    """The four rewritten defining relations hold for the embedded generators."""
    alg = PodlesAlgebra(c)
    failures = rule_failures(alg.rewriting.rules, alg._embed_mono, _PRINT.get)
    return {"pass": not failures, "failures": failures}


def original_relations_report(c: CParam):
    """The untransformed defining relations, with rho and lambda from the counits."""
    alg = PodlesAlgebra(c)
    em1 = alg.embed(alg.em1())
    e0 = alg.embed(alg.e0())
    e1 = alg.embed(alg.e1())
    wm, w0, wp = alg.eps_weights()
    rho = qpow(-4) * (Q * Q + 1) ** 2 * wm * wp + w0 * w0
    lam = (1 - Q * Q) * w0
    one = SL2Element.unit()
    q2 = Q * Q
    rels = [
        ("sum", (1 + q2) * (em1 * e1 + qpow(-4) * e1 * em1) + e0 * e0 - rho * one),
        ("r-1", -q2 * em1 * e0 + e0 * em1 - lam * em1),
        ("r0", (1 + q2) * (em1 * e1 - e1 * em1) + (1 - q2) * e0 * e0 - lam * e0),
        ("r1", e1 * e0 - q2 * e0 * e1 - lam * e1),
    ]
    failures = [(name, str(r)) for name, r in rels if not r.is_zero()]
    return {"pass": not failures, "failures": failures}


def normal_basis_report(c: CParam):
    """iota: B -> O_q(SL2) is injective, so the normal monomials stay
    independent in O_q(SL2), in every degree.

    Let F_n be the span of the normal monomials of degree <= n.  The
    argument, over Q(t) where q = t^2 is not a root of unity:
    1. The normal monomials are a basis of B (Bergman's diamond lemma,
       Adv. Math. 29, 1978; `confluence_report`), and no rule raises the
       degree, so dim F_n = (n+1)^2.
    2. The coaction respects the four rules, so it is an algebra map
       B -> B (x) O_q(SL2); each letter's coaction is linear in e_{-1},
       A, e_1 and 1, so it maps F_n into F_n (x) O_q(SL2).  It is
       coassociative and counital on the letters, hence on B: both sides
       of each identity are algebra maps, since Delta is one
       (`oqsl2.hopf_axioms_report`).  So X |> b = b(0) X(b(1)) makes B a
       U_q(sl2)-module algebra, and each F_n a finite-dimensional
       submodule.
    3. eps_B is a character, so (eps_B (x) id) coact is an algebra map;
       it agrees with iota on the letters, hence everywhere.
       Coassociativity then gives Delta iota = (iota (x) id) coact, so
       iota is U_q(sl2)-linear and ker iota is a submodule; the counit
       axiom gives eps(iota(x)) = eps_B(x).
    4. K acts on e_{-1}, A and e_1 by q^2, 1 and q^-2, and by an algebra
       map, so the normal monomials of degree exactly n carry the weights
       q^(2w), w = -n..n, once each.  Finite-dimensional modules of this
       type are completely reducible (Jantzen, Lectures on Quantum
       Groups, ch. 5; Kassel, Quantum Groups, GTM 155, ch. VII), and the
       weight q^(2n) occurs once, so F_n/F_(n-1) = V(n), irreducible.
    5. Induct on n, from iota(1) = 1.  If iota is injective on F_(n-1),
       then ker iota meets F_n in a submodule that embeds in V(n): 0 or
       a copy of V(n).  A copy holds a vector of weight q^(2n) in F_n,
       that is a multiple of e_{-1}^n, the only normal monomial of that
       weight and of degree <= n.
    6. But eps(iota(e_{-1}^n)) = eps_B(e_{-1})^n, which is not zero.

    Only the finite inputs of steps 2-6 are computed here, on the letters;
    no linear algebra runs.
    """
    alg = PodlesAlgebra(c)
    rules, letters = alg.rewriting.rules, alg._coact_letters()

    def comodule(g, t):
        """g's coaction t is linear in the letters, coassociative and counital."""
        return (all(x.degree() <= 1 for x in t.terms.values())
                and oqsl2.coassociative(t, alg.coact) and t.counit() == alg.gen(g))

    eps = {g: alg.counit(alg.gen(g)) for g in LETTERS}
    failures = rule_failures(rules, alg._coact_mono, _PRINT.get)
    checks = {"comodule": all(comodule(g, t) for g, t in letters.items()),
              "K_weights": all(alg.act("K", alg.gen(g)) == w * alg.gen(g)
                               for g, w in zip(LETTERS, (Q * Q, ONE, qpow(-4)))),
              "counit_character": not rule_failures(rules, _products(eps, ONE)),
              "counit_em1_nonzero": bool(eps["m"])}
    return dict(checks, independent=not failures and all(checks.values()),
                rule_failures=failures)


# ---------------------------------------------------------------------------
# the indecomposable representations mu_n at c = c(n)

_MU_REPORTS = {}                        # n -> the `mu_rep_report` of mu_n, kept for the process


def build_mu_n(n):
    """mu_n as {"A", "em1", "e1"} matrices: A diagonal with spectrum
    q^(n-2k)/(q^n+q^-n), k=1..n; e_1 the unit subdiagonal shift, e_{-1} the
    weighted superdiagonal shift."""
    if n < 1:
        raise ValueError("n must be positive")
    denom = qpow(2 * n) + qpow(-2 * n)
    cn = cn_value(2 * n)
    eig = [qpow(2 * (n - 2 * (k + 1))) / denom for k in range(n)]
    return {"A": Matrix({(k, k): eig[k] for k in range(n)}),
            "em1": Matrix({(k, k + 1): eig[k] - eig[k] * eig[k] + cn for k in range(n - 1)}),
            "e1": Matrix({(k + 1, k): ONE for k in range(n - 1)})}


def mu_rep_report(n):
    """mu_n satisfies `sphere_rules` at c = c(n), A is invertible and e_{±1} nilpotent.

    Nilpotency is read off the support, e_1 strictly lower and e_{-1}
    strictly upper triangular, which the rules force: A is diagonal with
    pairwise distinct eigenvalues, and e_{±1} shift them by q^∓2.
    The report is kept in _MU_REPORTS per n; each call gets its own
    failure list, matrices and dict of them.
    """
    if n not in _MU_REPORTS:
        _MU_REPORTS[n] = _mu_rep(n)
    r = _MU_REPORTS[n]
    return dict(r, relation_failures=list(r["relation_failures"]),
                rep={k: Matrix(m.terms) for k, m in r["rep"].items()})


def _mu_rep(n):
    rep = build_mu_n(n)
    failures = rule_failures(sphere_rules(cn_value(2 * n)), _products(
        {g: rep[_PRINT[g]] for g in LETTERS}, Matrix.identity(n)), _PRINT.get)
    nilpotent = {"e1": all(i > j for i, j in rep["e1"].terms),
                 "em1": all(i < j for i, j in rep["em1"].terms)}
    a_invertible = all(rep["A"][k, k] for k in range(n))
    ok = not failures and all(nilpotent.values()) and a_invertible
    return {"pass": ok, "relation_failures": failures, "n": n,
            "e1_nilpotent": nilpotent["e1"], "em1_nilpotent": nilpotent["em1"],
            "A_invertible": a_invertible, "rep": rep}


# ---------------------------------------------------------------------------
# localization check: the sphere maps into the opposite Borel algebra

class BorelOp(LinComb):
    """U_q(b^-)^op on the basis F^a K^b (a >= 0, b in Z) with the reversed product."""

    __slots__ = ()

    UNIT = (0, 0)

    @staticmethod
    def mono(a, b, coeff=ONE):
        return BorelOp({(a, b): coeff})

    def _mono_mul(self, m1, m2):
        # opposite product: F^a1 K^b1 then F^a2 K^b2 multiplies as the
        # usual product in reversed order
        (a1, b1), (a2, b2) = m1, m2
        return {(a1 + a2, b1 + b2): qpow(-4 * a1 * b2)}

    def _mono_str(self, m):
        return None if m == self.UNIT else "F^%d*K^%d" % m

    @staticmethod
    def _sort_key(m):
        return m

    def counit(self):
        """Evaluation at F -> 0, K -> 1."""
        return self.coeff_sum(lambda m: m[0] == 0)


def verify_localization(c: CParam):
    """Check the localization images satisfy all four sphere relations."""
    if c.is_zero() or c.is_infinity():
        raise ValueError("the localization check needs generic c")
    s = c.s
    K = BorelOp.mono(0, 1)
    Kinv = BorelOp.mono(0, -1)
    F = BorelOp.mono(1, 0)
    em1 = s * Kinv
    e0 = s * (qpow(6) - qpow(-2)) * F + BorelOp.mono(0, 0)
    e1 = (-s * QHAT * QHAT) * (K * F * F) - QHAT * (K * F) + s * K
    Aim = (BorelOp.mono(0, 0) - e0) * (Q * Q + 1).inv()
    failures = rule_failures(sphere_rules(c.c_value()), _products(
        {"m": em1, "A": Aim, "p": e1}, BorelOp.mono(0, 0)), _PRINT.get)
    counits = {"em1": em1.counit(), "e0": e0.counit(), "e1": e1.counit()}
    counit_ok = (counits["em1"] == s and counits["e0"] == ONE and counits["e1"] == s)
    return {"pass": not failures and counit_ok, "failures": failures,
            "counit_ok": counit_ok}
