"""The Podles sphere O_q(S^2_c) as an abstract algebra.

Internal generators are e_{-1} (letter "m"), A (letter "A") and e_1
(letter "p"); e_0 = kappa - (1+q^2) A, where kappa = eps(e_0) is 1 at
finite c and 0 at c = infinity.  The four-rule rewriting system of the
defining relations (e_1 A -> q^2 A e_1, e_{-1} A -> q^-2 A e_{-1}, and the
two e-e rules) moves A-letters to the front, so stored normal-form
monomials are A^j e_{-1}^i and A^j e_1^k; no monomial contains both e_{-1}
and e_1.  These equal the basis monomials e_{-1}^i A^j and A^j e_1^k up to
an explicit q-power.

Besides the rules, the data are the counit and the right coaction's letter
table (e_i -> sum_j e_j (x) pi_{j,i}); the rest is read off the coaction
(Podles, Lett. Math. Phys. 14, 1987; Klimyk-Schmuedgen, 11.6): the
embedding into O_q(SL2) as (eps (x) id) Delta_B on the letters, and the left
U_q(sl2)-action as X |> b = b(0) X(b(1)), X evaluated on the O_q(SL2) leg
by `oqsl2.EVALUATOR`.  The rules are written once, in `sphere_rules`, and
every relation check runs them through `_rule_failures`: the embedded
generators, the representations mu_n at c = c(n) and the localization
onto the opposite Borel algebra.
"""

import functools

from .algebra import LinComb, RewriteSystem, accumulate, tensor_terms
from .scalars import (ZERO, ONE, Q, QHAT, RatFunc, qpow, CParam, cn_value)
from . import oqsl2
from .oqsl2 import SL2Element, pi_coeff
from . import linalg
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
        self._embed_cache = {}
        self._coact_letter = None
        self._coact_cache = {}

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
            for g, terms in self._coact_letters().items():
                img = {}
                for (pm, am), coeff in terms.items():
                    accumulate(img, {am: self.counit(self.element({pm: coeff}))})
                self._embed_letter[g] = SL2Element(img)
        return self._embed_letter

    def embed(self, x):
        out = SL2Element()
        for mono, coeff in x.terms.items():
            out = out + coeff * self._embed_mono(mono)
        return out

    def _embed_mono(self, mono):
        """The image of a monomial, one SL2 product on the image of its prefix."""
        v = self._embed_cache.get(mono)
        if v is None:
            if mono:
                v = self._embed_mono(mono[:-1]) * self._letter_images()[mono[-1]]
            else:
                v = SL2Element.unit()
            self._embed_cache[mono] = v
        return v

    # -- left action of E, F, K^n, read off the right coaction

    def act(self, kind, x, power=1):
        """Left action X |> x = x(0) X(x(1)) of X = E, F or K^power."""
        word = ((kind, power),) if kind == "K" else ((kind,),)
        out = {}
        for (pm, am), coeff in self.coact(x).items():
            v = oqsl2.EVALUATOR.eval_word(word, am)
            if v:
                out[pm] = out.get(pm, ZERO) + coeff * v
        return self.element(out)

    # -- right coaction B -> B (x) O_q(SL2)

    def _coact_letters(self):
        if self._coact_letter is None:
            ee = {-1: self.em1(), 0: self.e0(), 1: self.e1()}
            def coact_ei(i):
                t = {}
                for j in (-1, 0, 1):
                    accumulate(t, tensor_terms(ee[j].terms, pi_coeff(j, i).terms))
                return t
            # A = (kappa - e_0)/(1+q^2), and kappa is grouplike
            scale = (Q * Q + 1).inv()
            tA = accumulate({}, coact_ei(0), -scale)
            accumulate(tA, {((), ()): self.eps_weights()[1] * scale})
            self._coact_letter = {"m": coact_ei(-1), "p": coact_ei(1), "A": tA}
        return self._coact_letter

    def coact(self, x):
        """Right coaction as {(sphere monomial, SL2 monomial): coeff}."""
        letters = self._coact_letters()
        out = {}
        for mono, coeff in x.terms.items():
            t = self._coact_cache.get(mono)
            if t is None:
                t = {((), ()): ONE}
                for g in mono:
                    t = self._tens_mul(t, letters[g])
                self._coact_cache[mono] = t
            accumulate(out, t, coeff)
        return out

    def _tens_mul(self, t1, t2):
        """Product in B (x) O_q(SL2) of {(sphere word, SL2 word): coeff} dicts."""
        out = {}
        for (p1, a1), c1 in t1.items():
            for (p2, a2), c2 in t2.items():
                accumulate(out, tensor_terms(self.reduce_word(p1 + p2),
                                             oqsl2.reduce_word(a1 + a2)), c1 * c2)
        return out


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

def confluence_report(c: CParam, max_len=3):
    """All first rewriting steps of short words lead to the same normal form."""
    return PodlesAlgebra(c).rewriting.confluence_report(LETTERS, max_len)


def _rule_failures(rules, images, one):
    """(rule, residual) of each rewriting rule that fails on the letter images."""
    failures = []
    for (x, y), rhs in rules.items():
        res = images[x] * images[y]
        for coeff, rep in rhs:
            term = one
            for g in rep:
                term = term * images[g]
            res = res - coeff * term
        if not res.is_zero():
            failures.append(("%s*%s" % (_PRINT[x], _PRINT[y]), str(res)))
    return failures


def embedded_relations_report(c: CParam):
    """The four rewritten defining relations hold for the embedded generators."""
    alg = PodlesAlgebra(c)
    images = {g: alg.embed(alg.gen(g)) for g in LETTERS}
    failures = _rule_failures(alg.rewriting.rules, images, SL2Element.unit())
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


def basis_independence(c: CParam, degree):
    """Rank certificate: embedded normal-form monomials are linearly independent."""
    alg = PodlesAlgebra(c)
    monos = alg.normal_monomials(degree)
    images = [alg.embed(alg.element({m: ONE})) for m in monos]
    cols = sorted({w for img in images for w in img.terms}, key=lambda w: (len(w), w))
    colidx = {w: i for i, w in enumerate(cols)}
    rows = [linalg.coordinate_row(img.terms, colidx) for img in images]
    r = linalg.rank(rows)
    witness = None
    if r < len(rows):
        # the first monomial dependent on those before it
        r = 0
        for k, mono in enumerate(monos):
            r2 = linalg.rank(rows[:k + 1])
            if r2 == r:
                witness = mono
                break
            r = r2
    return {"independent": witness is None, "rank": r, "count": len(monos),
            "witness": witness, "degree": degree}


# ---------------------------------------------------------------------------
# the indecomposable representations mu_n at c = c(n)

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
    """mu_n satisfies `sphere_rules` at c = c(n), A is invertible and e_{±1} nilpotent."""
    rep = build_mu_n(n)
    failures = _rule_failures(sphere_rules(cn_value(2 * n)),
                              {g: rep[_PRINT[g]] for g in LETTERS}, Matrix.identity(n))
    nilpotent = {name: functools.reduce(Matrix.__mul__, [rep[name]] * n).is_zero()
                 for name in ("e1", "em1")}
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
    failures = _rule_failures(sphere_rules(c.c_value()), {"m": em1, "A": Aim, "p": e1},
                              BorelOp.mono(0, 0))
    counits = {"em1": em1.counit(), "e0": e0.counit(), "e1": e1.counit()}
    counit_ok = (counits["em1"] == s and counits["e0"] == ONE and counits["e1"] == s)
    return {"pass": not failures and counit_ok, "failures": failures,
            "counit_ok": counit_ok}
