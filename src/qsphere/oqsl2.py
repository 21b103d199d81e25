"""The Hopf algebra O_q(SL2).

Generators a, b, c, d are the matrix coefficients u^1_1, u^1_2, u^2_1,
u^2_2 of the vector corepresentation.  The commutation relations are the
ones compatible with the distinguished dual functionals (E, F, K = f_{q^-1},
f_lambda, g) and their coproducts; with K(a) = q^-1 this forces

    ab = q ba,  ac = q ca,  bd = q db,  cd = q dc,  bc = cb,
    ad - q bc = 1 = da - q^-1 bc.

Every element is kept in PBW normal form with basis
{b^i c^j a^k} u {b^i c^j d^l, l >= 1}.  The rules terminate: each lowers
(length, number of a/d letters, inversions under b < c < a, d) in
lexicographic order, in any context.
"""

from .algebra import LinComb, RewriteSystem, accumulate, rule_failures, word_image
from .scalars import ZERO, ONE, Q, QINV, QHAT, qpow

GENS = ("a", "b", "c", "d")

# rewriting rules: 2-letter pattern -> list of (coefficient, replacement word)
RULES = {
    ("a", "b"): [(Q, ("b", "a"))],
    ("a", "c"): [(Q, ("c", "a"))],
    ("d", "b"): [(QINV, ("b", "d"))],
    ("d", "c"): [(QINV, ("c", "d"))],
    ("c", "b"): [(ONE, ("b", "c"))],
    ("a", "d"): [(ONE, ()), (Q, ("b", "c"))],
    ("d", "a"): [(ONE, ()), (QINV, ("b", "c"))],
}

_REWRITING = RewriteSystem(RULES)


def reduce_word(word):
    """Normal form of a free word as a dict {PBW monomial: coefficient}."""
    return _REWRITING.reduce_word(word)


def word_counit(word):
    return ONE if all(g in ("a", "d") for g in word) else ZERO


class SL2Element(LinComb):
    """Linear combination of PBW monomials with RatFunc coefficients.

    With coefficients in a ring M over Q(t), {a: x} is the tensor sum
    x (x) a in M (x) O_q(SL2); Delta and the sphere's coaction take this form.
    """

    __slots__ = ()

    @staticmethod
    def from_word(word, coeff=ONE):
        return SL2Element(reduce_word(tuple(word))) * coeff

    @staticmethod
    def unit(coeff=ONE):
        return SL2Element({(): coeff})

    @staticmethod
    def gen(name):
        return SL2Element({(name,): ONE})

    def _mono_mul(self, m1, m2):
        return reduce_word(m1 + m2)

    def counit(self):
        return self.coeff_sum(word_counit)


A_ = SL2Element.gen("a")
B_ = SL2Element.gen("b")
C_ = SL2Element.gen("c")
D_ = SL2Element.gen("d")
UNIT = SL2Element.unit()


# ---------------------------------------------------------------------------
# coalgebra structure

_GEN_COPROD = {
    "a": [("a", "a"), ("b", "c")],
    "b": [("a", "b"), ("b", "d")],
    "c": [("c", "a"), ("d", "c")],
    "d": [("c", "b"), ("d", "d")],
}


def _letter_coproduct(g):
    """Delta of a generator, read from `_GEN_COPROD` when it is reached."""
    legs = {}
    for x, y in _GEN_COPROD[g]:
        accumulate(legs, {(y,): SL2Element.gen(x)})
    return SL2Element(legs)


_COPROD_CACHE = {(): SL2Element.unit(UNIT)}


def word_coproduct(word):
    """Delta of a free word, the product of its letters' Delta (`algebra.word_image`).

    A tensor sum x (x) a of O_q(SL2) (x) O_q(SL2) is the SL2Element {a: x},
    its coefficients elements of the left leg: Delta(a) = a (x) a + b (x) c
    is {a: a, c: b}.
    """
    return word_image(word, _letter_coproduct, _COPROD_CACHE)


def coproduct(x):
    """Delta of an element, as `word_coproduct` gives it."""
    out = {}
    for m, c in x.terms.items():
        accumulate(out, word_coproduct(m).terms, c)
    return SL2Element(out)


def coassociative(t, coact):
    """(coact (x) id) t == (id (x) Delta) t for t = sum x (x) a in M (x) O_q(SL2).

    t is the SL2Element {a: x}, and coact maps M into M (x) O_q(SL2) in the
    same form; both sides, x' (x) a' (x) a'', are held as {a'': {a': x'}}.
    """
    left = SL2Element({a: coact(x) for a, x in t.terms.items()})
    right = {}
    for a, x in t.terms.items():
        for a2, y in word_coproduct(a).terms.items():
            accumulate(right, {a2: SL2Element.unit(x) * y})
    return left == SL2Element(right)


# _S_LETTER[g] = (h, coeff) with S(g) = coeff h: S(a) = d, S(d) = a,
# S(b) = -q^-1 b, S(c) = -q c; then S^-1(h) = coeff^-1 g
_S_LETTER = {"a": ("d", ONE), "d": ("a", ONE), "b": ("b", -QINV), "c": ("c", -Q)}
_SINV_LETTER = {h: (g, coeff.inv()) for g, (h, coeff) in _S_LETTER.items()}


def antipode(x, inverse=False):
    """The antipode S (anti-algebra map), or its inverse."""
    table = _SINV_LETTER if inverse else _S_LETTER
    out = SL2Element()
    for m, c in x.terms.items():
        word = []
        for g in reversed(m):
            tgt, coeff = table[g]
            word.append(tgt)
            c = c * coeff
        out = out + SL2Element.from_word(tuple(word), c)
    return out


# ---------------------------------------------------------------------------
# the spin-1 corepresentation matrix pi

def pi_coeff(i, j):
    """Matrix coefficient pi^i_j of the 3-dimensional corepresentation, i, j in {-1, 0, 1}."""
    table = {
        (-1, -1): [(ONE, "dd")],
        (-1, 0): [(-(Q * Q + 1), "dc")],
        (-1, 1): [(-Q, "cc")],
        (0, -1): [(-qpow(-2), "bd")],
        (0, 0): [(ONE, ""), (Q * QINV * (Q + QINV), "bc")],
        (0, 1): [(ONE, "ac")],
        (1, -1): [(-qpow(-2), "bb")],
        (1, 0): [(Q + QINV, "ba")],
        (1, 1): [(ONE, "aa")],
    }
    out = SL2Element()
    for coeff, word in table[(i, j)]:
        out = out + SL2Element.from_word(tuple(word), coeff)
    return out


# ---------------------------------------------------------------------------
# 2x2 matrices with at most one nonzero entry per row

_GEN_POS = {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}


def _monomial_rows(matrix, what):
    """Each row of a 2x2 matrix as its one nonzero (column, value), or None."""
    rows = []
    for row in matrix:
        nonzero = [(col, v) for col, v in enumerate(row) if not v.is_zero()]
        if len(nonzero) > 1:
            raise AssertionError("matrix of %r has a row with two nonzero "
                                 "entries" % (what,))
        rows.append(nonzero[0] if nonzero else None)
    return tuple(rows)


# ---------------------------------------------------------------------------
# dual functionals and their evaluation
#
# Letters: ('f', lam) is the character f_lam; ('fs', lam) is f_mu with
# mu^2 = lam, whose value matrix diag(mu, mu^-1) = mu diag(1, lam^-1) is
# kept in units of mu; ('g',), ('E',), ('F',) and ('K', n) = f_{q^-n} are as
# in the defining tables; ('r', x) is the L-functional r(-, x) of the
# universal r-form for a generator x (below), with value matrix
# M(x)_rs = r(u_rs, x), legs r(-, x(1)) (x) r(-, x(2)) and value eps(x) on 1.
# A word of letters is evaluated on a monomial by repeatedly splitting off
# the first generator; the value of a word on a single generator is an
# entry of the product of the letters' 2x2 value matrices.
#
# Every letter but 'fs' has values in Q(t), and 'fs' contributes one factor
# mu per generator, so on a monomial of length n a word with 'fs' letters
# takes its values in Q(t) * M^(n mod 2), M the product of their mu.  The
# value is kept as its Q(t) coefficient; M^2 is the product of their lam.

_LETTER_LEGS = {
    "g": [(("g",), None), (None, ("g",))],
    "E": [(("E",), ("K", 1)), (None, ("E",))],
    "F": [(("F",), None), (("K", -1), ("F",))],
}


def _letter_legs(letter):
    kind = letter[0]
    if kind in ("f", "fs", "K"):
        return [(letter, letter)]
    if kind == "r":
        return _R_LEGS[letter[1]]
    return _LETTER_LEGS[kind]


def _mu_square(word):
    """M^2 for the 'fs' letters of a word, or None when it has none."""
    sq = None
    for letter in word:
        if letter[0] == "fs":
            sq = letter[1] if sq is None else sq * letter[1]
    return sq


class Evaluator:
    """Evaluates letter words on SL2 elements exactly in Q(t)."""

    def __init__(self):
        self._memo = {}
        self._rowmemo = {}

    def letter_matrix(self, letter):
        kind = letter[0]
        if kind == "f":
            return ((letter[1], ZERO), (ZERO, letter[1].inv()))
        if kind == "fs":
            return ((ONE, ZERO), (ZERO, letter[1].inv()))
        if kind == "g":
            return ((ONE, ZERO), (ZERO, -ONE))
        if kind == "E":
            return ((ZERO, ZERO), (ONE, ZERO))
        if kind == "F":
            return ((ZERO, ONE), (ZERO, ZERO))
        if kind == "K":
            return ((qpow(-2 * letter[1]), ZERO), (ZERO, qpow(2 * letter[1])))
        if kind == "r":
            return tuple(tuple(_R_GEN.get((u, letter[1]), ZERO) for u in row)
                         for row in (("a", "b"), ("c", "d")))
        raise ValueError("unknown letter %r" % (letter,))

    def letter_rows(self, letter):
        rows = self._rowmemo.get(letter)
        if rows is None:
            rows = _monomial_rows(self.letter_matrix(letter), letter)
            self._rowmemo[letter] = rows
        return rows

    def word_unit_value(self, word):
        for letter in word:
            kind = letter[0]
            if kind in ("g", "E", "F") or (kind == "r" and not word_counit(letter[1:])):
                return ZERO
        return ONE

    def eval_word(self, word, mono):
        """Value of a word on a monomial, in units of M^(len(mono) mod 2)."""
        key = (word, mono)
        v = self._memo.get(key)
        if v is not None:
            return v
        if not mono:
            v = self.word_unit_value(word)
        else:
            # w(g0 rest) = sum over a leg (l1, l2) of every letter of
            # (l1 ...)(g0) (l2 ...)(rest), and with g0 = u_ij the first
            # factor is entry (i, j) of the product of the l1 matrices.  Walk
            # row i through them, collecting the l2 as the rest word; a
            # branch ends at its first zero row.  A missing leg is eps.
            i, j = _GEN_POS[mono[0]]
            branches = [(i, ONE, ())]
            for letter in word:
                legs = _letter_legs(letter)
                grown = []
                for row, val, bword in branches:
                    for l1, l2 in legs:
                        if l1 is None:
                            nrow, nval = row, val
                        else:
                            entry = self.letter_rows(l1)[row]
                            if entry is None:
                                continue
                            nrow, nval = entry[0], val * entry[1]
                        grown.append((nrow, nval, bword if l2 is None else bword + (l2,)))
                branches = grown
            rest = mono[1:]
            total = ZERO
            for row, val, bword in branches:
                if row == j:
                    right = self.eval_word(bword, rest)
                    if right:
                        total = total + val * right
            # the 'fs' letters go to both legs: M from g0 times M on an odd
            # rest is M^2
            if len(rest) % 2 and total:
                sq = _mu_square(word)
                if sq is not None:
                    total = total * sq
            v = total
        self._memo[key] = v
        return v

    def eval(self, word, x):
        has_mu = _mu_square(word) is not None
        total = ZERO
        for mono, coeff in x.terms.items():
            if has_mu and len(mono) % 2:
                raise ArithmeticError(
                    "f_mu word on an odd-length monomial: the value is not "
                    "in Q(t)")
            total = total + coeff * self.eval_word(word, mono)
        return total


# A word's values on SL2 monomials do not depend on the sphere's c, so one
# evaluator and its memo serve the whole process: the psi functionals of
# every engine, the sphere's U_q(sl2)-action and the r-form below.
EVALUATOR = Evaluator()


# ---------------------------------------------------------------------------
# the standard universal r-form
#
# Bimultiplicativity conventions: r(xy, z) = r(x, z(1)) r(y, z(2)) and
# r(x, yz) = r(x(1), z) r(x(2), y).  Values on generator pairs carry the
# overall factor q^(-1/2); in particular r(-, c) vanishes identically.

_R_GEN = {
    ("a", "a"): qpow(1),          # q^(-1/2) * q
    ("d", "d"): qpow(1),
    ("a", "d"): qpow(-1),
    ("d", "a"): qpow(-1),
    ("c", "b"): qpow(-1) * QHAT,
}

# the letters ('r', x) and their legs are built once and shared by the memo keys
_R_LETTER = {x: ("r", x) for x in GENS}
_R_LEGS = {x: [(_R_LETTER[x1], _R_LETTER[x2]) for x1, x2 in _GEN_COPROD[x]]
           for x in GENS}


def rform_words(w1, w2):
    """The r-form on a pair of free words (well defined on the quotient).

    r(w1, x_1...x_m) is the word r(-, x_m)...r(-, x_1) of letters on w1.
    """
    return EVALUATOR.eval_word(tuple(_R_LETTER[x] for x in reversed(w2)), w1)


def rform(x, y):
    """Bilinear extension of the universal r-form to elements."""
    total = ZERO
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            v = rform_words(m1, m2)
            if v:
                total = total + c1 * c2 * v
    return total


# ---------------------------------------------------------------------------
# structural checks (used by the acceptance suite)

def confluence_report():
    """The eight overlaps of the rules resolve (see `RewriteSystem`)."""
    return _REWRITING.confluence_report()


def hopf_axioms_report():
    """Delta and eps respect the rules on free words, S does as an anti-map,
    and coassociativity and both sides' counit and antipode axioms hold on a, b, c, d.

    So the axioms hold in every degree: with Delta and eps algebra maps and
    S an anti-algebra map, the elements satisfying an axiom form a subalgebra
    (Kassel, Quantum Groups, GTM 155, III.3), and it holds a, b, c, d.
    """
    failures = [(name,) + f for name, image in (
        ("coproduct", word_coproduct),
        ("counit", word_counit),
        ("antipode", lambda w: antipode(SL2Element({w: ONE}))))
        for f in rule_failures(RULES, image)]
    for g in GENS:
        if not coassociative(word_coproduct((g,)), coproduct):
            failures.append(("coassociativity", g, ""))
        x = SL2Element.gen(g)
        legs = [(l, SL2Element({m: ONE})) for m, l in word_coproduct((g,)).terms.items()]
        for side, f, want in (("left counit", lambda l, r: r * l.counit(), x),
                              ("right counit", lambda l, r: l * r.counit(), x),
                              ("left antipode", lambda l, r: antipode(l) * r, x.counit()),
                              ("right antipode", lambda l, r: l * antipode(r), x.counit())):
            got = sum((f(l, r) for l, r in legs), SL2Element())
            if got != want:
                failures.append((side, g, str(got)))
    return {"pass": not failures, "failures": failures}


def rform_well_defined_report():
    """r respects the rules in each slot against each generator in the other,
    so it is well defined in every degree: by bimultiplicativity the 2x2
    matrices [r(w, u_kl)] are multiplicative and [r(u_kl, w)]
    anti-multiplicative in the free word w, so they kill the relation ideal.
    Longer words expand through the iterated coproduct, which keeps the
    relation ideal once Delta respects the rules.
    """
    failures = []
    for u in GENS:
        for slot, image in (("first-slot", lambda w: rform_words(w, (u,))),
                            ("second-slot", lambda w: rform_words((u,), w))):
            failures += [(slot, u) + f for f in rule_failures(RULES, image)]
    return {"pass": not failures, "failures": failures}
