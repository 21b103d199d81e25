"""Linear combinations of monomials, and normal forms by rewriting.

Every element type of the engine (O_q(SL2), the sphere, the dual-coalgebra
symbols, the opposite Borel algebra) is a finite linear combination of
monomials with RatFunc coefficients.  `LinComb` holds the `terms` dict
{monomial: nonzero coefficient} and does the vector-space arithmetic once;
a subclass names its unit monomial and supplies the product of two
monomials.  `RewriteSystem` computes normal forms of words from a table of
two-letter rules and checks the table's overlaps (Bergman's diamond lemma),
and `rule_failures` checks that a map of free words respects the rules.
`word_image` is the one multiplicative map of words that keeps its images:
Delta, the sphere's coaction and its embedding into O_q(SL2).
"""

import itertools

from .scalars import ZERO, ONE, RatFunc


def accumulate(out, terms, coeff=None):
    """Add coeff * terms (or terms) into the dict `out`, dropping zero sums; returns out.

    Nothing is multiplied by ONE: coeff ONE adds the terms as they are, and
    a term whose coefficient is ONE (a matrix unit, a word already normal)
    takes coeff itself.
    """
    if coeff is ONE:
        coeff = None
    for m, c in terms.items():
        if coeff is not None:
            c = coeff if c is ONE else coeff * c
        old = out.get(m)
        v = c if old is None else old + c   # ZERO + c would copy an element entry
        if v:
            out[m] = v
        elif old is not None:
            del out[m]
    return out


def _product_into(out, x, y, scale=ONE):
    """Add scale * x * y into the terms dict out and return it; x and y are of
    one type, scale is a central scalar.

    Each pair of terms gives the coefficient product c1 c2 on each monomial
    of m1 m2.  When c1 and c2 are elements of one type (entries of a Matrix
    over B, legs of a tensor), their product's terms are added straight
    into one terms dict per output monomial, which becomes the entry once
    every pair is in: no product element, copy or sum element is built per
    pair.  Coefficient order is kept, c1 before c2, as the coefficient ring
    need not commute.
    """
    parts = {}                          # monomial -> (an entry of its type, terms)
    for m1, c1 in x.terms.items():
        nested = isinstance(c1, LinComb)
        for m2, c2 in y.terms.items():
            t = x._mono_mul(m1, m2)
            if not t:                   # no coefficient product for a zero product
                continue
            if nested and type(c2) is type(c1):
                c2 = c1._coerce(c2)     # refuses what c1 * c2 refuses
                for m, c in t.items():
                    part = parts.get(m)
                    if part is None:
                        part = parts[m] = (c1, {})
                    _product_into(part[1], c1, c2, c if scale is ONE else c * scale)
            else:
                c = c1 * c2
                accumulate(out, t, c if scale is ONE else c * scale)
    for m, (entry, terms) in parts.items():
        if terms:
            accumulate(out, {m: entry._new(terms)})
    return out


def word_image(word, letter, kept):
    """letter(w_1) ... letter(w_k), one product on the kept image of the word's prefix.

    kept maps words to their images and holds () -> the unit; every image
    built is stored there.  letter is called when a letter is reached, so it
    reads the letter table as it is then.
    """
    v = kept.get(word)
    if v is None:
        v = kept[word] = word_image(word[:-1], letter, kept) * letter(word[-1])
    return v


def term_str(coeff, name):
    """coeff*name, the coefficient bracketed if it is a sum or quotient (name None: the unit).

    An element coefficient x is the left leg of a tensor, x (x) name, and
    bracketed if it has more than one term.
    """
    cs = str(coeff)
    if isinstance(coeff, LinComb):
        return "%s (x) %s" % ("(%s)" % cs if len(coeff.terms) > 1 else cs, name or "1")
    if name is None:
        return cs
    if cs == "1":
        return name
    if cs == "-1":
        return "-" + name
    if any(op in cs[1:] for op in "+-/") or "*" in cs:
        cs = "(" + cs + ")"
    return cs + "*" + name


def word_str(word):
    """a*b^2*c for the word (a, b, b, c); None for ()."""
    if not word:
        return None
    parts = []
    for g, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(g if n == 1 else "%s^%d" % (g, n))
    return "*".join(parts)


class LinComb:
    """A linear combination {monomial: nonzero coefficient}.

    Coefficients are RatFuncs, or elements of a ring over Q(t) such as the
    sphere: a `linalg.Matrix` over B is M_N(B), and an `oqsl2.SL2Element`
    {a: x} over B is the tensor sum x (x) a in B (x) O_q(SL2), multiplied
    by (x1 (x) a1)(x2 (x) a2) = x1 x2 (x) a1 a2.  Sums, products and
    equality use only the coefficients' +, * and ==.

    A subclass sets UNIT, the monomial that scalars are identified with
    (None when scalars are not elements), and overrides `_mono_mul`,
    `_mono_str` and `_sort_key` as needed.  Results are built with `_new`.
    """

    __slots__ = ("terms",)

    UNIT = ()

    def __init__(self, terms=None):
        self.terms = {m: v for m, v in terms.items() if v} if terms else {}

    def _new(self, terms):
        return type(self)(terms)

    def _coerce(self, other):
        """other as an element of this kind, or None."""
        if isinstance(other, LinComb):
            return other if type(other) is type(self) else None
        c = RatFunc.coerce(other) if self.UNIT is not None else None
        if c is None:
            return None
        return self._new({self.UNIT: c} if c else {})

    def _mono_mul(self, m1, m2):
        """The product of two monomials as {monomial: coefficient}."""
        raise TypeError("%s has no product" % type(self).__name__)

    def _mono_str(self, m):
        return word_str(m)

    @staticmethod
    def _sort_key(m):
        return (len(m), m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(accumulate(dict(self.terms), o.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, LinComb):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            return self._new(_product_into({}, self, o))
        c = RatFunc.coerce(other)
        if c is None:
            return NotImplemented
        if not c:
            return self._new({})
        return self._new({m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        # only scalars and foreign types get here, and scalars commute
        return self * other

    def __truediv__(self, other):
        c = RatFunc.coerce(other)
        if c is None:
            return NotImplemented
        return self * c.inv()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        if n == 0:
            unit = self._coerce(ONE)
            if unit is None:
                raise ValueError("%s has no unit (UNIT is None), so ** 0 is undefined"
                                 % type(self).__name__)
            return unit
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # an element on the unit monomial hashes like the scalar it equals
        terms = self.terms
        if not terms:
            return hash(ZERO)
        if len(terms) == 1 and self.UNIT in terms:
            return hash(terms[self.UNIT])
        return hash(frozenset(terms.items()))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff_sum(self, keep):
        """The sum of the coefficients of the monomials m with keep(m)."""
        out = ZERO
        for m, c in self.terms.items():
            if keep(m):
                out = out + c
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [term_str(self.terms[m], self._mono_str(m))
                 for m in sorted(self.terms, key=self._sort_key)]
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class RewriteSystem:
    """Normal forms of words under two-letter rewriting rules.

    `rules` maps a pair of letters to its replacement, a list of
    (coefficient, word).  The rules must terminate; each owner names a well
    ordered measure on words that every rule lowers in any context.  By
    Bergman's diamond lemma (Adv. Math. 29, 1978) the irreducible words are
    then a basis of the algebra exactly when each overlap xyz, with xy and yz
    both left sides, resolves: two-letter rules have no other ambiguity.
    """

    def __init__(self, rules):
        self.rules = rules
        self._nf = {}

    def _step(self, word, i):
        """The normal form of word, reached through the rule at position i."""
        out = {}
        for coeff, rep in self.rules[word[i:i + 2]]:
            accumulate(out, self.reduce_word(word[:i] + rep + word[i + 2:]), coeff)
        return out

    def reduce_word(self, word):
        """Normal form of a word (a tuple of letters) as {normal word: coefficient}."""
        nf = self._nf.get(word)
        if nf is None:
            for i in range(len(word) - 1):
                if word[i:i + 2] in self.rules:
                    nf = self._step(word, i)
                    break
            else:
                nf = {word: ONE}
            self._nf[word] = nf
        return nf

    def confluence_report(self):
        """Both first steps of each overlap xyz, in word order, reach one normal form."""
        overlaps = sorted((x, y, z) for x, y in self.rules for y2, z in self.rules if y == y2)
        for checked, word in enumerate(overlaps):
            if self._step(word, 0) != self._step(word, 1):
                return {"confluent": False, "witness": word, "checked": checked}
        return {"confluent": True, "witness": None, "checked": len(overlaps)}


def rule_failures(rules, image, name=str):
    """(rule, residual) of each rule xy -> sum c w with image(xy) != sum c image(w).

    image maps free words to elements or scalars, name(g) prints a letter.
    A (anti-)multiplicative image with no failure kills the rules' ideal.
    """
    failures = []
    for (x, y), rhs in rules.items():
        res = image((x, y))
        for coeff, rep in rhs:
            res = res - coeff * image(rep)
        if res:
            failures.append(("%s*%s" % (name(x), name(y)), str(res)))
    return failures
