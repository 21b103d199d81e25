"""Linear combinations of monomials, and normal forms by rewriting.

Every element type of the engine (O_q(SL2), the sphere, the dual-coalgebra
symbols, the opposite Borel algebra) is a finite linear combination of
monomials with RatFunc coefficients.  `LinComb` holds the `terms` dict
{monomial: nonzero coefficient} and does the vector-space arithmetic once;
a subclass names its unit monomial and supplies the product of two
monomials.  `RewriteSystem` computes normal forms of words from a table of
two-letter rules and checks the table's overlaps (Bergman's diamond lemma).
"""

import itertools

from .scalars import ZERO, ONE, RatFunc


def accumulate(out, terms, coeff=None):
    """Add coeff * terms (or terms) into the dict `out`, dropping zero sums; returns out."""
    for m, c in terms.items():
        v = out.get(m, ZERO) + (c if coeff is None else coeff * c)
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def tensor_terms(left, right):
    """{(l, r): a * b} for left = {l: a} and right = {r: b}."""
    return {(l, r): a * b for l, a in left.items() for r, b in right.items()}


def term_str(coeff, name):
    """coeff*name, the coefficient bracketed if it is a sum or quotient (name None: the unit)."""
    cs = str(coeff)
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
    """a*b^2*c for the word (a, b, b, c); None for the empty word."""
    if not word:
        return None
    parts = []
    for g, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(g if n == 1 else "%s^%d" % (g, n))
    return "*".join(parts)


class LinComb:
    """A linear combination {monomial: nonzero RatFunc coefficient}.

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

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LinComb):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in o.terms.items():
                    t = self._mono_mul(m1, m2)
                    if t:               # no coefficient product for a zero product
                        accumulate(out, t, c1 * c2)
            return self._new(out)
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
        out = self._coerce(ONE)
        for _ in range(n):
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
    (coefficient, word).  The rules must terminate; they define an algebra
    with the irreducible words as a basis exactly when every overlap
    resolves, which `confluence_report` checks on all short words.
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

    def confluence_report(self, letters, max_len):
        """Every first rewriting step of each word of <= max_len letters reaches one normal form."""
        checked = 0
        for n in range(max_len + 1):
            for word in itertools.product(letters, repeat=n):
                redexes = [i for i in range(n - 1) if word[i:i + 2] in self.rules]
                if not redexes:
                    continue
                base = self.reduce_word(word)
                if any(self._step(word, i) != base for i in redexes):
                    return {"confluent": False, "witness": word, "checked": checked}
                checked += 1
        return {"confluent": True, "witness": None, "checked": checked}
