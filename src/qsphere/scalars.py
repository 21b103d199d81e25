"""Exact scalar arithmetic for the quantum sphere engine.

The ground field is Q(t) with q = t**2, so that half-integer powers of q
(q^(1/2), q^(n/2) for n odd) are honest field elements.  Working over a
rational function field keeps every constant exact and makes "q is not a
root of unity" structural rather than a runtime check.

A RatFunc is a reduced fraction of integer-coefficient polynomials in t.
The canonical form (coprime numerator/denominator, coprime integer
contents, positive leading denominator coefficient) is unique, so equal
field elements compare and hash equal and may be used as dict keys.

Elements are printed in q and parsed back by `parse_ratfunc`, which reads
the CLI's s= specs: integer literals, the name q, unary + and -, binary
+ - * / and ^ (products need an explicit *), with a constant integer or
half-integer exponent, a half-integer only on q.
"""

import functools
import math
import operator
from fractions import Fraction

# ---------------------------------------------------------------------------
# integer polynomials in t, represented as tuples of coefficients
# (low degree first, no trailing zeros; () is the zero polynomial)

def _ptrim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    if len(a) > len(b):
        return tuple([x + y for x, y in zip(a, b)]) + a[len(b):]
    return _ptrim([x + y for x, y in zip(a, b)])


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    """a*b; an operand with one term c*t^k shifts the other by k and scales it by c."""
    if not a or not b:
        return ()
    if len(b) == 1:                     # a constant needs no scan
        return _shift_scale(a, 0, b[0])
    if len(a) == 1:
        return _shift_scale(b, 0, a[0])
    anz = [(i, x) for i, x in enumerate(a) if x]
    if len(anz) == 1:
        return _shift_scale(b, *anz[0])
    bnz = [(j, y) for j, y in enumerate(b) if y]
    if len(bnz) == 1:
        return _shift_scale(a, *bnz[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in anz:
        for j, y in bnz:
            out[i + j] += x * y
    return tuple(out)


def _shift_scale(a, k, c):
    """t^k * c * a."""
    return (0,) * k + (a if c == 1 else tuple([x * c for x in a]))


def _pprim(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a
    return tuple(x // g for x in a)


def _pdiv_exact(a, b):
    """Quotient q of a = q*b, or None when b does not divide a exactly."""
    if not a:
        return ()
    db = len(b) - 1
    if len(a) <= db or (b[0] and a[0] % b[0]):
        return None
    lb = b[-1]
    r = list(a)
    bnz = [(j, y) for j, y in enumerate(b[:-1]) if y]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        x = r[k + db]
        if x:
            c, rem = divmod(x, lb)
            if rem:
                return None
            q[k] = c
            for j, y in bnz:
                r[k + j] -= c * y
    if any(r[:db]):
        return None
    return tuple(q)


def _pseudo_rem(a, b):
    """Pseudo-remainder: some lc(b)^k * a reduced mod b (integer arithmetic)."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while True:
        r = _ptrim(r)
        if len(r) - 1 < db or not r:
            return tuple(r)
        lr = r[-1]
        dr = len(r) - 1
        r = [x * lb for x in r]
        for j, y in enumerate(b):
            r[j + dr - db] -= lr * y
        r = list(_ptrim(r))


def _is_monomial(a):
    """a = c*t^k; a general polynomial fails on its constant coefficient."""
    return len(a) == 1 or not a[0] and not any(a[1:-1])


def _ptrail(a):
    for i, x in enumerate(a):
        if x:
            return i
    return 0


def _prs_gcd(a, b):
    """Primitive gcd (positive leading coefficient) via a primitive PRS."""
    a, b = _pprim(a), _pprim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _pprim(r)
    return a


def _peval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _plift(v, x):
    """The polynomial whose coefficients are the symmetric x-adic digits of v."""
    out = []
    half = x // 2
    while v:
        v, c = divmod(v, x)
        if c > half:
            c -= x
            v += 1
        out.append(c)
    return tuple(out)


_HEU_TRIES = 6


def _heu_gcd(a, b):
    """GCDHEU (Char, Geddes and Gonnet 1989): (g, a/g, b/g), or None if it gives up.

    Both inputs have positive degree.  The integer gcd of a(xi) and b(xi)
    is lifted back to a polynomial h.  For xi >= 2*min(|a|, |b|) + 2 (max
    norms of the primitive parts), an h that divides both a and b is their
    gcd, so h counts only once both exact divisions succeed; they also give
    the cofactors.  A failed try grows xi.
    """
    pa, pb = _pprim(a), _pprim(b)
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2
    for _ in range(_HEU_TRIES):
        h = _pprim(_plift(math.gcd(_peval(pa, xi), _peval(pb, xi)), xi))
        if len(h) == 1:
            return h, a, b
        qa = _pdiv_exact(a, h)
        if qa is not None:
            qb = _pdiv_exact(b, h)
            if qb is not None:
                return h, qa, qb
        xi = 3 * xi + math.isqrt(xi) + 1
    return None


def _stride(a0, b0):
    """The gcd s of the exponents of a0 and b0, both with a nonzero constant term.

    Both are polynomials in t^s.  s starts at the gcd of the degrees; while
    some coefficient off the multiples of s is nonzero, s shrinks to its gcd
    with that exponent, and the scan stops as soon as s reaches 1.
    """
    s = math.gcd(len(a0) - 1, len(b0) - 1)
    for p in (a0, b0):
        while s > 1:
            off = list(p)
            off[::s] = [0] * ((len(p) - 1) // s + 1)
            if not any(off):
                break
            s = math.gcd(s, next(i for i, x in enumerate(off) if x))
    return s


def _pexpand(a, s, k):
    """t^k * a(t^s)."""
    if s == 1:
        return (0,) * k + a
    out = [0] * (k + (len(a) - 1) * s + 1)
    out[k::s] = a
    return tuple(out)


def _pgcd(a, b):
    """Primitive gcd g of nonzero a and b, with cofactors: (g, a/g, b/g).

    g has positive leading coefficient and a = g*(a/g), b = g*(b/g) hold
    exactly in Z[t].  The power of t is split off first.  When what is left
    are polynomials A(t^s), B(t^s) with s > 1, gcd(A(t^s), B(t^s)) =
    gcd(A, B)(t^s), so the gcd is taken of A and B.  It comes from GCDHEU,
    or from the primitive PRS when GCDHEU gives up.
    """
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    ta, tb = _ptrail(a), _ptrail(b)
    k = min(ta, tb)
    a0, b0 = a[ta:], b[tb:]
    if len(a0) == 1 or len(b0) == 1:
        return (0,) * k + (1,), a[k:], b[k:]
    s = _stride(a0, b0)
    a0, b0 = a0[::s], b0[::s]
    res = _heu_gcd(a0, b0)
    if res is None:
        g = _prs_gcd(a0, b0)
        res = g, _pdiv_exact(a0, g), _pdiv_exact(b0, g)
    g, qa, qb = res
    return _pexpand(g, s, k), _pexpand(qa, s, ta - k), _pexpand(qb, s, tb - k)


def _canonical(num, cof, g):
    """Canonical (num, den) of the fraction num/(cof*g).

    Every common factor of num and the denominator must divide g (so
    gcd(num, cof) = 1); only gcd(num, g) is then taken.  The integer
    contents are made coprime and the denominator's leading coefficient
    positive.
    """
    if not num:
        return (), _monomial_den(0, 1)
    if len(g) > 1:
        _, num, g = _pgcd(num, g)
    den = g if cof == (1,) else cof if g == (1,) else _pmul(cof, g)
    cg = math.gcd(*num, *den)
    if den[-1] < 0:
        cg = -cg
    if cg != 1:
        num = tuple(x // cg for x in num)
        den = tuple(x // cg for x in den)
    if _is_monomial(den):
        den = _monomial_den(len(den) - 1, den[-1])
    return num, den


def _laurent(num, k, m):
    """The canonical RatFunc num/(m*t^k), m > 0, without a polynomial gcd.

    In the UFD Z[t] the prime factors of m*t^k are t and the rational
    primes, so gcd(num, m*t^k) = t^j * g with j = min(v_t(num), k) and g the
    gcd of m and the coefficients of num.  Dividing both by it leaves coprime
    parts with coprime integer contents, and the denominator's leading
    coefficient m/g is positive: the canonical form.  A sum or product of
    two Laurent polynomials has such a denominator, so it never needs
    `_pgcd`.
    """
    if not num:
        return ZERO
    j = 0
    while j < k and not num[j]:
        j += 1
    if j:
        num, k = num[j:], k - j
    if m != 1:
        g = math.gcd(m, *num)
        if g != 1:
            num, m = tuple(x // g for x in num), m // g
    return RatFunc(num, _monomial_den(k, m), _reduced=True)


_LAURENT_DENS = {}          # id -> each tuple `_monomial_den` made, kept alive


@functools.cache
def _monomial_den(k, m):
    """The tuple of m*t^k, one per (k, m): canonical monomial denominators share it.

    _LAURENT_DENS holds each such tuple for the life of the process, so its
    id is never reused, and a canonical denominator is a monomial exactly
    when its id is in _LAURENT_DENS: one lookup, not a scan.
    """
    den = (0,) * k + (m,)
    _LAURENT_DENS[id(den)] = den
    return den


def _sum(a, b, c, d):
    """a/b + c/d; over monomial denominators by `_laurent`, else by Henrici's method.

    Laurent operands are aligned on lcm(lc(b), lc(d)) * t^max(deg b, deg d).
    Otherwise, with g = gcd(b, d), only gcd(num, g) remains.
    """
    if id(b) in _LAURENT_DENS and id(d) in _LAURENT_DENS:
        beta, delta = b[-1], d[-1]
        m = beta if beta == delta else math.lcm(beta, delta)
        if m != beta:
            a = tuple([x * (m // beta) for x in a])
        if m != delta:
            c = tuple([x * (m // delta) for x in c])
        k, l = len(b) - 1, len(d) - 1
        if k < l:
            a, k = (0,) * (l - k) + a, l
        elif l < k:
            c = (0,) * (k - l) + c
        return _laurent(_padd(a, c), k, m)
    if b == d:
        return RatFunc(*_canonical(_padd(a, c), (1,), b), _reduced=True)
    g, bq, dq = _pgcd(b, d)
    num = _padd(_pmul(a, dq), _pmul(c, bq))
    return RatFunc(*_canonical(num, _pmul(bq, dq), g), _reduced=True)


# ---------------------------------------------------------------------------
# the field Q(t)

class RatFunc:
    """An element of Q(t), stored as a canonical reduced fraction."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _reduced=False):
        # _reduced: num and den are already the canonical coefficient tuples
        if not _reduced:
            num = _ptrim(num)
            den = _ptrim(den)
            if not den:
                raise ZeroDivisionError("zero denominator in Q(t)")
            num, den = _canonical(num, (1,), den)
        self.num = num
        self.den = den
        self._hash = None

    # -- construction helpers

    @staticmethod
    def from_int(n):
        return RatFunc((n,), (1,))

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return RatFunc((fr.numerator,), (fr.denominator,))

    @staticmethod
    def coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc.from_int(x)
        if isinstance(x, Fraction):
            return RatFunc.from_fraction(x)
        return None

    # -- predicates

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic

    def __add__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        return _sum(self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return -o
        return _sum(self.num, self.den, _pneg(o.num), o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if not a or not c:
            return ZERO
        if a == b == (1,):
            return o
        if c == d == (1,):
            return self
        if id(b) in _LAURENT_DENS and id(d) in _LAURENT_DENS:
            return _laurent(_pmul(a, c), len(b) + len(d) - 2, b[-1] * d[-1])
        # Henrici: cancel across the operands, so the product is reduced
        _, a, d = _pgcd(a, d)
        _, c, b = _pgcd(c, b)
        return RatFunc(*_canonical(_pmul(a, c), _pmul(b, d), (1,)), _reduced=True)

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(t)")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        if _is_monomial(den):
            den = _monomial_den(len(den) - 1, den[-1])
        return RatFunc(num, den, _reduced=True)

    def __truediv__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = other if type(other) is RatFunc else RatFunc.coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if self._hash is None:
            num, den = self.num, self.den
            if len(num) <= 1 and len(den) == 1:
                self._hash = hash(Fraction(num[0] if num else 0, den[0]))
            else:
                self._hash = hash((num, den))
        return self._hash

    def lc_sign(self):
        """The sign of lc(num) * lc(den), 0 for zero."""
        if not self.num:
            return 0
        return 1 if (self.num[-1] > 0) == (self.den[-1] > 0) else -1

    def sort_key(self):
        return (len(self.den), self.den, len(self.num), self.num)

    # -- printing (q-syntax; t**2 prints as q, odd t-powers as q^(k/2))

    def __str__(self):
        num, den = self.num, self.den
        if len([c for c in den if c]) == 1:
            # denominator is a single monomial: print as a Laurent combination
            m = len(den) - 1
            dc = den[-1]
            terms = []
            for i in range(len(num) - 1, -1, -1):
                if num[i]:
                    terms.append((Fraction(num[i], dc), i - m))
            return _terms_qstr(terms)
        ns = _poly_qstr(num)
        ds = _poly_qstr(den)
        if len([c for c in num if c]) > 1:
            ns = "(" + ns + ")"
        return ns + "/(" + ds + ")"

    def __repr__(self):
        return "RatFunc(%s)" % self


def _qpow_str(k2):
    if k2 == 2:
        return "q"
    if k2 % 2 == 0:
        return "q^%d" % (k2 // 2)
    return "q^(%d/2)" % k2


def _terms_qstr(terms):
    """Render a list of (Fraction coeff, t-power) pairs in q-syntax."""
    if not terms:
        return "0"
    parts = []
    for idx, (c, k2) in enumerate(terms):
        neg = c < 0
        c = -c if neg else c
        if k2 == 0:
            body = str(c)
        elif c == 1:
            body = _qpow_str(k2)
        else:
            body = "%s*%s" % (c, _qpow_str(k2))
        if idx == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _poly_qstr(p):
    terms = [(Fraction(p[i]), i) for i in range(len(p) - 1, -1, -1) if p[i]]
    return _terms_qstr(terms)


ZERO = RatFunc((), (1,))
ONE = RatFunc((1,), (1,))


def content(values):
    """The gcd of the numerators over the lcm of the denominators of the nonzero values.

    Integer contents are included, so dividing every value by it leaves
    numerators with gcd 1 and denominators with lcm 1.  ONE when every
    value is zero.
    """
    nonzero = [x for x in values if x.num]
    if not nonzero:
        return ONE
    g = _pprim(nonzero[0].num)
    for x in nonzero[1:]:
        if len(g) > 1:
            g = _pgcd(g, x.num)[0]
    num_int = math.gcd(*(c for x in nonzero for c in x.num))
    return RatFunc(_pmul((num_int,), g), _den_lcm(nonzero))


def _den_lcm(nonzero):
    """The lcm in Z[t] of the denominators of nonzero values, integer contents included."""
    dens = {_pprim(x.den) for x in nonzero}
    lcm = dens.pop()
    for den in dens:
        lcm = _pmul(lcm, _pgcd(lcm, den)[2])
    return _pmul((math.lcm(*(math.gcd(*x.den) for x in nonzero)),), lcm)


def clear_denominators(values):
    """(delta, [delta * x for x in values]), delta the lcm of the denominators.

    delta and every delta * x are polynomials in Z[t], each product found
    by one exact division of delta by a denominator, without a gcd.
    """
    nonzero = [x for x in values if x.num]
    if not nonzero:
        return ONE, list(values)
    delta = _den_lcm(nonzero)
    one = _monomial_den(0, 1)
    return (RatFunc(delta, one, _reduced=True),
            [RatFunc(_pmul(x.num, _pdiv_exact(delta, x.den)), one, _reduced=True)
             if x.num else ZERO for x in values])


# the specialization t -> MOD_T0 over GF(MOD_P) used by the modular passes
MOD_P = 2 ** 61 - 1
MOD_T0 = 1234567891011


def eval_mod(x, t0, p):
    """x(t0) in GF(p) for a prime p, or None when the denominator of x vanishes there.

    On the fractions whose denominator does not vanish at t0 mod p this is
    a ring homomorphism to GF(p); a canonical fraction outside that ring
    has a vanishing denominator, so None is returned exactly off its domain.
    """
    den = _peval(x.den, t0) % p
    if not den:
        return None
    return _peval(x.num, t0) * pow(den, -1, p) % p


def qpow(k2):
    """t**k2 as a field element, i.e. q^(k2/2); k2 may be negative."""
    if k2 >= 0:
        return RatFunc((0,) * k2 + (1,), _monomial_den(0, 1), _reduced=True)
    return RatFunc((1,), _monomial_den(-k2, 1), _reduced=True)


Q = qpow(2)
QINV = qpow(-2)
QHAT = Q - QINV          # q - q^-1


@functools.cache
def qint(l):
    """Quantum integer [l] = (q^l - q^-l)/(q - q^-1); [-l] = -[l]."""
    return (qpow(2 * l) - qpow(-2 * l)) / QHAT


@functools.cache
def qbinom(l, r):
    """Gaussian binomial [l; r] for 0 <= r <= l."""
    if r < 0 or r > l:
        raise ValueError("qbinom requires 0 <= r <= l, got l=%d r=%d" % (l, r))
    out = ONE
    for i in range(1, r + 1):
        out = out * qint(l - r + i) / qint(i)
    return out


def cn_value(n2):
    """The exceptional parameter c(n) = -1/(q^n + q^-n)^2 for n = n2/2 >= 0."""
    if n2 < 0:
        raise ValueError("n2 must be nonnegative")
    s = qpow(2 * n2)                      # q^(2n) = t^(2*n2)
    return -qpow(2 * n2) / ((s + 1) * (s + 1))


# ---------------------------------------------------------------------------
# the deformation parameter c

class CParam:
    """The sphere parameter c, supplied through a square root s when finite.

    Storing s = c^(1/2) keeps alpha = -1/(s(q-q^-1)) field-exact; the value
    c = s**2 is derived.  The variants are Generic(s), Infinity and Zero.
    """

    __slots__ = ("variant", "s")

    def __init__(self, variant, s=None):
        if variant not in ("generic", "infinity", "zero"):
            raise ValueError("unknown CParam variant %r" % variant)
        if variant == "generic":
            s = RatFunc.coerce(s)
            if s is None or s.is_zero():
                raise ValueError("generic c needs a nonzero square root s")
        else:
            s = None
        self.variant = variant
        self.s = s

    @staticmethod
    def generic(s):
        return CParam("generic", s)

    @staticmethod
    def infinity():
        return CParam("infinity")

    @staticmethod
    def zero():
        return CParam("zero")

    def is_infinity(self):
        return self.variant == "infinity"

    def is_zero(self):
        return self.variant == "zero"

    def c_value(self):
        """c as a field element; None encodes c = infinity."""
        if self.variant == "generic":
            return self.s * self.s
        if self.variant == "zero":
            return ZERO
        return None

    def key(self):
        if self.variant == "generic":
            return ("generic", self.s.num, self.s.den)
        return (self.variant,)

    def __eq__(self, other):
        return isinstance(other, CParam) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        if self.variant == "generic":
            return "c=s^2 with s=%s" % self.s
        return "c=0" if self.variant == "zero" else "c=inf"

    def __repr__(self):
        return "CParam(%s)" % self


def check_admissible(c: CParam):
    """Report whether c lies in J2 \\ {0}: c != 0 and c is not an exceptional value c(n).

    The sign of lc(num) * lc(den) is an invariant of a nonzero element of
    Q(t) (the sign of its values at large t).  A finite c is built as s^2
    with s in Q(t)^x, so that sign is positive; for every
    c(n) = -q^(2n)/(q^(2n)+1)^2 it is negative.  So c = c(n) is excluded by
    one sign, not by a bounded scan over n.
    """
    report = {"is_zero": c.is_zero(), "lc_sign": None}
    if c.is_infinity() or c.is_zero():
        report["admissible"] = c.is_infinity()
        return report
    report["lc_sign"] = c.c_value().lc_sign()
    report["admissible"] = report["lc_sign"] > 0
    return report


# ---------------------------------------------------------------------------
# parsing of Q(t) in q-syntax (the s= parameter specs of the CLI)

_BINARY = {"Add": operator.add, "Sub": operator.sub, "Mult": operator.mul,
           "Div": operator.truediv}
MAX_C_DEGREE = 400      # the largest t-degree of a c given on the command line


def check_spec_degree(degree):
    if degree > MAX_C_DEGREE:
        raise ValueError("t-degree %d is above the cap %d of a c spec" % (degree, MAX_C_DEGREE))


def parse_ratfunc(text):
    """The element of Q(t) that `text` writes in q, e.g. "1/(q^(1/2) - q^(-1/2))".

    The text is read as a Python expression with ^ for **, of integer
    literals, the name q, unary + and -, binary + - * / and powers.  Products
    need an explicit *.  An exponent is a constant integer or half-integer,
    and a half-integer only on q itself (q^(3/2) = t^3).  A power whose
    exponent times the t-degree of its base, or times the bit length less one
    of the base's largest coefficient, exceeds MAX_C_DEGREE is not built.
    Anything else raises ValueError; the text is never evaluated as Python.
    """
    import ast      # only CLI specs are parsed: bench's freeness_n2 and rform_eval never load it
    try:
        return _ratfunc_of(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as e:
        raise ValueError("cannot parse the q-expression: %s"
                         % getattr(e, "msg", type(e).__name__)) from None


def _ratfunc_of(node):
    kind = type(node).__name__
    if kind == "Constant" and type(node.value) is int:
        return RatFunc.from_int(node.value)
    if kind == "Name" and node.id == "q":
        return Q
    op = type(getattr(node, "op", None)).__name__
    if kind == "UnaryOp" and op in ("UAdd", "USub"):
        v = _ratfunc_of(node.operand)
        return -v if op == "USub" else v
    if kind == "BinOp" and op in _BINARY:
        return _BINARY[op](_ratfunc_of(node.left), _ratfunc_of(node.right))
    if kind == "BinOp" and op == "Pow":
        k2 = 2 * _ratfunc_of(node.right)        # the exponent in halves
        if len(k2.num) > 1 or k2.den != (1,):
            raise ValueError("an exponent must be a constant integer or half-integer")
        k2 = k2.num[0] if k2.num else 0
        if type(node.left).__name__ == "Name" and node.left.id == "q":
            base, e = qpow(1), k2
        elif k2 % 2:
            raise ValueError("half-integer exponents only on q")
        else:
            base, e = _ratfunc_of(node.left), k2 // 2
        bits = max(abs(a).bit_length() for a in base.num + base.den)
        check_spec_degree(abs(e) * (max(len(base.num), len(base.den), bits) - 1))
        return base ** e
    what = repr(node.id) if kind == "Name" else repr(node.value) if kind == "Constant" else kind
    raise ValueError("a q-expression has integers, q, + - * / and ^ only, not %s" % what)
