"""Finite dimensional U_q(sl2) representation matrices and X_c spectra.

The (l+1)-dimensional irreducible module is realized in the weight basis
v_0, ..., v_l with K v_k = ±q^(l-2k) v_k, E v_k = [l-k+1] v_{k-1} and
F v_k = [k+1] v_{k+1}; the minus sign means the module is twisted by the
one-dimensional representation w with E.w = F.w = 0, K.w = -w, which sends
(E, F, K) to (E, -F, -K).

xc_matrix returns the tridiagonal matrix (overall factor q^(l+1), diagonal
(q^(2k-l) -/+ 1) alpha, superdiagonal [k+1] gamma, subdiagonal
q^(2k-l)[l-k] beta) that describes the raising operator on the rescaled
dual-coalgebra basis.  For the plus sign it equals q^(l+1) times the
transpose of the X_c-action on the irrep; for the minus sign the twisted
module realizes the negative of it, so the cross-check uses -q^(l+1).

Characteristic polynomials are XPoly, polynomials in an auxiliary x.
"""

from .scalars import ZERO, ONE, Q, QINV, QHAT, CParam, qint, qpow
from . import linalg
from .linalg import Matrix
from .algebra import LinComb


class XPoly(LinComb):
    """A polynomial in x with RatFunc coefficients, {exponent: coefficient}."""

    __slots__ = ()

    UNIT = 0

    def _mono_mul(self, i, j):
        return {i + j: ONE}

    def _mono_str(self, i):
        return None if i == 0 else "x" if i == 1 else "x^%d" % i

    @staticmethod
    def _sort_key(i):
        return i


X = XPoly({1: ONE})


def charpoly_tridiag(diag, sup, sub):
    """det(x I - M) for a tridiagonal matrix via the three-term recurrence."""
    prev, p = XPoly(), X ** 0
    for d, bc in zip(diag, [ZERO] + [b * c for b, c in zip(sup, sub)]):
        prev, p = p, (X - d) * p - bc * prev
    return p


def irrep(l, sign=+1):
    """(E, F, K) of the (l+1)-dimensional irreducible module in the weight basis."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    E = Matrix({(k - 1, k): qint(l - k + 1) for k in range(1, l + 1)})
    F = Matrix({(k + 1, k): sign * qint(k + 1) for k in range(l)})
    K = Matrix({(k, k): sign * qpow(2 * (l - 2 * k)) for k in range(l + 1)})
    return E, F, K


def _diagonal_inverse(K):
    """K^-1 for a diagonal invertible K."""
    return Matrix({ij: v.inv() for ij, v in K.terms.items()})


def relation_failures(E, F, K):
    """Names of the U_q(sl2) relations that matrices E, F and a diagonal K violate."""
    checks = {
        "EF-FE": E * F - F * E - (K - _diagonal_inverse(K)) / QHAT,
        "KE=q2EK": K * E - Q * Q * (E * K),
        "KF=q-2FK": K * F - qpow(-4) * (F * K),
    }
    return [name for name, m in checks.items() if m]


# X_c = alpha(c) (K^-1 - 1) + BETA K^-1 E + GAMMA F, the twisted primitive element
BETA, GAMMA = Q, ONE


def xc_alpha(c: CParam):
    """alpha(c) = -1/(s (q - q^-1)) for c = s^2, and 0 at c = infinity."""
    if c.is_zero():
        raise ValueError("c = 0 has no twisted primitive element of this shape")
    return ZERO if c.is_infinity() else -ONE / (c.s * QHAT)


def xc_matrix(l, c: CParam, sign=+1):
    """The displayed (l+1)x(l+1) tridiagonal matrix for weight ±q^(-l)."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha = xc_alpha(c)
    n = l + 1
    scale = qpow(2 * (l + 1))
    out = linalg.zeros(n, n)
    sgn = ONE if sign == +1 else -ONE
    for k in range(n):
        out[k][k] = scale * (qpow(2 * (2 * k - l)) - sgn) * alpha
        if k + 1 < n:
            out[k][k + 1] = scale * qint(k + 1) * GAMMA
            out[k + 1][k] = scale * qpow(2 * (2 * k - l)) * qint(l - k) * BETA
    return out


def xc_matrix_from_irrep(l, c: CParam, sign=+1):
    """The same matrix derived from the irrep: (±q^(l+1)) transpose(M(X_c))."""
    E, F, K = irrep(l, sign)
    Kinv = _diagonal_inverse(K)
    m = BETA * (Kinv * E) + GAMMA * F + xc_alpha(c) * (Kinv - Matrix.identity(l + 1))
    scale = qpow(2 * (l + 1)) if sign == +1 else -qpow(2 * (l + 1))
    return linalg.transpose((scale * m).rows(l + 1))


def _pair_closed_forms(l, c, sign):
    """(sum_r, prod_r) for r = r2/2 > 0 in I_l, plus the r = 0 root when l is even.

    sign +: the pair r, -r of eigenvalues rho_r has
        sum = alpha (q^r - q^-r)^2,
        prod = -(q^r - q^-r)^2 (alpha^2 + beta gamma q^-1 ((q^r+q^-r)/(q-q^-1))^2);
    sign -: the shifted pair rho_r + 2 alpha has
        sum = alpha (q^r + q^-r)^2,
        prod = (q^r + q^-r)^2 (alpha^2 - beta gamma q^-1 ((q^r-q^-r)/(q-q^-1))^2).
    """
    a, bg = xc_alpha(c), BETA * GAMMA * QINV
    pairs = []
    for r2 in range(l % 2 if l % 2 else 2, l + 1, 2):
        minus = qpow(r2) - qpow(-r2)
        plus = qpow(r2) + qpow(-r2)
        if sign == +1:
            s = a * minus * minus
            p = -(minus * minus) * (a * a + bg * (plus / QHAT) ** 2)
        else:
            s = a * plus * plus
            p = (plus * plus) * (a * a - bg * (minus / QHAT) ** 2)
        pairs.append((r2, s, p))
    zero_root = None
    if l % 2 == 0:
        zero_root = ZERO if sign == +1 else 2 * a
    return pairs, zero_root


def charpoly_check(l, c: CParam, sign=+1):
    """Exact det(xI - M) versus the closed-form quadratic factorization.

    Returns (pairs, zero root multiplicity, difference): pairs lists
    (sum_r, prod_r) for the positive r in I_l in the unscaled normalization
    (the matrix eigenvalues carry the factor q^(l+1)), and the factorization
    holds exactly when the difference is 0.
    """
    m = xc_matrix(l, c, sign)
    n = l + 1
    diag = [m[k][k] for k in range(n)]
    sup = [m[k][k + 1] for k in range(n - 1)]
    sub = [m[k + 1][k] for k in range(n - 1)]
    cp = charpoly_tridiag(diag, sup, sub)

    scale = qpow(2 * (l + 1))
    pairs, zero_root = _pair_closed_forms(l, c, sign)
    expected = X ** 0
    for _, s, p in pairs:
        expected = expected * (X * X - scale * s * X + scale * scale * p)
    if zero_root is not None:
        expected = expected * (X - scale * zero_root)

    return [(s, p) for _, s, p in pairs], min(cp.terms), cp - expected


def kernel_dim(l, c: CParam, sign=+1):
    """Exact nullity of the X_c matrix over Q(t)."""
    return linalg.nullity(xc_matrix(l, c, sign))
