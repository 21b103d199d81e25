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

The entries are written once, in `_xc_entries`, with + and x on alpha
and on the values of q^e and [n] in a ring: `xc_tridiagonal` reads them
in Q(t), and `xc_tridiagonal_mod` reads the `eval_mod` images of the same
exact values at t = MOD_T0 over GF(MOD_P).

The nullity of X_c is at most 1.  Its superdiagonal entries q^(l+1)[k+1]
are nonzero, so deleting the first column and the last row leaves a
triangular l x l minor with a nonzero diagonal: the rank is at least l,
and the nullity is 1 when det X_c = 0 and 0 otherwise.  `kernel_dim`
checks that superdiagonal and takes det X_c by the three-term recurrence,
first at t0 mod P (evaluation there is a ring map on the fractions whose
denominators do not vanish at t0, as in `linalg._solve`, so a nonzero
value proves det X_c != 0) and in Q(t) only when that value vanishes or
alpha(c) has no value at t0.

Characteristic polynomials are XPoly, polynomials in an auxiliary x.
"""

from .scalars import (ZERO, ONE, Q, QINV, QHAT, MOD_P, MOD_T0, CParam,
                      eval_mod, qint, qpow)
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


def _det_tridiagonal(diag, sup, sub):
    """det of a tridiagonal matrix by the three-term recurrence (+ and x only)."""
    prev, det = 1, 1
    for d, bc in zip(diag, [0] + [b * c for b, c in zip(sup, sub)]):
        prev, det = det, d * det - bc * prev
    return det


def charpoly_tridiag(diag, sup, sub):
    """det(x I - M) for a tridiagonal matrix M; negating both off-diagonals
    leaves their products, all the recurrence reads of them, unchanged."""
    return _det_tridiagonal([X - d for d in diag], sup, sub)


def _check_weight(l, sign):
    if l < 0:
        raise ValueError("l must be nonnegative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")


def irrep(l, sign=+1):
    """(E, F, K) of the (l+1)-dimensional irreducible module in the weight basis."""
    _check_weight(l, sign)
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


def _xc_entries(l, sign, alpha, beta, gamma, qp, qi):
    """(diagonal, superdiagonal, subdiagonal) of X_c at weight ±q^(-l).

    Only + and x of one ring, on alpha, beta, gamma and qp(e) = q^e,
    qi(n) = [n] there, so that the same formula serves Q(t) and GF(P).
    """
    scale = qp(l + 1)
    diag = [scale * (qp(2 * k - l) - sign) * alpha for k in range(l + 1)]
    sup = [scale * qi(k + 1) * gamma for k in range(l)]
    sub = [scale * qp(2 * k - l) * qi(l - k) * beta for k in range(l)]
    return diag, sup, sub


def xc_tridiagonal(l, c: CParam, sign=+1):
    """The three diagonals of X_c at weight ±q^(-l), exactly in Q(t)."""
    _check_weight(l, sign)
    return _xc_entries(l, sign, xc_alpha(c), BETA, GAMMA,
                       lambda e: qpow(2 * e), qint)


def xc_tridiagonal_mod(l, c: CParam, sign=+1):
    """The images of `xc_tridiagonal` at t = MOD_T0 over GF(MOD_P).

    `_xc_entries` reads the `eval_mod` images of alpha(c), BETA, GAMMA,
    q^e and [n].  None when alpha(c) has no value there; the others are
    Laurent polynomials and always have one.
    """
    _check_weight(l, sign)

    def image(x):
        return eval_mod(x, MOD_T0, MOD_P)

    alpha = image(xc_alpha(c))
    if alpha is None:
        return None
    return tuple([x % MOD_P for x in part]
                 for part in _xc_entries(l, sign, alpha, image(BETA), image(GAMMA),
                                         lambda e: image(qpow(2 * e)),
                                         lambda n: image(qint(n))))


def xc_matrix(l, c: CParam, sign=+1):
    """The displayed (l+1)x(l+1) tridiagonal matrix for weight ±q^(-l)."""
    diag, sup, sub = xc_tridiagonal(l, c, sign)
    entries = {(k, k): d for k, d in enumerate(diag)}
    for k, (up, down) in enumerate(zip(sup, sub)):
        entries[k, k + 1], entries[k + 1, k] = up, down
    return Matrix(entries)


def xc_matrix_from_irrep(l, c: CParam, sign=+1):
    """The same matrix derived from the irrep: (±q^(l+1)) transpose(M(X_c))."""
    E, F, K = irrep(l, sign)
    Kinv = _diagonal_inverse(K)
    m = BETA * (Kinv * E) + GAMMA * F + xc_alpha(c) * (Kinv - Matrix.identity(l + 1))
    scale = qpow(2 * (l + 1)) if sign == +1 else -qpow(2 * (l + 1))
    return Matrix({(j, i): x for (i, j), x in (scale * m).terms.items()})


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
    cp = charpoly_tridiag(*xc_tridiagonal(l, c, sign))

    scale = qpow(2 * (l + 1))
    pairs, zero_root = _pair_closed_forms(l, c, sign)
    expected = X ** 0
    for _, s, p in pairs:
        expected = expected * (X * X - scale * s * X + scale * scale * p)
    if zero_root is not None:
        expected = expected * (X - scale * zero_root)

    return [(s, p) for _, s, p in pairs], min(cp.terms), cp - expected


def kernel_dim(l, c: CParam, sign=+1):
    """Exact nullity of the X_c matrix over Q(t): 1 when det X_c = 0, else 0.

    The superdiagonal is checked first, then det X_c: at t0 mod P, where
    nonzero values are images of nonzero exact ones (module docstring), and
    exactly when a value there vanishes or is missing.  A zero on the exact
    superdiagonal voids the nullity <= 1 argument and raises AssertionError.
    """
    mod = xc_tridiagonal_mod(l, c, sign)
    if mod is not None and all(mod[1]) and _det_tridiagonal(*mod) % MOD_P:
        return 0
    diag, sup, sub = xc_tridiagonal(l, c, sign)
    if not all(sup):
        raise AssertionError("X_c has a zero on its superdiagonal at sign=%+d l=%d"
                             % (sign, l))
    return 0 if _det_tridiagonal(diag, sup, sub) else 1
