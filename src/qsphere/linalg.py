"""Exact linear algebra over Q(t).

Matrices are plain lists of rows of RatFunc.  Elimination is Gauss-Jordan
with reduced fractions at every step, pivoting on the entry with the
fewest coefficients.  Most systems have dimensions in the tens, but the
n=2 freeness system of AC-8 is 320x80 with 8 right-hand sides, and its
entries reach degree 300 in t during the elimination.  That one solve is
most of the cost of AC-8 (README, "Performance").
"""

from .scalars import ZERO, ONE, RatFunc


def mat(rows):
    return [[RatFunc.coerce(x) for x in row] for row in rows]


def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            s = ZERO
            for p in range(k):
                if ai[p] and b[p][j]:
                    s = s + ai[p] * b[p][j]
            out[i][j] = s
    return out


def matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scalmul(c, a):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def coordinate_row(terms, index):
    """The dict {key: value} as a row, key going to column index[key]."""
    row = [ZERO] * len(index)
    for k, v in terms.items():
        row[index[k]] = v
    return row


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _entry_weight(x):
    return len(x.num) + len(x.den)


def _eliminate(rows, nc):
    """Gauss-Jordan elimination on the first nc columns of a copy of `rows`.

    Returns the reduced nonzero rows and the pivot columns, row i holding
    the pivot of pivots[i].  Pivots are chosen by smallest entry
    complexity, which keeps the rational-function growth in check.
    """
    aug = [list(row) for row in rows if any(row)]
    nr = len(aug)
    pivots = []
    r = 0
    for col in range(nc):
        piv = None
        best = None
        for i in range(r, nr):
            if aug[i][col]:
                w = _entry_weight(aug[i][col])
                if best is None or w < best:
                    piv, best = i, w
                    if w <= 2:
                        break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][col].inv()
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return aug, pivots


def rank(rows):
    """Exact rank; the input is not modified."""
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def nullity(rows):
    if not rows:
        return 0
    return len(rows[0]) - rank(rows)


def solve_with_rank(a_rows, b_cols):
    """One elimination pass: (rank of A, per-column solution or None)."""
    nc = len(a_rows[0]) if a_rows else 0
    aug, pivots = _eliminate([list(a_rows[i]) + [col[i] for col in b_cols]
                              for i in range(len(a_rows))], nc)
    r = len(pivots)
    sols = []
    for k in range(len(b_cols)):
        if any(row[nc + k] for row in aug[r:]):
            sols.append(None)
            continue
        x = [ZERO] * nc
        for i, col in enumerate(pivots):
            x[col] = aug[i][nc + k]
        sols.append(x)
    return r, sols


# ---------------------------------------------------------------------------
# polynomials in an auxiliary variable x with RatFunc coefficients
# (dense lists, low degree first) -- enough for characteristic polynomials

def xp_trim(p):
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def xp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return xp_trim(out)


def xp_sub(a, b):
    return xp_add(a, [-x for x in b])


def xp_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return xp_trim(out)


def xp_trailing_zeros(p):
    """Multiplicity of the root x = 0."""
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    return k if k < len(p) else 0


def charpoly_tridiag(diag, sup, sub):
    """det(x I - M) for a tridiagonal matrix via the three-term recurrence."""
    n = len(diag)
    pm1 = [ONE]
    if n == 0:
        return pm1
    p = [-diag[0], ONE]
    for k in range(1, n):
        head = xp_mul([-diag[k], ONE], p)
        tail = xp_mul([sup[k - 1] * sub[k - 1]], pm1)
        pm1, p = p, xp_sub(head, tail)
    return p
