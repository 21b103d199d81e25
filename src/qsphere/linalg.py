"""Exact linear algebra over Q(t).

A system handed to elimination is a plain list of rows of RatFunc; a
matrix that is multiplied is a `Matrix`, a linear combination of matrix
units.  `rank` and `solve_with_rank` take one route, `_solve`, which
proves a full column rank at t0 mod P and eliminates exactly only what
that leaves open.  Every exact elimination is
`_eliminate`: sparse, on rows held as {column: nonzero entry}, with pivots
chosen by the Markowitz rule (Markowitz, "The elimination form of the
inverse", 1957), the entry that minimises (r-1)(c-1), r and c being the
nonzeros of its row and its column in the part not yet eliminated.  That
bounds the fill-in.
"""

from .algebra import LinComb
from .scalars import ZERO, ONE, MOD_P, MOD_T0, clear_denominators, eval_mod


class Matrix(LinComb):
    """A matrix as {(i, j): nonzero entry}, multiplied by E_ij E_kl = delta_jk E_il.

    The identity is no single unit, so scalars are not matrices (UNIT is
    None); `identity(n)` builds it.  `m[i, j]` reads an entry, 0 when absent.
    Entries are RatFuncs or elements of a ring over Q(t), such as the
    sphere: the calculus's letter matrices lie in M_N(B).  An absent entry
    still reads as the scalar ZERO.
    """

    __slots__ = ()

    UNIT = None

    @staticmethod
    def identity(n):
        return Matrix({(i, i): ONE for i in range(n)})

    def _mono_mul(self, m1, m2):
        return {(m1[0], m2[1]): ONE} if m1[1] == m2[0] else {}

    def _mono_str(self, m):
        return "E_%d,%d" % m

    def __getitem__(self, ij):
        i, j = ij                   # a single index is an error, not a row
        return self.terms.get((i, j), ZERO)

    def rows(self, n):
        """The n x n entries as a list of rows, for display."""
        return [[self[i, j] for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def coordinate_row(terms, index):
    """The dict {key: value} as a row, key going to column index[key]."""
    row = [ZERO] * len(index)
    for k, v in terms.items():
        row[index[k]] = v
    return row


def _entry_weight(x):
    return len(x.num) + len(x.den)


def _eliminate(rows, nc):
    """Sparse forward elimination on the first nc columns of `rows`.

    The input is not modified.  Among the rows without a pivot, each step
    takes the entry of a column < nc that minimises the Markowitz cost
    (r-1)(c-1), r and c counting the nonzeros of its row and its column
    over those rows and the first nc columns; ties go to the smaller
    `_entry_weight`, then the smaller row index, then the smaller column, so
    the choice does not depend on hash or set order.  The pivot row is
    scaled to 1 at the pivot and the pivot column is cleared from the rows
    without a pivot only.

    Returns (pivots, rest).  pivots lists (column, row) in the order taken,
    each row a dict {column: entry} that is 1 at its column and 0 on the
    columns pivoted before it.  rest holds the other nonzero rows as dicts,
    all zero on the first nc columns.
    """
    work = {}                           # row index -> {column: entry}, no pivot yet
    count = {}                          # row index -> its nonzeros on the first nc columns
    col_rows = [set() for _ in range(nc)]   # column -> the rows of `work` nonzero there
    for i, row in enumerate(rows):
        d = {j: x for j, x in enumerate(row) if x}
        if d:
            work[i] = d
            count[i] = 0
            for j in range(nc):
                if row[j]:
                    col_rows[j].add(i)
                    count[i] += 1
    pivots = []
    while True:
        best = None
        for j in range(nc):
            below = col_rows[j]
            if not below:
                continue
            c1 = len(below) - 1
            for i in below:
                cost = (count[i] - 1) * c1
                if best is None or cost <= best[0]:
                    key = (cost, _entry_weight(work[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, _, p, j = best
        prow = work.pop(p)
        del count[p]
        for k in prow:
            if k < nc:
                col_rows[k].discard(p)
        inv = prow.pop(j).inv()
        prow = {k: x * inv for k, x in prow.items()}
        for i in list(col_rows[j]):
            row = work[i]
            f = -row.pop(j)
            count[i] -= 1
            for k, y in prow.items():
                x = row.get(k)
                v = f * y if x is None else x + f * y
                if v:
                    row[k] = v
                    if x is None and k < nc:
                        col_rows[k].add(i)
                        count[i] += 1
                elif x is not None:
                    del row[k]
                    if k < nc:
                        col_rows[k].discard(i)
                        count[i] -= 1
        col_rows[j].clear()
        prow[j] = ONE
        pivots.append((j, prow))
    return pivots, [d for d in work.values() if d]


def rank(rows):
    """Exact rank by `_solve`, on the orientation with at least as many rows
    as columns, so that a rank full at t0 mod P needs no exact elimination."""
    if rows and len(rows) < len(rows[0]):
        rows = transpose(rows)
    return _solve(rows, [])[0]


def solve_with_rank(a_rows, b_cols):
    """(rank of A, per-column solution of A x = b or None), by `_solve`; a
    solution is the unique one when the rank is the number of columns."""
    return _solve(a_rows, b_cols)


def _solve(a_rows, b_cols):
    """The one route of `rank` and `solve_with_rank`: (rank of A, solutions).

    1. nc rows R of A independent at t = MOD_T0 over GF(MOD_P) are sought
       (`_pivot_rows_mod_p`).  Evaluation there is a ring map on the
       fractions whose denominators do not vanish at MOD_T0, as every entry
       of A[R] does, so the nc x nc minor A[R] has a nonzero determinant
       in Q(t): A has column rank nc.  Without targets that is the answer.
    2. A[R] x = b[R] is solved exactly for every target by one elimination
       of the minor.  A rank below nc there contradicts step 1 and raises
       AssertionError.
    3. Under full column rank, x is the only possible solution of A x = b.
       With delta the lcm of the denominators of x (a polynomial, so
       central), every row outside R is checked as A[i] (delta x) =
       delta b[i]; on Laurent entries no product or sum there needs a gcd.
       A failed row puts the target outside the column span: None.
    4. When fewer than nc rows with every entry defined at MOD_T0 are
       independent there, the whole system is eliminated exactly.  Only
       this path reports a rank below nc, so a rank that drops at t0 alone
       is still found.
    """
    nc = len(a_rows[0]) if a_rows else 0
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in a_rows]
    kept = _pivot_rows_mod_p(sparse, nc)
    if kept is None:
        return _solve_by_elimination(a_rows, b_cols)
    if not b_cols:
        return nc, []
    r, sols = _solve_by_elimination([a_rows[i] for i in kept],
                                    [[col[i] for i in kept] for col in b_cols])
    if r < nc:
        raise AssertionError("column rank %d at t0 mod P, but the minor has rank %d"
                             % (nc, r))
    in_r = set(kept)
    others = [i for i in range(len(a_rows)) if i not in in_r]
    for k, (x, col) in enumerate(zip(sols, b_cols) if others else ()):
        delta, y = clear_denominators(x)
        for i in others:
            s = ZERO
            for j, a in sparse[i]:
                if y[j]:
                    s = s + a * y[j]
            if (s or col[i]) and s != delta * col[i]:
                sols[k] = None
                break
    return nc, sols


def _solve_by_elimination(a_rows, b_cols):
    """(rank, solutions) from one `_eliminate` of [A | b]; a target is None
    when a leftover row is nonzero in its column, and the columns without a
    pivot are 0 in every solution."""
    nc = len(a_rows[0]) if a_rows else 0
    pivots, rest = _eliminate([list(a_rows[i]) + [col[i] for col in b_cols]
                               for i in range(len(a_rows))], nc)
    inconsistent = {k for row in rest for k in row}
    sols = []
    for k in range(nc, nc + len(b_cols)):
        if k in inconsistent:
            sols.append(None)
            continue
        x = [ZERO] * nc
        for col, row in reversed(pivots):
            s = row.get(k, ZERO)
            for c, v in row.items():
                if c < nc and c != col and x[c]:
                    s = s - v * x[c]
            x[col] = s
        sols.append(x)
    return len(pivots), sols


def _pivot_rows_mod_p(sparse_rows, nc):
    """Indices, in order, of nc rows independent at t = MOD_T0 over GF(MOD_P).

    The rows are lists of (column, nonzero entry).  They are taken by
    their number of nonzeros (then their index), since sparse rows make
    the exact solve of the minor cheap.  Each row is evaluated when it is
    reached and reduced against the rows kept before it; a row with an
    entry whose denominator vanishes at MOD_T0 is passed over.  None when
    the rows run out before nc are kept.
    """
    kept, basis = [], []                # basis: (pivot column, row scaled to 1 there)
    for i in sorted(range(len(sparse_rows)), key=lambda i: len(sparse_rows[i])):
        v = {}
        for j, x in sparse_rows[i]:
            r = eval_mod(x, MOD_T0, MOD_P)
            if r is None:
                break
            if r:
                v[j] = r
        else:
            for p, b in basis:
                f = v.get(p)
                if f:
                    for k, y in b.items():
                        w = (v.get(k, 0) - f * y) % MOD_P
                        if w:
                            v[k] = w
                        else:
                            v.pop(k, None)
            if v:
                p = min(v)
                inv = pow(v[p], -1, MOD_P)
                basis.append((p, {k: y * inv % MOD_P for k, y in v.items()}))
                kept.append(i)
                if len(kept) == nc:
                    return sorted(kept)
    return None
