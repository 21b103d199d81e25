import random

import pytest

from qsphere import linalg
from qsphere.scalars import ZERO, ONE, Q, QINV, MOD_T0, RatFunc
from qsphere.linalg import (charpoly_tridiag, matmul, nullity,
                            rank, solve_full_rank, solve_with_rank, transpose,
                            xp_mul, xp_sub, xp_trailing_zeros)


def mat(rows):
    return [[RatFunc.coerce(x) for x in row] for row in rows]


def test_rank_and_nullity():
    m = mat([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert nullity(m) == 1
    m = mat([[1, 0, 1], [0, 1, 1]])
    assert rank(m) == 2


def test_rank_with_rational_functions():
    m = [[Q, ONE], [Q * Q, Q]]
    assert rank(m) == 1
    m = [[Q, ONE], [ONE, Q]]
    assert rank(m) == 2


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [0, 1], [1, 0]])
    r, (x, none) = solve_with_rank(
        a, [[RatFunc.from_int(3), RatFunc.from_int(1), RatFunc.from_int(2)],
            [RatFunc.from_int(3), ONE, ONE]])
    assert r == 2
    assert x == [RatFunc.from_int(2), ONE]
    assert none is None


def test_solve_with_rank_multi():
    a = mat([[1, 0], [0, 1], [1, 1]])
    r, sols = solve_with_rank(a, [[ONE, ZERO, ONE], [ONE, ONE, ONE]])
    assert r == 2
    assert sols[0] == [ONE, ZERO]
    assert sols[1] is None


def test_in_span():
    v1 = [ONE, ZERO, Q]
    v2 = [ZERO, ONE, ONE]
    # the vectors are the columns of the matrix
    r, (coeffs, none) = solve_with_rank(transpose([v1, v2]),
                                        [[Q, ONE, Q * Q + 1], [ZERO, ZERO, ONE]])
    assert r == 2
    assert coeffs == [Q, ONE]
    assert none is None


def test_charpoly_tridiag_2x2():
    # det(xI - [[a, b], [c, d]]) = x^2 - (a+d)x + (ad - bc)
    a, b, c, d = Q, ONE, QINV, Q * Q
    p = charpoly_tridiag([a, d], [b], [c])
    want = [a * d - b * c, -(a + d), ONE]
    assert p == want


def test_charpoly_tridiag_3x3_against_dense():
    diag = [Q, ZERO, QINV]
    sup = [ONE, Q]
    sub = [Q * Q, ONE]
    p = charpoly_tridiag(diag, sup, sub)
    # brute expansion of det(xI - M) for the 3x3 tridiagonal
    a0 = -(diag[0] * diag[1] * diag[2]
           - diag[0] * sup[1] * sub[1] - diag[2] * sup[0] * sub[0])
    a1 = (diag[0] * diag[1] + diag[0] * diag[2] + diag[1] * diag[2]
          - sup[0] * sub[0] - sup[1] * sub[1])
    a2 = -(diag[0] + diag[1] + diag[2])
    assert p == [a0, a1, a2, ONE]


def test_xp_helpers():
    p = xp_mul([ONE, ONE], [ONE, ONE])
    assert p == [ONE, 2 * ONE, ONE]
    assert xp_trailing_zeros([ZERO, ZERO, ONE]) == 2
    assert xp_trailing_zeros([ZERO, ZERO]) == 0
    assert xp_sub(p, p) == []


def _dense_gauss_jordan(rows, nc):
    """The oracle: dense Gauss-Jordan in column order on a copy of `rows`.

    Each column's pivot is the entry with the fewest coefficients below the
    rows already pivoted, and it is cleared from every other row, above as
    well as below.  Returns the reduced nonzero rows and the pivot columns,
    row i holding the pivot of pivots[i].
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
                w = len(aug[i][col].num) + len(aug[i][col].den)
                if best is None or w < best:
                    piv, best = i, w
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


def _dense_solve_with_rank(a_rows, b_cols):
    """(rank, per-column solution or None) from the dense oracle, free columns 0."""
    nc = len(a_rows[0]) if a_rows else 0
    aug, pivots = _dense_gauss_jordan(
        [list(a_rows[i]) + [col[i] for col in b_cols] for i in range(len(a_rows))], nc)
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


def _random_laurent_entry(rng, density=0.4):
    if rng.random() >= density:
        return ZERO
    num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    num.append(rng.choice((-2, -1, 1, 2)))
    return RatFunc(tuple(num), (0,) * rng.randint(0, 3) + (1,))


def _random_laurent_matrix(rng, nr, nc):
    """A sparse matrix of Laurent polynomials in t.

    Some rows, and some columns, are built as combinations of others, so
    that ranks below min(nr, nc) occur for every shape.
    """
    rows = [[_random_laurent_entry(rng) for _ in range(nc)] for _ in range(nr)]
    for _ in range(rng.randint(0, 2)):
        i, j, k = (rng.randrange(nr) for _ in range(3))
        rows[i] = [x * Q + y * QINV for x, y in zip(rows[j], rows[k])]
    for _ in range(rng.randint(0, 1)):
        i, j, k = (rng.randrange(nc) for _ in range(3))
        for row in rows:
            row[i] = row[j] * QINV - row[k]
    return rows


def _times(a, x):
    return [row[0] for row in matmul(a, [[v] for v in x])]


def test_rank_agrees_with_transpose_and_solve_on_random_laurent_matrices():
    # the sparse Markowitz elimination against the dense Gauss-Jordan oracle,
    # on square, tall and wide matrices with consistent and random targets
    rng = random.Random(2024)
    seen = {"full": 0, "deficient": 0, "solved": 0, "unsolvable": 0}
    for trial in range(90):
        nc = rng.randint(1, 7)
        # square, tall and wide in turn
        nr = (nc, nc + rng.randint(1, 3), max(1, nc - rng.randint(1, 3)))[trial % 3]
        a = _random_laurent_matrix(rng, nr, nc)
        r = rank(a)
        assert r == rank(transpose(a)) == solve_with_rank(a, [])[0]
        assert r == solve_with_rank(transpose(a), [])[0]
        consistent = [_times(a, [_random_laurent_entry(rng, 0.7) for _ in range(nc)])
                      for _ in range(2)]
        random_b = [[_random_laurent_entry(rng) for _ in range(nr)] for _ in range(2)]
        targets = consistent + random_b
        got_rank, got = solve_with_rank(a, targets)
        want_rank, want = _dense_solve_with_rank(a, targets)
        assert got_rank == want_rank == r
        assert [x is None for x in got] == [x is None for x in want]
        assert all(x is not None for x in got[:2])
        for b, x, y in zip(targets, got, want):
            if x is None:
                seen["unsolvable"] += 1
                continue
            seen["solved"] += 1
            assert _times(a, x) == b
            if r == nc:
                assert x == y
        seen["full" if r == nc else "deficient"] += 1
    assert min(seen.values()) >= 10, seen


def _record_solves(monkeypatch):
    """The row counts of the systems handed to `solve_with_rank`."""
    real = linalg.solve_with_rank
    sizes = []

    def recorded(a_rows, b_cols):
        sizes.append(len(a_rows))
        return real(a_rows, b_cols)

    monkeypatch.setattr(linalg, "solve_with_rank", recorded)
    return sizes


def test_solve_full_rank_equals_solve_with_rank_on_random_laurent_systems(monkeypatch):
    # the same rank and solutions, whether the pivot rows are found mod P
    # (full column rank: one square solve and a check of the other rows)
    # or the system is rank-deficient and solved whole
    rng = random.Random(2025)
    seen = {"square solve": 0, "whole system": 0, "unsolvable by the check": 0,
            "solved by the check": 0}
    for trial in range(90):
        nc = rng.randint(1, 6)
        nr = (nc, nc + rng.randint(1, 4), max(1, nc - rng.randint(1, 3)))[trial % 3]
        a = _random_laurent_matrix(rng, nr, nc)
        targets = ([_times(a, [_random_laurent_entry(rng, 0.7) for _ in range(nc)])
                    for _ in range(2)]
                   + [[_random_laurent_entry(rng) for _ in range(nr)] for _ in range(2)])
        want = solve_with_rank(a, targets)
        sizes = _record_solves(monkeypatch)
        got = solve_full_rank(a, targets)
        monkeypatch.undo()
        assert got == want
        if sizes == [nc] and nr > nc:
            seen["square solve"] += 1
            seen["unsolvable by the check"] += sum(x is None for x in got[1])
            seen["solved by the check"] += sum(x is not None for x in got[1])
        elif sizes == [nr]:
            seen["whole system"] += 1
            assert got[0] < nc or nr == nc
    assert min(seen.values()) >= 10, seen


def test_solve_full_rank_targets_out_of_the_span_on_and_off_the_pivot_rows():
    a = mat([[1, 0], [0, 1], [1, 1], [1, -1]])
    b = [ONE, Q, ONE + Q, ONE - Q]
    assert solve_full_rank(a, [b]) == (2, [[ONE, Q]])
    for i in range(4):
        moved = list(b)
        moved[i] = moved[i] + ONE
        assert solve_full_rank(a, [b, moved]) == solve_with_rank(a, [b, moved]) \
            == (2, [[ONE, Q], None])


def test_solve_full_rank_passes_over_rows_undefined_at_t0(monkeypatch):
    # 1/(t - t0) has no value at t0: its row cannot be a pivot row mod P
    pole = RatFunc((1,), (-MOD_T0, 1))
    square = [[pole, ONE], [ONE, Q]]
    b = [[ONE, ZERO]]
    sizes = _record_solves(monkeypatch)
    got = solve_full_rank(square, b)
    assert sizes == [2]                         # the whole system, exactly
    assert got == solve_with_rank(square, b)
    assert got[0] == 2
    tall = square + [[Q, ONE]]
    targets = [_times(tall, [ONE, Q]), [ONE, ZERO, ZERO]]
    sizes.clear()
    got = solve_full_rank(tall, targets)
    assert sizes == [2]                         # the two rows defined at t0
    assert got == solve_with_rank(tall, targets) == (2, [[ONE, Q], None])
    # row 1 is (t - t0) times row 0; with the pole read as 0 mod P the two
    # rows would look independent and the exact minor would be singular
    dependent = [[pole, ONE], [ONE, RatFunc((-MOD_T0, 1), (1,))]]
    sizes.clear()
    got = solve_full_rank(dependent, b)
    assert sizes == [2]
    assert got == solve_with_rank(dependent, b)
    assert got[0] == 1


def test_solve_full_rank_refuses_a_minor_that_contradicts_its_rank_mod_p(monkeypatch):
    real = linalg.solve_with_rank
    monkeypatch.setattr(linalg, "solve_with_rank",
                        lambda a, b: (lambda r, sols: (r - 1, sols))(*real(a, b)))
    with pytest.raises(AssertionError, match="minor has rank 1"):
        solve_full_rank(mat([[1, 0], [0, 1], [1, 1]]), [])
