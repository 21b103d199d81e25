import random

from qsphere.scalars import ZERO, ONE, Q, QINV, RatFunc
from qsphere.linalg import (charpoly_tridiag, mat, nullity,
                            rank, solve_with_rank, transpose,
                            xp_mul, xp_sub, xp_trailing_zeros)


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


def _random_laurent_matrix(rng, nr, nc):
    """A sparse matrix of Laurent polynomials in t, some rows built as combinations."""
    def entry():
        if rng.random() < 0.6:
            return ZERO
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        num.append(rng.choice((-2, -1, 1, 2)))
        return RatFunc(tuple(num), (0,) * rng.randint(0, 3) + (1,))
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    for _ in range(rng.randint(0, 2)):
        i, j, k = (rng.randrange(nr) for _ in range(3))
        rows[i] = [x * Q + y * QINV for x, y in zip(rows[j], rows[k])]
    return rows


def test_rank_agrees_with_transpose_and_solve_on_random_laurent_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_laurent_matrix(rng, nr, nc)
        r = rank(a)
        assert r == rank(transpose(a)) == solve_with_rank(a, [])[0]
        assert r == solve_with_rank(transpose(a), [])[0]
