import random

import pytest

from qsphere import linalg, oqsl2
from qsphere.oqsl2 import SL2Element
from qsphere.podles import PodlesAlgebra
from qsphere.scalars import ZERO, ONE, Q, QINV, MOD_T0, CParam, RatFunc
from qsphere.linalg import Matrix, rank, solve_with_rank, transpose
from qsphere.uqsl2rep import X, charpoly_tridiag


def mat(rows):
    return [[RatFunc.coerce(x) for x in row] for row in rows]


def test_rank_and_nullity():
    m = mat([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert len(m[0]) - rank(m) == 1
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
    assert p == X * X - (a + d) * X + (a * d - b * c)


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
    assert p == X ** 3 + a2 * X * X + a1 * X + a0


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


def _dense_matmul(a, b):
    """The product of two lists of rows, entry by entry: the oracle of `Matrix`."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            s = ZERO
            for x, b_row in zip(row, b):
                s = s + x * b_row[j]
            out_row.append(s)
        out.append(out_row)
    return out


def _times(a, x):
    return [row[0] for row in _dense_matmul(a, [[v] for v in x])]


def _agrees_with_the_oracle(a, targets, got):
    """got = (rank, solutions) has the oracle's rank and solvable targets, and
    solves A x = b exactly; at full column rank the solutions are the oracle's."""
    got_rank, sols = got
    want_rank, want = _dense_solve_with_rank(a, targets)
    assert got_rank == want_rank
    assert [x is None for x in sols] == [x is None for x in want]
    for b, x, y in zip(targets, sols, want):
        if x is not None:
            assert _times(a, x) == b
            if got_rank == len(a[0]):
                assert x == y


def _count_eliminations(monkeypatch):
    """The column counts of the exact eliminations (`_eliminate`) made."""
    real = linalg._eliminate
    calls = []
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, nc: calls.append(nc) or real(rows, nc))
    return calls


def test_rank_agrees_with_transpose_and_solve_on_random_laurent_matrices(monkeypatch):
    # the sparse Markowitz elimination and the route through t0 mod P against
    # the dense Gauss-Jordan oracle, on square, tall and wide matrices with
    # consistent and random targets
    rng = random.Random(2024)
    seen = {"full": 0, "deficient": 0, "solved": 0, "unsolvable": 0,
            "rank proven mod P": 0, "rank eliminated": 0}
    for trial in range(90):
        nc = rng.randint(1, 7)
        # square, tall and wide in turn
        nr = (nc, nc + rng.randint(1, 3), max(1, nc - rng.randint(1, 3)))[trial % 3]
        a = _random_laurent_matrix(rng, nr, nc)
        calls = _count_eliminations(monkeypatch)
        r = rank(a)
        monkeypatch.undo()
        assert r == len(_dense_gauss_jordan(a, nc)[1])
        seen["rank eliminated" if calls else "rank proven mod P"] += 1
        assert calls == ([] if r == min(nr, nc) else [min(nr, nc)])
        assert r == rank(transpose(a)) == solve_with_rank(a, [])[0]
        assert r == solve_with_rank(transpose(a), [])[0]
        consistent = [_times(a, [_random_laurent_entry(rng, 0.7) for _ in range(nc)])
                      for _ in range(2)]
        random_b = [[_random_laurent_entry(rng) for _ in range(nr)] for _ in range(2)]
        targets = consistent + random_b
        got = solve_with_rank(a, targets)
        _agrees_with_the_oracle(a, targets, got)
        assert got[0] == r
        assert all(x is not None for x in got[1][:2])
        seen["solved"] += sum(x is not None for x in got[1])
        seen["unsolvable"] += sum(x is None for x in got[1])
        seen["full" if r == nc else "deficient"] += 1
    assert min(seen.values()) >= 10, seen


def test_rank_dropping_at_t0_alone_is_found_exactly(monkeypatch):
    # det [[1, 1], [1, t - t0 + 1]] = t - t0: rank 1 at t0 mod P, 2 in Q(t)
    drop = RatFunc((1 - MOD_T0, 1), (1,))
    square = mat([[1, 1], [1, drop]])
    wide = mat([[1, 1, 1], [1, drop, 1]])
    tall = mat([[1, 1], [1, drop], [2, 2]])
    for a in (square, wide, tall):
        for rows in (a, transpose(a)):
            sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
            assert linalg._pivot_rows_mod_p(sparse, len(rows[0])) is None
        calls = _count_eliminations(monkeypatch)
        assert rank(a) == rank(transpose(a)) == 2
        assert len(calls) == 2                  # the whole system, exactly, each time
        monkeypatch.undo()
        nr, nc = len(a), len(a[0])
        targets = [_times(a, [Q] + [ONE] * (nc - 1)),
                   [ONE] + [ZERO] * (nr - 1), [drop] * nr]
        got = solve_with_rank(a, targets)
        assert got == linalg._solve_by_elimination(a, targets)
        _agrees_with_the_oracle(a, targets, got)
        assert got[0] == 2 and got[1][0] is not None


def _record_solves(monkeypatch):
    """The row counts of the systems handed to the exact path."""
    real = linalg._solve_by_elimination
    sizes = []

    def recorded(a_rows, b_cols):
        sizes.append(len(a_rows))
        return real(a_rows, b_cols)

    monkeypatch.setattr(linalg, "_solve_by_elimination", recorded)
    return sizes


def test_solve_with_rank_equals_the_whole_system_on_random_laurent_systems(monkeypatch):
    # the same rank and solutions, whether the pivot rows are found mod P
    # (full column rank: one square solve and a check of the other rows)
    # or the system is rank-deficient and eliminated whole
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
        want = linalg._solve_by_elimination(a, targets)
        sizes = _record_solves(monkeypatch)
        got = solve_with_rank(a, targets)
        monkeypatch.undo()
        assert got == want
        _agrees_with_the_oracle(a, targets, got)
        if sizes == [nc] and nr > nc:
            seen["square solve"] += 1
            seen["unsolvable by the check"] += sum(x is None for x in got[1])
            seen["solved by the check"] += sum(x is not None for x in got[1])
        elif sizes == [nr]:
            seen["whole system"] += 1
            assert got[0] < nc or nr == nc
    assert min(seen.values()) >= 10, seen


def test_solve_with_rank_targets_out_of_the_span_on_and_off_the_pivot_rows(monkeypatch):
    # the zero row is off the pivot rows, and a target nonzero there is not solvable
    a = mat([[1, 0], [0, 1], [1, 1], [1, -1], [0, 0]])
    b = [ONE, Q, ONE + Q, ONE - Q, ZERO]
    sizes = _record_solves(monkeypatch)
    assert solve_with_rank(a, [b]) == (2, [[ONE, Q]])
    assert sizes == [2]                         # the square minor only
    monkeypatch.undo()
    for i in range(5):
        moved = list(b)
        moved[i] = moved[i] + ONE
        got = solve_with_rank(a, [b, moved])
        assert got == linalg._solve_by_elimination(a, [b, moved]) == (2, [[ONE, Q], None])
        _agrees_with_the_oracle(a, [b, moved], got)


def test_the_row_check_clears_denominators_only_where_a_row_meets_the_support(monkeypatch):
    calls = []
    real = linalg.clear_denominators
    monkeypatch.setattr(linalg, "clear_denominators", lambda x: calls.append(x) or real(x))
    # rows 0 and 1 are the pivot rows; row 2 is zero and row 3 misses x_0
    a = mat([[1, 0], [0, 1], [0, 0], [0, 1]])
    assert solve_with_rank(a, [[ONE, ZERO, ZERO, ZERO], [ONE, ZERO, ONE, ZERO]]) == (
        2, [[ONE, ZERO], None])
    assert calls == []
    assert solve_with_rank(a, [[ONE, QINV, ZERO, QINV]]) == (2, [[ONE, QINV]])
    assert calls == [[ONE, QINV]]
    # seeded tall systems with zero rows and solutions of small support, and
    # a target nonzero on a zero row: the whole system's rank and solutions
    rng = random.Random(4303)
    seen = {"solved": 0, "refused": 0, "no denominator": 0}
    for _ in range(60):
        nc = rng.randint(1, 5)
        nr = nc + rng.randint(1, 4)
        a = _random_laurent_matrix(rng, nr, nc)
        zero = rng.randrange(nr)
        a[zero] = [ZERO] * nc
        support = rng.sample(range(nc), rng.randint(1, nc))
        b = _times(a, [_random_laurent_entry(rng, 1.0) if j in support else ZERO
                       for j in range(nc)])
        off = list(b)
        off[zero] = off[zero] + ONE
        targets = [b, off, [_random_laurent_entry(rng) for _ in range(nr)]]
        calls.clear()
        got = solve_with_rank(a, targets)
        assert got == linalg._solve_by_elimination(a, targets)
        _agrees_with_the_oracle(a, targets, got)
        assert got[1][1] is None
        assert len(calls) <= len(targets)
        seen["solved"] += sum(x is not None for x in got[1])
        seen["refused"] += sum(x is None for x in got[1])
        seen["no denominator"] += got[0] == nc and len(calls) < len(targets)
    assert min(seen.values()) >= 10, seen


def test_solve_with_rank_passes_over_rows_undefined_at_t0(monkeypatch):
    # 1/(t - t0) has no value at t0: its row cannot be a pivot row mod P
    pole = RatFunc((1,), (-MOD_T0, 1))
    square = [[pole, ONE], [ONE, Q]]
    b = [[ONE, ZERO]]
    want = linalg._solve_by_elimination(square, b)
    sizes = _record_solves(monkeypatch)
    got = solve_with_rank(square, b)
    assert sizes == [2]                         # the whole system, exactly
    assert got == want
    assert got[0] == 2
    tall = square + [[Q, ONE]]
    targets = [_times(tall, [ONE, Q]), [ONE, ZERO, ZERO]]
    sizes.clear()
    got = solve_with_rank(tall, targets)
    assert sizes == [2]                         # the two rows defined at t0
    assert got == (2, [[ONE, Q], None])
    # row 1 is (t - t0) times row 0; with the pole read as 0 mod P the two
    # rows would look independent and the exact minor would be singular
    dependent = [[pole, ONE], [ONE, RatFunc((-MOD_T0, 1), (1,))]]
    sizes.clear()
    got = solve_with_rank(dependent, b)
    assert sizes == [2]
    assert got[0] == rank(dependent) == 1
    monkeypatch.undo()
    assert got == linalg._solve_by_elimination(dependent, b)
    assert solve_with_rank(tall, targets) == linalg._solve_by_elimination(tall, targets)


def test_solve_with_rank_refuses_a_minor_that_contradicts_its_rank_mod_p(monkeypatch):
    real = linalg._solve_by_elimination
    monkeypatch.setattr(linalg, "_solve_by_elimination",
                        lambda a, b: (lambda r, sols: (r - 1, sols))(*real(a, b)))
    with pytest.raises(AssertionError,
                       match="^column rank 2 at t0 mod P, but the minor has rank 1$"):
        solve_with_rank(mat([[1, 0], [0, 1], [1, 1]]), [[ONE, ONE, RatFunc.from_int(2)]])


def _as_matrix(rows):
    return Matrix({(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)})


def test_matrix_arithmetic_matches_the_dense_oracle():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[_random_laurent_entry(rng) for _ in range(n)] for _ in range(n)]
        b = [[_random_laurent_entry(rng) for _ in range(n)] for _ in range(n)]
        c = _random_laurent_entry(rng, density=0.8)
        ma, mb = _as_matrix(a), _as_matrix(b)
        assert (ma * mb).rows(n) == _dense_matmul(a, b)
        assert (ma + mb).rows(n) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
        assert (ma - mb).rows(n) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
        assert (c * ma).rows(n) == [[c * x for x in r] for r in a]
        assert (ma * Matrix.identity(n) == ma == Matrix.identity(n) * ma)


def test_matrix_entries_equality_and_hash():
    m = Matrix({(0, 1): Q, (1, 0): ZERO, (1, 1): -ONE})
    assert m.terms == {(0, 1): Q, (1, 1): -ONE}          # zeros are dropped
    assert m[0, 1] == Q and m[1, 0] == ZERO and m[7, 7] == ZERO
    assert m.rows(2) == [[ZERO, Q], [ZERO, -ONE]]
    same = Matrix({(1, 1): -ONE, (0, 1): Q})
    assert m == same and hash(m) == hash(same)
    assert m != Matrix({(0, 1): Q}) and not (m - same) and Matrix() == m - same
    assert str(m) == "q*E_0,1 - E_1,1"
    with pytest.raises(TypeError):
        m[0]                                            # a row is not an entry


def test_a_product_of_units_that_do_not_chain_multiplies_no_scalars(monkeypatch):
    real, calls = RatFunc.__mul__, []
    monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    e01, e10 = Matrix({(0, 1): Q}), Matrix({(1, 0): QINV})
    assert (e01 * e01).is_zero() and (e10 * e10).is_zero()
    assert calls == []
    assert e01 * e10 == Matrix({(0, 0): ONE}) and calls          # the spy sees products


def _random_sphere_entry(rng, alg, monos):
    """A sphere element of 0-3 terms with Laurent coefficients."""
    return alg.element({m: _random_laurent_entry(rng, density=1.0)
                        for m in rng.sample(monos, rng.randint(0, 3))})


def _kept_nonzero(terms):
    """No zero entry, no empty element and no zero coefficient inside one."""
    return all(v and all(getattr(v, "terms", {1: v}).values()) for v in terms.values())


def test_products_over_the_sphere_equal_the_entrywise_oracle():
    # entries and tensor legs are sphere elements; each product must be the
    # sum of the element products, with planted pairs that cancel exactly
    rng = random.Random(6301)
    alg = PodlesAlgebra(CParam.generic(1))
    monos = alg.normal_monomials(2)
    for _ in range(25):
        a = [[_random_sphere_entry(rng, alg, monos) for _ in range(3)] for _ in range(3)]
        b = [[_random_sphere_entry(rng, alg, monos) for _ in range(3)] for _ in range(3)]
        i0, k0 = rng.randrange(3), rng.randrange(3)
        a[i0][1], a[i0][2], b[1][k0] = -a[i0][0], alg.element(), b[0][k0]
        if rng.random() < 0.5:
            a[(i0 + 1) % 3][rng.randrange(3)] = Q          # a scalar entry among elements
        prod = _as_matrix(a) * _as_matrix(b)
        want = {}
        for i in range(3):
            for k in range(3):
                s = ZERO
                for j in range(3):
                    s = s + a[i][j] * b[j][k]
                if s:
                    want[i, k] = s
        assert prod.terms == want and (i0, k0) not in prod.terms
        assert _kept_nonzero(prod.terms)
        assert prod == Matrix(want) and hash(prod) == hash(Matrix(want))

    words = [(), ("a", "a"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "d"), ("b",), ("c",)]
    for _ in range(25):
        u, v = ({w: _random_sphere_entry(rng, alg, monos) for w in rng.sample(words, 3)}
                for _ in range(2))
        x, y = _random_sphere_entry(rng, alg, monos), _random_sphere_entry(rng, alg, monos)
        u.update({("b",): x, ("c",): -x})               # x y (x) bc - x y (x) cb = 0
        v.update({("b",): y, ("c",): y})
        su, sv = SL2Element(u), SL2Element(v)
        prod = su * sv
        want = SL2Element()
        for w1, x1 in su.terms.items():
            for w2, x2 in sv.terms.items():
                for w, c in oqsl2.reduce_word(w1 + w2).items():
                    want = want + SL2Element({w: x1 * x2 * c})
        assert prod.terms == want.terms and _kept_nonzero(prod.terms)
        assert prod == want and hash(prod) == hash(want)
