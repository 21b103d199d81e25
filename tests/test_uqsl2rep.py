import pytest

from qsphere.scalars import (ZERO, ONE, Q, QINV, QHAT, CParam, cn_value,
                             qint, qpow)
from qsphere import linalg, uqsl2rep
from qsphere.cli import main
from qsphere.uqsl2rep import (X, XPoly, charpoly_check, irrep, kernel_dim,
                              relation_failures, xc_alpha, xc_matrix,
                              xc_matrix_from_irrep, _pair_closed_forms)

GENERIC = CParam.generic(1)
INF = CParam.infinity()
EXC_HALF = CParam.generic((qpow(1) - qpow(-1)).inv())     # c = (q^(1/2)-q^(-1/2))^-2


def test_irrep_l0():
    v = irrep(0, +1)
    assert v.matE == [[ZERO]] and v.matF == [[ZERO]] and v.matK == [[ONE]]


def test_irrep_l1_commutator():
    v = irrep(1, +1)
    comm = linalg.matsub(linalg.matmul(v.matE, v.matF),
                         linalg.matmul(v.matF, v.matE))
    assert comm == [[ONE, ZERO], [ZERO, -ONE]]


def test_irrep_sign_minus_weights():
    v = irrep(2, -1)
    assert [v.matK[k][k] for k in range(3)] == [-Q * Q, -ONE, -qpow(-4)]


def test_irrep_relations():
    for l in range(0, 5):
        for sign in (+1, -1):
            v = irrep(l, sign)
            assert relation_failures(v.matE, v.matF, v.matK) == []


def test_irrep_highest_weight_structure():
    # E kills index 0 where K has eigenvalue ±q^l; F kills the last index
    for sign in (+1, -1):
        v = irrep(3, sign)
        assert all(not v.matE[i][0] for i in range(4))
        assert all(not v.matF[i][3] for i in range(4))
        assert v.matK[0][0] == sign * qpow(6)


def test_xc_matrix_l0():
    m = xc_matrix(0, GENERIC, +1)
    assert m == [[ZERO]]
    m = xc_matrix(0, GENERIC, -1)
    assert m[0][0] == 2 * Q * xc_alpha(GENERIC)


def test_xc_matrix_superdiagonal_entries():
    for l in (2, 4):
        m = xc_matrix(l, GENERIC, +1)
        for k in range(l):
            assert m[k][k + 1] == qpow(2 * (l + 1)) * qint(k + 1)


def test_xc_matrix_matches_irrep_route():
    for c in (GENERIC, INF):
        for l in range(0, 5):
            for sign in (+1, -1):
                assert xc_matrix(l, c, sign) == xc_matrix_from_irrep(l, c, sign)


def test_charpoly_l0_is_x():
    data, verdict, diff = charpoly_check(0, GENERIC, +1)
    assert verdict == "equal"
    assert data.zero_root_multiplicity == 1
    assert data.pairs == []


def test_charpoly_verdicts_and_zero_roots():
    data, verdict, _ = charpoly_check(2, GENERIC, +1)
    assert verdict == "equal" and data.zero_root_multiplicity == 1
    data, verdict, _ = charpoly_check(1, GENERIC, +1)
    assert verdict == "equal" and data.zero_root_multiplicity == 0
    for c in (GENERIC, CParam.generic(2), INF, EXC_HALF):
        for l in range(0, 5):
            for sign in (+1, -1):
                _, verdict, _ = charpoly_check(l, c, sign)
                assert verdict == "equal", (l, sign)


def test_xpoly_arithmetic():
    # a polynomial on x^0 alone equals, and hashes like, the scalar it holds
    for c in (ZERO, ONE, Q * Q + 1):
        p = X ** 0 * c
        assert p == c and hash(p) == hash(c)
    assert XPoly({0: Q}) == Q and hash(XPoly({0: Q})) == hash(Q)
    sq = (X + 1) * (X + 1)
    assert sq == X * X + 2 * X + 1
    assert str(sq) == "1 + 2*x + x^2"
    assert str(X * X - Q * X) == "-q*x + x^2"
    assert str(X) == "x"
    assert sq - sq == XPoly() == 0 and not (sq - sq)
    assert min((X * X * sq).terms) == 2


def test_wrong_pair_product_is_unequal(monkeypatch, capsys):
    real = _pair_closed_forms

    def planted(l, c, sign):
        pairs, zero_root = real(l, c, sign)
        (r2, s, p), *rest = pairs
        return [(r2, s, p + 1)] + rest, zero_root

    monkeypatch.setattr(uqsl2rep, "_pair_closed_forms", planted)
    _, verdict, diff = charpoly_check(3, GENERIC, +1)
    assert verdict == "unequal" and diff
    assert main(["eigenvalues", "--c", "s=2", "--l", "3", "--sign", "+"]) == 1
    assert "[FAIL] charpoly factorization" in capsys.readouterr().out


def test_kernel_dims():
    assert kernel_dim(4, GENERIC, +1) == 1
    assert kernel_dim(3, GENERIC, -1) == 0
    assert kernel_dim(1, EXC_HALF, -1) >= 1
    for l in range(0, 9):
        assert kernel_dim(l, GENERIC, +1) == (1 if l % 2 == 0 else 0)


def test_pair_product_vanishes_exactly_at_cn():
    # P_r = 0 iff c = c(n) with n = r (sign +), substituting the c-value
    # into the closed form through alpha^2 = 1/(c (q-q^-1)^2)
    for r2 in range(1, 9):
        minus = qpow(r2) - qpow(-r2)
        plus = qpow(r2) + qpow(-r2)
        for n2 in range(1, 9):
            cv = cn_value(n2)
            alpha_sq = ONE / (cv * QHAT * QHAT)
            p_r = -(minus * minus) * (alpha_sq + QINV * Q * (plus / QHAT) ** 2)
            assert p_r.is_zero() == (n2 == r2)


def test_spectral_pairs_match_closed_forms():
    pairs, zero_root = _pair_closed_forms(2, GENERIC, +1)
    assert zero_root == ZERO
    assert len(pairs) == 1 and pairs[0][0] == 2
    pairs, zero_root = _pair_closed_forms(3, GENERIC, -1)
    assert zero_root is None
    assert [p[0] for p in pairs] == [1, 3]


def test_rejects_zero_parameter():
    with pytest.raises(ValueError):
        xc_matrix(2, CParam.zero(), +1)


def test_rejects_negative_level():
    for f in (xc_matrix, charpoly_check, kernel_dim):
        with pytest.raises(ValueError):
            f(-1, GENERIC, +1)
