import pytest

from qsphere.scalars import (ZERO, ONE, Q, QINV, QHAT, MOD_P, MOD_T0, CParam,
                             RatFunc, cn_value, eval_mod, qint, qpow)
from qsphere import linalg, selftest, uqsl2rep
from qsphere.cli import main
from qsphere.dualfunc import DualEngine
from qsphere.linalg import Matrix
from qsphere.uqsl2rep import (X, XPoly, charpoly_check, irrep, kernel_dim,
                              relation_failures, xc_alpha, xc_matrix,
                              xc_matrix_from_irrep, xc_tridiagonal,
                              xc_tridiagonal_mod, _pair_closed_forms)

GENERIC = CParam.generic(1)
INF = CParam.infinity()
EXC_HALF = CParam.generic((qpow(1) - qpow(-1)).inv())     # c = (q^(1/2)-q^(-1/2))^-2


def test_irrep_l0():
    E, F, K = irrep(0, +1)
    assert E.rows(1) == [[ZERO]] and F.rows(1) == [[ZERO]] and K.rows(1) == [[ONE]]


def test_irrep_l1_commutator():
    E, F, _ = irrep(1, +1)
    comm = E * F - F * E
    assert comm.rows(2) == [[ONE, ZERO], [ZERO, -ONE]]


def test_irrep_sign_minus_weights():
    _, _, K = irrep(2, -1)
    assert [K[k, k] for k in range(3)] == [-Q * Q, -ONE, -qpow(-4)]


def test_irrep_relations():
    for l in range(0, 5):
        for sign in (+1, -1):
            E, F, K = irrep(l, sign)
            assert relation_failures(E, F, K) == []


def test_irrep_highest_weight_structure():
    # E kills index 0 where K has eigenvalue ±q^l; F kills the last index
    for sign in (+1, -1):
        E, F, K = irrep(3, sign)
        assert all(not E[i, 0] for i in range(4))
        assert all(not F[i, 3] for i in range(4))
        assert K[0, 0] == sign * qpow(6)


def test_xc_matrix_l0():
    m = xc_matrix(0, GENERIC, +1)
    assert m == Matrix() and m[0, 0] == ZERO
    m = xc_matrix(0, GENERIC, -1)
    assert m[0, 0] == 2 * Q * xc_alpha(GENERIC)


def test_xc_matrix_superdiagonal_entries():
    for l in (2, 4):
        m = xc_matrix(l, GENERIC, +1)
        for k in range(l):
            assert m[k, k + 1] == qpow(2 * (l + 1)) * qint(k + 1)


def test_xc_matrix_matches_irrep_route():
    for c in (GENERIC, INF):
        for l in range(0, 5):
            for sign in (+1, -1):
                assert xc_matrix(l, c, sign) == xc_matrix_from_irrep(l, c, sign)


def test_charpoly_l0_is_x():
    pairs, zero_mult, diff = charpoly_check(0, GENERIC, +1)
    assert not diff
    assert zero_mult == 1
    assert pairs == []


def test_charpoly_verdicts_and_zero_roots():
    _, zero_mult, diff = charpoly_check(2, GENERIC, +1)
    assert not diff and zero_mult == 1
    _, zero_mult, diff = charpoly_check(1, GENERIC, +1)
    assert not diff and zero_mult == 0
    for c in (GENERIC, CParam.generic(2), INF, EXC_HALF):
        for l in range(0, 5):
            for sign in (+1, -1):
                _, _, diff = charpoly_check(l, c, sign)
                assert not diff, (l, sign)


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
    _, _, diff = charpoly_check(3, GENERIC, +1)
    assert diff
    assert main(["eigenvalues", "--c", "s=2", "--l", "3", "--sign", "+"]) == 1
    assert "[FAIL] charpoly factorization" in capsys.readouterr().out


def test_kernel_dims():
    assert kernel_dim(4, GENERIC, +1) == 1
    assert kernel_dim(3, GENERIC, -1) == 0
    assert kernel_dim(1, EXC_HALF, -1) >= 1
    for l in range(0, 9):
        assert kernel_dim(l, GENERIC, +1) == (1 if l % 2 == 0 else 0)


# s=1, s=2, s=q, s=q+1, s=1/2, s=-1, inf and exc:1..6
ORACLE_CS = ([CParam.generic(s) for s in (1, 2, Q, Q + 1, RatFunc.from_fraction("1/2"), -1)]
             + [INF] + [selftest.c_exc(r2) for r2 in range(1, 7)])


def _elimination_nullity(rows):
    """The nullity of a square matrix by one exact elimination, with no modular pass."""
    pivots, _ = linalg._eliminate(rows, len(rows))
    return len(rows) - len(pivots)


@pytest.mark.parametrize("c", ORACLE_CS, ids=str)
def test_kernel_dim_is_the_elimination_nullity(c):
    for l in range(13):
        for sign in (+1, -1):
            assert kernel_dim(l, c, sign) == _elimination_nullity(
                xc_matrix(l, c, sign).rows(l + 1)), (l, sign)


@pytest.mark.parametrize("c", ORACLE_CS, ids=str)
def test_modular_entries_are_the_images_of_the_exact_ones(c):
    for l in range(9):
        for sign in (+1, -1):
            exact = xc_tridiagonal(l, c, sign)
            assert xc_tridiagonal_mod(l, c, sign) == tuple(
                [eval_mod(x, MOD_T0, MOD_P) for x in part] for part in exact), (l, sign)


def test_alpha_without_a_value_at_t0_takes_the_exact_route(monkeypatch):
    # s(t0) = 0 mod P, so alpha = -1/(s (q - q^-1)) has no value there
    c = CParam.generic(Q - (MOD_T0 ** 2 % MOD_P))
    assert eval_mod(xc_alpha(c), MOD_T0, MOD_P) is None
    exact = []
    real = uqsl2rep.xc_tridiagonal
    monkeypatch.setattr(uqsl2rep, "xc_tridiagonal",
                        lambda l, c, sign: exact.append((sign, l)) or real(l, c, sign))
    for l in range(5):
        for sign in (+1, -1):
            assert xc_tridiagonal_mod(l, c, sign) is None
            want = _elimination_nullity(xc_matrix(l, c, sign).rows(l + 1))
            exact.clear()
            assert kernel_dim(l, c, sign) == want
            assert exact == [(sign, l)]
    # the operator route cannot evaluate alpha q either, and agrees
    assert DualEngine(c).scan_weights(4) == DualEngine(GENERIC).scan_weights(4)


def test_a_zero_on_the_superdiagonal_is_an_internal_error(monkeypatch, capsys):
    real = uqsl2rep._xc_entries

    def planted(*args):
        diag, sup, sub = real(*args)
        return diag, [0 * sup[0]] + sup[1:], sub

    monkeypatch.setattr(uqsl2rep, "_xc_entries", planted)
    for sign in (+1, -1):
        with pytest.raises(AssertionError) as raised:
            kernel_dim(3, GENERIC, sign)
        assert str(raised.value) == "X_c has a zero on its superdiagonal at sign=%+d l=3" % sign
    assert main(["eigenvalues", "--c", "s=2", "--l", "3", "--sign", "-"]) == 3
    assert capsys.readouterr().err == (
        "internal check failed: X_c has a zero on its superdiagonal at sign=-1 l=3\n")


def test_a_non_member_scan_takes_no_exact_matrix(monkeypatch):
    # only the members' det X_c = 0 is taken in Q(t)
    calls = []
    for name in ("xc_matrix", "xc_tridiagonal"):
        real = getattr(uqsl2rep, name)
        monkeypatch.setattr(uqsl2rep, name, lambda l, c, sign, name=name, real=real:
                            calls.append((name, sign, l)) or real(l, c, sign))
    members = DualEngine(CParam.generic(2)).scan_weights(6)
    assert members == [(1, 0), (1, 2), (1, 4), (1, 6)]
    assert calls == [("xc_tridiagonal", sign, l) for sign, l in members]


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
    for f in (xc_matrix, charpoly_check, kernel_dim, xc_tridiagonal_mod):
        with pytest.raises(ValueError):
            f(-1, GENERIC, +1)
