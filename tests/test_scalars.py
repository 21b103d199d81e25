import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qsphere import fodc, linalg, scalars
from qsphere.dualfunc import DualEngine
from qsphere.scalars import (ZERO, ONE, Q, QINV, QHAT, RatFunc, CParam,
                             qint, qbinom, cn_value, eval_mod,
                             clear_denominators,
                             check_admissible, parse_ratfunc, qpow, _padd,
                             _pmul, _pneg, _pgcd, _prs_gcd, _pdiv_exact,
                             _heu_gcd)
from qsphere.uqsl2rep import BETA, GAMMA, xc_alpha


def test_qint_small_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(3) == parse_ratfunc("q^2 + 1 + q^-2")
    assert qint(-4) == -qint(4)


def test_qint_defining_identity():
    for l in range(-20, 21):
        assert qint(l) * QHAT == qpow(2 * l) - qpow(-2 * l)


def test_qbinom_boundaries_and_values():
    assert qbinom(5, 0) == ONE
    assert qbinom(5, 5) == ONE
    assert qbinom(2, 1) == Q + QINV
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def qfact(l):
    """[l]! = [2][3]...[l], the oracle for qbinom."""
    out = ONE
    for i in range(2, l + 1):
        out = out * qint(i)
    return out


def test_qbinom_against_factorial_oracle():
    for l in range(0, 7):
        for r in range(0, l + 1):
            assert qbinom(l, r) == qfact(l) / (qfact(r) * qfact(l - r))


def test_qbinom_pascal_rule():
    # both balanced q-Pascal orientations:
    # [l; r] = q^(l-r) [l-1; r-1] + q^-r [l-1; r]
    #        = q^-(l-r) [l-1; r-1] + q^r [l-1; r]
    for l in range(1, 11):
        for r in range(1, l):
            lhs = qbinom(l, r)
            assert lhs == (qpow(2 * (l - r)) * qbinom(l - 1, r - 1)
                           + qpow(-2 * r) * qbinom(l - 1, r))
            assert lhs == (qpow(-2 * (l - r)) * qbinom(l - 1, r - 1)
                           + qpow(2 * r) * qbinom(l - 1, r))


def test_cn_values():
    assert cn_value(2) == parse_ratfunc("-1/(q+q^-1)^2")
    assert cn_value(1) == parse_ratfunc("-1/(q^(1/2)+q^(-1/2))^2")
    assert cn_value(4) == parse_ratfunc("-1/(q^2+q^-2)^2")


def test_cn_values_distinct():
    vals = [cn_value(n2) for n2 in range(0, 21)]
    assert len(set(vals)) == len(vals)


def test_cn_never_a_square():
    # c(n) = -(monomial/poly)^2 has no square root in Q(t), so generic
    # parameters c = s^2 can never collide with an exceptional value
    for n2 in range(0, 9):
        root_sq = -cn_value(n2)
        num, den = root_sq.num, root_sq.den
        # -c(n) is an exact square of t^n2/(t^(2 n2)+1)
        assert root_sq == (qpow(n2) / (qpow(2 * n2) + 1)) ** 2


def test_field_axioms_randomized():
    rng = random.Random(20240817)

    def rand_rf():
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
        den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        if not any(den):
            den = (1,)
        return RatFunc(num, den)

    for _ in range(60):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        if b:
            assert a / b * b == a


def test_a_number_divided_by_a_ratfunc_is_its_product_with_the_inverse():
    # int / RatFunc reaches RatFunc.__rtruediv__, which the tracer counts
    # among the scalar operations
    x = Q + 1
    assert 2 / x == RatFunc.from_int(2) * x.inv()
    assert (2 / x) * x == 2
    assert 1 / Q == QINV and Fraction(1, 2) / QINV == Q / 2
    with pytest.raises(ZeroDivisionError):
        2 / ZERO
    with pytest.raises(TypeError):
        "2" / x


def test_canonical_roundtrip_randomized():
    rng = random.Random(411)
    for _ in range(80):
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        if not any(den):
            den = (3,)
        x = RatFunc(num, den)
        assert parse_ratfunc(str(x)) == x


def test_canonical_form_is_hashable_key():
    # (t^4 - t^2)/t and t^3 - t must canonicalize identically
    a = RatFunc((0, 0, -1, 0, 1), (0, 1))
    b = RatFunc((0, -1, 0, 1), (1,))
    d = {a: 1}
    d[b] = 2
    assert len(d) == 1


def test_parse_half_powers_and_fractions():
    x = parse_ratfunc("q^(1/2) - q^(-1/2)")
    assert x * x == Q - 2 + QINV
    assert parse_ratfunc("3/2*q") == RatFunc((0, 0, 3), (2,))
    assert parse_ratfunc("-1/(q+q^-1)^2") == cn_value(2)
    assert parse_ratfunc("1/(q^(1/2)-q^(-1/2))^2") == (qpow(1) - qpow(-1)) ** -2
    # the sign binds looser than ^, and the exponent may be a constant expression
    assert parse_ratfunc("-q^2") == -(Q * Q)
    assert parse_ratfunc("q^-1") == QINV
    assert parse_ratfunc("q^(4/2)") == Q * Q
    for k in range(1, 6):
        assert parse_ratfunc("q^(%d/2)" % k) == qpow(k)
        assert parse_ratfunc("q^(-%d/2)" % k) == qpow(-k)


def test_parse_reads_q_alone_and_half_powers_only_on_q():
    assert parse_ratfunc("q^(-3/2)") == qpow(-3)
    assert parse_ratfunc("(q+1)^-2") == (Q + 1) ** -2
    for text in ("e1", "s", "2*s + q", "2^(1/2)", "(q+1)^(1/2)"):
        with pytest.raises(ValueError):
            parse_ratfunc(text)


def test_the_cli_loads_no_expression_parser_until_it_parses():
    # a subprocess, since pytest itself imports ast
    code = subprocess.run([sys.executable, "-c",
                           "import qsphere.cli, sys; sys.exit('ast' in sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=str(Path(scalars.__file__).parents[1]))
                          ).returncode
    assert code == 0


def test_cparam_and_xc_data():
    c = CParam.generic(1)
    assert xc_alpha(c) == -ONE / QHAT
    assert BETA == Q and GAMMA == ONE
    assert c.c_value() == ONE

    cinf = CParam.infinity()
    assert xc_alpha(cinf) == ZERO
    assert cinf.c_value() is None

    with pytest.raises(ValueError):
        CParam.generic(0)
    with pytest.raises(ValueError):
        xc_alpha(CParam.zero())


def test_check_admissible():
    assert check_admissible(CParam.generic(1))["admissible"]
    assert check_admissible(CParam.infinity())["admissible"]
    rep = check_admissible(CParam.zero())
    assert not rep["admissible"] and rep["is_zero"]


def test_admissibility_leading_coefficient_sign():
    # lc(num) * lc(den) is negative on every exceptional value c(n) and
    # positive on every c = s^2, so the sign alone excludes c = c(n)
    for n2 in range(0, 65):
        assert cn_value(n2).lc_sign() == -1
    for spec in ("1", "2", "-3", "1/2", "-2/3", "q", "-q", "q+1", "q-q^-1",
                 "1/(q-q^-1)", "q^(1/2)-2*q^-3"):
        c = CParam.generic(parse_ratfunc(spec))
        assert c.c_value().lc_sign() == 1, spec
        rep = check_admissible(c)
        assert rep["admissible"] and rep["lc_sign"] == 1
    assert ZERO.lc_sign() == 0
    assert (-Q / (Q + 1)).lc_sign() == -1


def test_constants_hash_like_numbers():
    assert {ONE: "x"}.get(1) == "x"
    assert {ZERO: "z"}.get(0) == "z"
    assert hash(RatFunc.from_int(-7)) == hash(-7)
    assert hash(RatFunc.from_fraction(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert {Fraction(-5, 6): 1}.get(RatFunc.from_fraction(Fraction(-5, 6))) == 1


def _naive_pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_pmul_operand_order():
    rng = random.Random(77)
    sparse = (0,) * 160 + (1,)
    dense = tuple(rng.randint(-9, 9) for _ in range(39)) + (5,)
    holey = (3, 0, 0, -2, 0, 0, 0, 7)
    for a, b in [(dense, sparse), (dense, dense), (holey, sparse),
                 (holey, dense), ((0, 0, -4), (2,))]:
        assert _pmul(a, b) == _pmul(b, a) == _naive_pmul(a, b)


def test_pmul_by_a_one_term_operand_shifts_and_scales():
    rng = random.Random(78)
    dense = tuple(rng.randint(-9, 9) for _ in range(39)) + (5,)
    holey = (3, 0, 0, -2, 0, 0, 0, 7)
    one_term = [(1,), (-1,), (7,), (0, 0, 1), (0, -3), (0,) * 5 + (12,), (0,) * 160 + (1,)]
    for c in one_term:
        for p in [dense, holey, (4,), (0, 1), (0, 0, -6)] + one_term:
            assert _pmul(p, c) == _pmul(c, p) == _naive_pmul(p, c)
    assert _pmul(dense, (1,)) is dense          # a shift by 0 and a scale by 1 copy nothing


# -- oracle tests: Henrici arithmetic and GCDHEU against cross-multiplication
# and the primitive PRS gcd

def _prs_fraction(num, den):
    """Reference canonical form: divide out the PRS gcd, then fix contents and sign."""
    if not any(num):
        return (), (1,)
    g = _prs_gcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    cg = math.gcd(*num, *den)
    if den[-1] < 0:
        cg = -cg
    return tuple(x // cg for x in num), tuple(x // cg for x in den)


def _planted(rng):
    """A nonzero polynomial times a random product of factors the engine meets."""
    factors = [(-1, 0, 0, 0, 1),                       # q - q^-1, times t^2
               (-1,) + (0,) * 7 + (1,),                # q^2 - q^-2, times t^4
               (1, 0, 2, 0, 1),                        # (q + 1)^2
               (1, 0, 0, 0, 2, 0, 0, 0, 1),            # (q^2 + 1)^2
               (1, 0, 1, 0, 1),                        # [3] times q^2
               (0, 0, 1),                              # q
               (0, 1)]                                 # q^(1/2)
    p = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 4))) + (rng.choice((-3, -1, 1, 2)),)
    for _ in range(rng.randint(0, 3)):
        p = _pmul(p, rng.choice(factors))
    return p


def _rand_canonical(rng):
    kind = rng.random()
    if kind < 0.15:
        return ZERO
    num = _planted(rng)
    if kind < 0.45:
        den = (0,) * rng.randint(0, 6) + (rng.choice((1, 2, 3, 6)),)   # monomial
    else:
        den = _planted(rng)
    return RatFunc(*_prs_fraction(num, den), _reduced=True)


def test_henrici_arithmetic_matches_cross_multiplication():
    rng = random.Random(20261018)
    for _ in range(250):
        x, y = _rand_canonical(rng), _rand_canonical(rng)
        a, b, c, d = x.num, x.den, y.num, y.den
        cross_sum = _padd(_pmul(a, d), _pmul(c, b))
        cross_diff = _padd(_pmul(a, d), _pneg(_pmul(c, b)))
        bd = _pmul(b, d)
        for got, (num, den) in [(x + y, _prs_fraction(cross_sum, bd)),
                                (x - y, _prs_fraction(cross_diff, bd)),
                                (x * y, _prs_fraction(_pmul(a, c), bd))]:
            assert (got.num, got.den) == (num, den)
        assert (x - x).is_zero() and x + ZERO == x and ZERO - x == -x
        if y:
            q = x / y
            assert (q.num, q.den) == _prs_fraction(_pmul(a, d), _pmul(b, c))


# -- the Laurent path: monomial denominators need no polynomial gcd

def _rand_laurent(rng):
    """(num, den) of a nonzero Laurent polynomial, not reduced: t^j and an
    integer may be common to both."""
    num = ((0,) * rng.randint(0, 4)
           + tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 4)))
           + (rng.choice((-4, -2, -1, 1, 3, 6)),))
    den = (0,) * rng.randint(0, 6) + (rng.choice((1, 2, 3, 4, 6, 12)),)
    return num, den


def _unreduced(num, den):
    """RatFunc(num, den) through the full `_canonical` route."""
    return RatFunc(num, den)


def _same(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)


def test_laurent_arithmetic_matches_the_canonical_route():
    rng = random.Random(7103)
    cancelled = {"t": 0, "int": 0}
    exponents = set()
    for _ in range(400):
        (a, b), (c, d) = _rand_laurent(rng), _rand_laurent(rng)
        if rng.random() < 0.3:
            # y = -x + t^j * (c/d): the low terms of the sum cancel
            shifted = (0,) * rng.randint(1, 3) + c
            c, d = _padd(_pmul(_pneg(a), d), _pmul(shifted, b)), _pmul(b, d)
        x, y = _unreduced(a, b), _unreduced(c, d)
        assert len(x.den) == 1 or not any(x.den[:-1])
        exponents.add((len(x.num) > len(x.den)) - (len(x.num) < len(x.den)))
        bd = _pmul(b, d)
        cross_sum = _padd(_pmul(a, d), _pmul(c, b))
        cross_diff = _padd(_pmul(a, d), _pneg(_pmul(c, b)))
        for got, want in [(x + y, _unreduced(cross_sum, bd)),
                          (x - y, _unreduced(cross_diff, bd)),
                          (x * y, _unreduced(_pmul(a, c), bd))]:
            _same(got, want)
        s = x + y
        top = max(len(x.den), len(y.den))
        if s and len(s.den) < top:
            cancelled["t"] += 1
        if s and s.den[-1] < math.lcm(x.den[-1], y.den[-1]):
            cancelled["int"] += 1
        assert x + (-x) == ZERO and (x - x).num == () and (x - x).den == (1,)
        _same(x * ONE, x)
        _same(ONE * x, x)
    assert exponents == {-1, 0, 1}
    assert cancelled["t"] > 20 and cancelled["int"] > 20


def test_equal_monomial_denominators_share_one_tuple():
    # every canonical denominator m*t^k is the one tuple of (k, m), whichever
    # route built it; the Laurent results equal the fractions built unreduced
    rng = random.Random(25011)
    p, t0 = 2 ** 61 - 1, 1234567891011
    shared = {}
    for _ in range(300):
        (a, b), (c, d) = _rand_laurent(rng), _rand_laurent(rng)
        x, y = _unreduced(a, b), _unreduced(c, d)
        bd = _pmul(b, d)
        values = [x, y, -x, x.inv(), y / x, qpow(-rng.randint(1, 9))]
        for got, want in [(x + y, _unreduced(_padd(_pmul(a, d), _pmul(c, b)), bd)),
                          (x * y, _unreduced(_pmul(a, c), bd))]:
            _same(got, want)
            assert str(got) == str(want)
            assert eval_mod(got, t0, p) == eval_mod(want, t0, p)
            assert clear_denominators([got]) == clear_denominators([want])
            values.append(got)
        for v in values:
            if v.den == (0,) * (len(v.den) - 1) + v.den[-1:]:
                assert shared.setdefault((len(v.den) - 1, v.den[-1]), v.den) is v.den
    assert qpow(-4).den is (QINV * QINV).den is (Q * Q).inv().den
    assert ZERO.den is ONE.den is (x - x).den
    assert len(shared) > 20


def test_laurent_cancellation_by_hand():
    # (1 + t)/t^2 - 1/t^2 = 1/t: the t-power cancels
    _same(_unreduced((1, 1), (0, 0, 1)) - _unreduced((1,), (0, 0, 1)),
          _unreduced((1,), (0, 1)))
    # 1/(2t) + 1/(2t) = 1/t and (3t/2) * (2/(3t^3)) = 1/t^2: integers cancel
    half = _unreduced((1,), (0, 2))
    _same(half + half, _unreduced((1,), (0, 1)))
    _same(_unreduced((0, 3), (2,)) * _unreduced((2,), (0, 0, 0, 3)),
          _unreduced((1,), (0, 0, 1)))
    # t^-3 * t^5 / 4 + 2 t^2 / 8 = t^2 / 2
    _same(_unreduced((1,), (0, 0, 0, 1)) * _unreduced((0,) * 5 + (1,), (4,))
          + _unreduced((0, 0, 2), (8,)), _unreduced((0, 0, 1), (2,)))


def test_laurent_operands_take_no_polynomial_gcd(monkeypatch):
    rng = random.Random(881)
    pairs = [(_unreduced(*_rand_laurent(rng)), _unreduced(*_rand_laurent(rng)))
             for _ in range(100)]
    # a Laurent value from each construction route is recognised as one:
    # unreduced RatFunc(num, den), inv, -, from_int, arithmetic, qpow and
    # clear_denominators
    values = [x for x, _ in pairs[:8]]
    values += [RatFunc((0,) * rng.randint(0, 3) + (rng.choice((-3, 1, 2)),), den).inv()
               for _, den in (_rand_laurent(rng) for _ in range(6))]
    values += [-x for x in values[:4]] + [RatFunc.from_int(n) for n in (-2, 0, 1, 5)]
    values += [op(x, y) for x, y in pairs[8:12] for op in (operator.add, operator.sub,
                                                        operator.mul, operator.truediv)
               if op is not operator.truediv or len(y.num) == 1]
    values += [qpow(k) for k in (-3, 0, 2)] + [ZERO, ONE]
    delta, cleared = clear_denominators(values[:6])
    values += [delta] + cleared
    calls = []
    real = scalars._pgcd

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(scalars, "_pgcd", spy)
    for x, y in pairs:
        x + y, x - y, x * y
    for x in values:
        for y in values:
            x + y, x - y, x * y
    assert calls == []
    # the spy sees the general route
    parse_ratfunc("1/(q+1)") + parse_ratfunc("1/(q-1)")
    assert calls


def _in_t_power(p, s, k=0):
    """t^k * p(t^s)."""
    out = [0] * (k + (len(p) - 1) * s + 1)
    for i, x in enumerate(p):
        out[k + i * s] = x
    return tuple(out)


def test_pgcd_matches_prs_on_planted_factors(monkeypatch):
    rng = random.Random(1989)
    pairs = []
    for _ in range(200):
        common = _planted(rng)
        pairs.append((_pmul(common, _planted(rng)), _pmul(common, _planted(rng))))
    # polynomials in t^s: (stride of the common factor, of the cofactor of a,
    # of the cofactor of b, power of t in a, power of t in b)
    for sc, sa, sb, ka, kb in [(2, 2, 2, 0, 0), (4, 4, 4, 0, 0), (2, 4, 6, 0, 0),
                               (4, 4, 4, 3, 5), (4, 4, 1, 0, 0)]:
        for _ in range(20):
            common = _in_t_power(_planted(rng), sc)
            pairs.append((_pmul(common, _in_t_power(_planted(rng), sa, ka)),
                          _pmul(common, _in_t_power(_planted(rng), sb, kb))))
    strides = []
    real = scalars._stride

    def spy(a0, b0):
        strides.append(real(a0, b0))
        return strides[-1]

    monkeypatch.setattr(scalars, "_stride", spy)
    for a, b in pairs:
        g, qa, qb = _pgcd(a, b)
        assert g == _prs_gcd(a, b)
        assert _pmul(g, qa) == a and _pmul(g, qb) == b
    assert {1, 2, 4} <= set(strides)


def test_content_is_gcd_of_numerators_over_lcm_of_denominators():
    values = [parse_ratfunc("2*(q+1)^2/(3*q)"), ZERO,
              parse_ratfunc("4*(q+1)*(q-1)/q^2"), parse_ratfunc("8*(q^2+q)^2/(2*q+2)")]
    c = scalars.content(values)
    assert c == parse_ratfunc("2*(q+1)/(3*q^2)")
    assert scalars.content([v / c for v in values]) == ONE
    assert scalars.content([ZERO, ZERO]) == ONE


def test_heu_gcd_retries_then_gives_up(monkeypatch):
    # at the first evaluation point the integer gcd lifts to 2t - 1, which
    # divides neither input; the gcd is t - 2
    a, b = (2, 1, 3, 2, -4, 1), (2, 1, -3, 1)
    assert _heu_gcd(a, b)[0] == _prs_gcd(a, b) == (-2, 1)
    monkeypatch.setattr(scalars, "_HEU_TRIES", 1)
    assert _heu_gcd(a, b) is None
    assert _pgcd(a, b) == ((-2, 1), (-1, -1, -2, -2, 1), (-1, -1, 1))


def test_prs_fallback_gives_the_same_arithmetic(monkeypatch):
    rng = random.Random(4511)
    pairs = [(_rand_canonical(rng), _rand_canonical(rng)) for _ in range(60)]
    fast = [(x + y, x - y, x * y) for x, y in pairs]
    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    for (x, y), want in zip(pairs, fast):
        assert (x + y, x - y, x * y) == want
    common = (1, 0, 2, 0, 1)
    assert _pgcd(_pmul(common, (3, 1)), _pmul(common, (-1, 1)))[0] == common


def _freeness_solutions(monkeypatch):
    seen = []
    real = linalg.solve_with_rank

    def spy(a_rows, b_cols):
        out = real(a_rows, b_cols)
        seen.append((a_rows, b_cols, out))
        return out

    c = CParam.generic(1)
    pres = fodc.build_rform_calculus(1, "id", c, engine=DualEngine(c))
    monkeypatch.setattr(linalg, "solve_with_rank", spy)
    report = fodc.verify_freeness(pres, 2)
    monkeypatch.setattr(linalg, "solve_with_rank", real)
    assert report["pass"] and report["rank"] == report["unknowns"] == 48
    (a_rows, b_cols, (rank, sols)), = seen
    return a_rows, b_cols, sols


def test_n1_freeness_solutions_exact_and_canonical(monkeypatch):
    a_rows, b_cols, sols = _freeness_solutions(monkeypatch)
    for b, x in zip(b_cols, sols):
        for row, rhs in zip(a_rows, b):
            assert sum((u * v for u, v in zip(row, x) if u and v), ZERO) == rhs
        for v in x:
            assert (v.num, v.den) == _prs_fraction(v.num, v.den)
    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    _, _, prs_sols = _freeness_solutions(monkeypatch)
    assert ([[(v.num, v.den) for v in x] for x in prs_sols]
            == [[(v.num, v.den) for v in x] for x in sols])


def test_eval_mod_is_a_ring_map_off_the_vanishing_denominators():
    p, t0 = 2 ** 61 - 1, 1234567891011
    xs = [QHAT.inv(), qint(5) / qint(3), parse_ratfunc("(q^3 - 2)/(7*q + 1)"),
          -RatFunc.from_fraction(Fraction(5, 3)), qpow(-9)]
    for x in xs:
        for y in xs:
            ex, ey = eval_mod(x, t0, p), eval_mod(y, t0, p)
            assert eval_mod(x + y, t0, p) == (ex + ey) % p
            assert eval_mod(x * y, t0, p) == ex * ey % p
    assert eval_mod(QHAT, 1, p) == 0
    assert eval_mod(QHAT.inv(), 1, p) is None      # (q - q^-1)^-1 = t^2/(t^4 - 1)
    assert eval_mod(RatFunc.from_fraction(Fraction(1, p)), t0, p) is None
    assert eval_mod(ZERO, t0, p) == 0


def _horner_mod(x, t0, p):
    """x(t0) in GF(p) by Horner on the exact numerator and denominator, or None."""
    num, den = 0, 0
    for c in reversed(x.den):
        den = den * t0 + c
    if not den % p:
        return None
    for c in reversed(x.num):
        num = num * t0 + c
    return num * pow(den, -1, p) % p


def test_eval_mod_equals_horner_on_seeded_fractions():
    # small primes make denominators vanish at t0; the fractions include
    # monomial denominators m t^k with k >= 1
    rng = random.Random(20261022)
    xs = [_rand_canonical(rng) for _ in range(300)]
    nones = 0
    for x in xs:
        for p in (2, 3, 5, 13, 2 ** 61 - 1):
            for t0 in (0, 1, 2, p - 1, 1234567891011):
                want = _horner_mod(x, t0, p)
                assert eval_mod(x, t0, p) == want, (x, t0, p)
                nones += want is None
    assert nones > 100
    assert sum(len(x.den) > 1 and not any(x.den[:-1]) for x in xs) > 20
