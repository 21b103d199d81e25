"""Dual-coalgebra functionals on the quantum sphere.

A symbol (m, l, lam) stands for the restriction to the sphere of
f_mu g^m E^l where mu^2 = lam; the classification span uses m = 0 only
(written psi^l_lam).  Evaluation needs no square root of lam: f_mu(u_ij)
= delta_ij mu^(±1), so on an O_q(SL2) monomial of length n the value lies
in Q(t) mu^(n mod 2), and the sphere embeds into even lengths (the spin-1
coefficients have degree 2 and the rewriting rules keep the parity of
the length).  An embedded element with an odd-length monomial raises
ArithmeticError.  Every engine evaluates with the one `oqsl2.EVALUATOR`.

The raising/lowering/weight operators phi, varphi, kappa act on m = 0
symbols by

  phi(psi^l_lam)    = -(q^l [l]/(q-q^-1)) psi^(l-1)_{q^2 lam}
                      + alpha q (q^(2l) - lam) psi^l_{q^2 lam}
                      + q^2 (q^(2l) - lam^2) psi^(l+1)_{q^2 lam}
  varphi(psi^l_lam) = lam^-1 (q^(1-l) [l]/(q-q^-1)) psi^(l-1)_{q^-2 lam}
  kappa(psi^l_lam)  = lam psi^l_lam

and the right action of the twisted primitive element decomposes as
psi X_c = q^-1 phi(psi) + lam varphi(psi) + alpha (1 - lam^-1) kappa(psi).
Each engine keeps these coefficients in one table, filled per (l, lam)
when phi or varphi is applied; the weight scan reads phi's coefficients
at t0 mod P from rows built by the same formula where it meets them.

The weight scan proves a weight (±, l) outside J^c by a nonzero value of
phi^(l+1) psi^0_{±q^(-l)} at t = t0 = 1234567891011 over GF(P), P = 2^61 - 1.
Evaluation at t0 mod P is a ring map on the fractions of Q(t) whose
denominators do not vanish there, and the orbit uses only + and x, so a
nonzero value there is the image of a nonzero exact coordinate.  When the
value is zero, or some coefficient met has a denominator vanishing at t0,
the orbit is computed exactly in Q(t); members of J^c always take that
path, and their exact orbit is the module basis.

A process keeps one engine per c, from `engine_of`, for as long as it runs.
An engine stores an entry only after its cross-checks pass: a weight verdict
after both routes agree, and through `keep` a module after the U_q(sl2)
relations, a tangent space, and a calculus after `comodule_matrix`'s checks.
"""

from .scalars import (ZERO, ONE, Q, QINV, QHAT, RatFunc, CParam,
                      eval_mod, qint, qbinom, qpow)
from .scalars import MOD_P as _P, MOD_T0 as _T0  # proves a weight outside J^c
from . import linalg, oqsl2, podles, uqsl2rep
from .algebra import LinComb, accumulate
from .linalg import Matrix


class PsiVector(LinComb):
    """Linear combination of dual-coalgebra symbols (m, l, lam)."""

    __slots__ = ()

    UNIT = None

    @staticmethod
    def symbol(l, lam, m=0, coeff=ONE):
        lam = RatFunc.coerce(lam)
        if lam is None or lam.is_zero():
            raise ValueError("psi symbols need a nonzero lambda subscript")
        return PsiVector({(m, l, lam): coeff})

    def value_at_unit(self):
        """Evaluation on 1: only the (0, 0, lam) symbols contribute."""
        return self.coeff_sum(lambda sym: sym[0] == 0 and sym[1] == 0)

    def _mono_str(self, sym):
        m, l, lam = sym
        return "psi^%d_(%s)" % (l, lam) if m == 0 else "psi^{%d,%d}_(%s)" % (m, l, lam)

    @staticmethod
    def _sort_key(sym):
        return (sym[0], sym[1], sym[2].sort_key())


EPSILON = PsiVector.symbol(0, ONE)      # psi^0_1 is the counit
_ENGINES = {}                           # c.key() -> the DualEngine of c, see engine_of


def _phi_coefficients(a_l, alpha_q, q2, q2l, lam):
    """The coefficients of psi^(l-1), psi^l, psi^(l+1) in phi(psi^l_lam).

    Applied to RatFuncs (q2 = q^2, q2l = q^(2l)) for the exact row, and to
    their values at _T0 mod _P, to be reduced by the caller, for the
    modular one.
    """
    return a_l, alpha_q * (q2l - lam), q2 * (q2l - lam * lam)


def _lambda0(sign, l):
    """The highest weight subscript ±q^(-l) of the module at (sign, l)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    return qpow(-2 * l) if sign == +1 else -qpow(-2 * l)


def _require_m0(v):
    for (m, _, _) in v.terms:
        if m:
            raise ValueError("operator engine only acts on m = 0 symbols")


class HWModule:
    """A highest weight module: the phi-orbit of psi^0_{±q^(-l)}."""

    __slots__ = ("sign", "l", "lambda0", "basis", "matE", "matF", "matK")

    def __init__(self, sign, l, lambda0, basis, matE, matF, matK):
        self.sign = sign
        self.l = l
        self.lambda0 = lambda0
        self.basis = basis
        self.matE = matE
        self.matF = matF
        self.matK = matK

    def copy(self):
        """The same module, its basis and matrices in containers of its own."""
        return HWModule(self.sign, self.l, self.lambda0, list(self.basis),
                        *(Matrix(m.terms) for m in (self.matE, self.matF, self.matK)))


class DualEngine:
    """Operator and evaluation engine over a fixed admissible parameter c."""

    def __init__(self, c: CParam):
        self.c = c
        self.alpha = uqsl2rep.xc_alpha(c)
        self._alpha_q = self.alpha * Q
        self._alpha_q_mod = eval_mod(self._alpha_q, _T0, _P)
        self.alg = podles.PodlesAlgebra(c)
        self._orbits = {}               # (sign, l) -> phi-orbit or None
        self._table = {}                # l -> `_per_l`; (l, lam) -> `_constants` row
        self._kept = {}                 # key -> a certified result, see `keep`

    def keep(self, key, build):
        """The result kept under key, else build()'s, kept only if build() returns."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    # -- the three operators, read off one table of structure constants

    def _per_l(self, l):
        """a_l = -q^l [l]/(q-q^-1), q^(1-l) [l]/(q-q^-1) and a_l at _T0 mod _P."""
        per_l = self._table.get(l)
        if per_l is None:
            hat = qint(l) / QHAT
            a_l = -qpow(2 * l) * hat
            per_l = self._table[l] = (a_l, qpow(2 * (1 - l)) * hat,
                                      eval_mod(a_l, _T0, _P))
        return per_l

    def _constants(self, l, lam):
        """phi and varphi of psi^l_lam as {symbol: coefficient} dicts.

        The symbols are at the grades q^2 lam and q^-2 lam; only nonzero
        coefficients are kept.
        """
        row = self._table.get((l, lam))
        if row is None:
            a_l, lower, _ = self._per_l(l)
            grade = qpow(4) * lam
            coeffs = _phi_coefficients(a_l, self._alpha_q, qpow(4), qpow(4 * l), lam)
            phi = {(0, k, grade): x for k, x in enumerate(coeffs, l - 1) if x}
            varphi = {(0, l - 1, qpow(-4) * lam): lam.inv() * lower} if lower else {}
            row = self._table[(l, lam)] = (phi, varphi)
        return row

    def _mod_row(self, l, lam):
        """The phi row of psi^l_lam at _T0 mod _P: [(l', coefficient)], or None.

        It has a term exactly where the exact row has one: a_0 = 0, the
        psi^l coefficient vanishes when alpha = 0 or lam = q^(2l), and the
        psi^(l+1) coefficient when lam^2 = q^(2l).  Its values come from the
        same `_phi_coefficients`, applied to a_l, alpha q, q^2, q^(2l) and
        lam at _T0; None when one of them has no value there.
        """
        a_l, _, a_mod = self._per_l(l)
        lam_mod = eval_mod(lam, _T0, _P)
        if None in (a_mod, self._alpha_q_mod, lam_mod):
            return None
        q2l = qpow(4 * l)
        coeffs = _phi_coefficients(a_mod, self._alpha_q_mod, pow(_T0, 4, _P),
                                   pow(_T0, 4 * l, _P), lam_mod)
        nonzero = (bool(a_l), bool(self.alpha) and lam != q2l, lam * lam != q2l)
        return [(k, x % _P) for k, (x, nz) in enumerate(zip(coeffs, nonzero), l - 1) if nz]

    def phi(self, v):
        _require_m0(v)
        out = {}
        for (_, l, lam), coeff in v.terms.items():
            accumulate(out, self._constants(l, lam)[0], coeff)
        return PsiVector(out)

    def varphi(self, v):
        _require_m0(v)
        out = {}
        for (_, l, lam), coeff in v.terms.items():
            accumulate(out, self._constants(l, lam)[1], coeff)
        return PsiVector(out)

    def kappa(self, v, power=1):
        _require_m0(v)
        return PsiVector({sym: coeff * sym[2] ** power for sym, coeff in v.terms.items()})

    def xc_right_action(self, v):
        """The right action of X_c: q^-1 phi(v) + varphi(kappa(v)) + alpha (kappa(v) - v)."""
        kv = self.kappa(v)
        return QINV * self.phi(v) + self.varphi(kv) + self.alpha * (kv - v)

    # -- coalgebra structure on symbols

    def psi_coproduct(self, sym):
        """List of (coeff, left symbol, right symbol) for Delta psi^l_lam."""
        m, l, lam = sym
        if m:
            raise ValueError("coproduct implemented for m = 0 symbols")
        out = []
        for r in range(l + 1):
            coeff = qbinom(l, r) * qpow(-2 * r * (l - r))
            out.append((coeff, (0, r, lam), (0, l - r, qpow(-4 * r) * lam)))
        return out

    # -- evaluation against the sphere

    def psi_eval(self, sym, x):
        """Value of psi^{m,l}_lam on a sphere element, exactly in Q(t).

        Raises ArithmeticError if the embedded element has an odd-length
        monomial, where the value would be a Q(t) multiple of mu.
        """
        m, l, lam = sym
        letters = (("fs", lam),) + (("g",),) * m + (("E",),) * l
        return oqsl2.EVALUATOR.eval(letters, self.alg.embed(x))

    def eval_vector(self, v, x):
        out = ZERO
        for sym, coeff in v.terms.items():
            out = out + coeff * self.psi_eval(sym, x)
        return out

    # -- highest weight scan (Prop. on local finiteness, both routes)

    def is_nilpotent_weight(self, sign, l):
        """phi^(l+1) kills psi^0_{lambda0}; cross-checked against the matrix kernel.

        First phi^(l+1) psi is computed at t = _T0 over GF(_P), from the
        rows of `_mod_row`.  Evaluation at _T0 mod _P is a ring map on the
        fractions whose denominators do not vanish there, and the orbit
        uses only + and x, so a nonzero coordinate proves
        phi^(l+1) psi != 0: the weight is outside J^c.  Otherwise (a zero
        value, or a denominator vanishing at _T0) the phi-orbit psi, phi psi,
        ... up to its first zero is computed exactly with `phi`.  The orbit
        is kept once per (sign, l) as the basis that `build_module` reads
        (None when phi^(l+1) psi != 0).
        """
        key = (sign, l)
        if key not in self._orbits:
            lam0 = _lambda0(sign, l)
            orbit = None
            if not self._nonzero_mod_p(lam0, l):
                orbit = [PsiVector.symbol(0, lam0)]
                for _ in range(l + 1):
                    v = self.phi(orbit[-1])
                    if v.is_zero():
                        break
                    orbit.append(v)
                else:
                    orbit = None
            if (orbit is not None) != (uqsl2rep.kernel_dim(l, self.c, sign) > 0):
                raise AssertionError(
                    "operator and matrix routes disagree at sign=%+d l=%d" % (sign, l))
            self._orbits[key] = orbit
        return self._orbits[key] is not None

    def _nonzero_mod_p(self, lam0, l):
        """phi^(l+1) psi^0_lam0 has a nonzero coordinate at _T0 mod _P.

        False when it vanishes there, or when some coefficient met on the
        way has a denominator vanishing at _T0.  A coordinate that is 0 mod
        _P is kept: its exact value may be nonzero, and the exact orbit
        multiplies it by the coefficients of its row, which must evaluate
        too ((q^2 - 1) a_1 = -q^2 is -1 at t = 1, where a_1 = -q^2/(q^2 - 1)
        has no value).
        """
        vec, lam = {0: 1}, lam0
        for _ in range(l + 1):
            out = {}
            for k, x in vec.items():
                mod = self._mod_row(k, lam)
                if mod is None:
                    return False
                for k2, y in mod:
                    out[k2] = (out.get(k2, 0) + x * y) % _P
            vec = out
            lam = qpow(4) * lam
        return any(vec.values())

    def scan_weights(self, Lmax):
        """The (sign, l) in J^c with l <= Lmax; a negative Lmax would scan nothing."""
        if Lmax < 0:
            raise ValueError("lmax must be nonnegative, got %d" % Lmax)
        return [(sign, l) for l in range(Lmax + 1) for sign in (+1, -1)
                if self.is_nilpotent_weight(sign, l)]

    def build_module(self, sign, l):
        """The (l+1)-dimensional module on the phi-orbit of psi^0_{±q^(-l)}.

        It is kept per (sign, l); each call gets a copy.
        """
        return self.keep(("module", sign, l), lambda: self._build_module(sign, l)).copy()

    def _build_module(self, sign, l):
        """The module on the kept orbit, psi^k = phi^k psi^0_lam0 for k <= l.

        By `_constants`, phi raises a grade by q^2 and varphi lowers it by
        q^2, so psi^k has the single grade q^(2k) lam0, which is K's
        eigenvalue on it; varphi kills psi^0 since [0] = 0.  F is read off
        varphi(psi^k), which must be a multiple of psi^(k-1).
        """
        if not self.is_nilpotent_weight(sign, l):
            raise ValueError("(%+d, %d) is not in J^c" % (sign, l))
        basis = list(self._orbits[(sign, l)])
        if len(basis) <= l:
            raise AssertionError("phi-orbit collapsed early")
        lam0 = _lambda0(sign, l)
        matE = Matrix({(k + 1, k): ONE for k in range(l)})
        matK = Matrix({(k, k): qpow(4 * k) * lam0 for k in range(l + 1)})
        entriesF = {}
        for k in range(1, l + 1):
            fv = self.varphi(basis[k])
            prev = basis[k - 1]
            sym = next(iter(prev.terms))
            ck = fv.terms.get(sym, ZERO) / prev.terms[sym]
            if fv != ck * prev:
                raise AssertionError("varphi does not stay on the orbit line")
            entriesF[(k - 1, k)] = ck
        matF = Matrix(entriesF)
        # E is the unit shift, so it is nilpotent of order l+1 by construction
        failures = uqsl2rep.relation_failures(matE, matF, matK)
        if failures:
            raise AssertionError("module fails %s" % ", ".join(failures))
        return HWModule(sign, l, lam0, basis, matE, matF, matK)

    # -- the phi-matrix route to the displayed tridiagonal matrix

    def phi_matrix_rescaled(self, sign, l):
        """Matrix of phi from span{psi^k_{q^(2l) lam0}} in the rescaled bases.

        The rescaling is psi-bar^k = (-(q-q^-1))^k q^(-(l-k)(l-k+1)/2) psi^k;
        the result should reproduce the displayed tridiagonal matrix.
        """
        mu = qpow(4 * l) * _lambda0(sign, l)
        n = l + 1
        cols = []
        target_syms = [(0, k, qpow(4) * mu) for k in range(n)]
        for k in range(n):
            img = self.phi(PsiVector.symbol(k, mu))
            col = []
            for sym in target_syms:
                col.append(img.terms.get(sym, ZERO))
            leftover = set(img.terms) - set(target_syms)
            if leftover:
                raise AssertionError("phi image leaves the expected span")
            cols.append(col)
        m = [[cols[j][i] for j in range(n)] for i in range(n)]
        scal = [(-QHAT) ** k * qpow(-(l - k) * (l - k + 1)) for k in range(n)]
        out = linalg.zeros(n, n)
        for i in range(n):
            for j in range(n):
                out[i][j] = scal[i].inv() * m[i][j] * scal[j]
        return out

    # -- truncated independence (dual coalgebra basis at desk scale)

    def truncated_independence(self, degree=4):
        """Evaluation rows of {psi^{ml}_lam} against monomials up to `degree`.

        The symbol set {m + l <= 2, lam in {1, q^2, q^4}} has 18 members,
        which exceeds the 16 monomials of degree <= 3, so the default
        evaluation degree is 4 (25 monomials).
        """
        monos = self.alg.normal_monomials(degree)
        rows = []
        labels = []
        for lam in (ONE, qpow(4), qpow(8)):
            for m in range(3):
                for l in range(3 - m):
                    labels.append((m, l, lam))
                    rows.append([self.psi_eval((m, l, lam),
                                               self.alg.element({mono: ONE}))
                                 for mono in monos])
        r = linalg.rank(rows)
        return {"rank": r, "rows": len(rows), "monomials": len(monos),
                "full_row_rank": r == len(rows), "degree": degree,
                "labels": labels}


def engine_of(c: CParam):
    """The DualEngine of c, built on first use and kept as long as the process."""
    if c.key() not in _ENGINES:
        _ENGINES[c.key()] = DualEngine(c)
    return _ENGINES[c.key()]
