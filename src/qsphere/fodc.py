"""Covariant first-order differential calculi over the quantum sphere.

Quantum tangent spaces are spans of dual-coalgebra vectors containing the
counit, closed under the coproduct (left comodule condition) and under the
right action of the twisted primitive element; the three conditions are
certified exactly.  Calculi themselves are realized on the free right
module over the dual basis of an SL2-subcomodule W of the sphere, with the
left action twisted by the universal r-form; the differential is the
commutator with the canonical invariant one-form.
"""

import itertools

from .algebra import accumulate, tensor_terms
from .scalars import ZERO, ONE, CParam, content, qpow
from . import linalg, oqsl2, podles
from .dualfunc import PsiVector, EPSILON, engine_of


# ---------------------------------------------------------------------------
# quantum tangent spaces

class TangentSpace:
    """Certified tangent space T^eps = C eps + sum of weight components."""

    __slots__ = ("c", "components", "modules", "basis", "dim", "engine", "certificate")

    def __init__(self, c, components, modules, basis, dim, engine, certificate):
        self.c = c
        self.components = components
        self.modules = modules          # the HWModule of each component
        self.basis = basis
        self.dim = dim
        self.engine = engine
        self.certificate = certificate

    def t_basis(self):
        """Basis of T = (T^eps)^+, the vectors killed at 1."""
        return [v - v.value_at_unit() * EPSILON for v in self.basis[1:]]


def _coordinates(vectors):
    """Coordinate rows of PsiVectors over the union of their symbols."""
    symbols = sorted({s for v in vectors for s in v.terms}, key=PsiVector._sort_key)
    index = {s: i for i, s in enumerate(symbols)}
    return [linalg.coordinate_row(v.terms, index) for v in vectors]


def _span_solve(basis, targets):
    """(rank of basis, coefficients of each target over basis or None), one elimination."""
    rows = _coordinates(basis + targets)
    return linalg.solve_with_rank(linalg.transpose(rows[:len(basis)]),
                                  rows[len(basis):])


def _coproduct_legs(engine, basis):
    """[(i, s, v_(i,s))] with Delta v_i = sum_s s (x) v_(i,s)."""
    legs = []
    for i, v in enumerate(basis):
        grouped = {}
        for sym, coeff in v.terms.items():
            for cc, left, right in engine.psi_coproduct(sym):
                accumulate(grouped.setdefault(left, {}), {right: cc}, coeff)
        legs.extend((i, left, PsiVector(terms)) for left, terms in grouped.items())
    return legs


def tangent_space(c: CParam, components, engine=None):
    """Build and certify the tangent space for a list of (sign, l) components.

    The rank of the basis, the coefficients of every right coproduct leg
    and those of every X_c image come from one elimination.  It is kept on
    the engine per component set; each call gets its own lists, modules and
    certificate.
    """
    engine = engine or engine_of(c)
    components = sorted(set(components), key=lambda sl: (sl[1], -sl[0]))
    ts = engine.keep(("tangent space", tuple(components)),
                     lambda: _certified_space(c, components, engine))
    return TangentSpace(c, components, [m.copy() for m in ts.modules], list(ts.basis),
                        ts.dim, engine, dict(ts.certificate))


def _certified_space(c, components, engine):
    modules = [engine.build_module(sign, l)     # ValueError outside J^c
               for sign, l in components]
    basis = [EPSILON]
    for mod in modules:
        if (mod.sign, mod.l) != (+1, 0):        # V_1 is the counit line itself
            basis.extend(mod.basis)
    legs = _coproduct_legs(engine, basis)
    dim, sols = _span_solve(basis, [rv for _, _, rv in legs]
                            + [engine.xc_right_action(v) for v in basis])
    cert = {"dim_matches": dim == len(basis)}

    # coproduct closure: the right legs must stay in the span
    cop_witness = next(((left, str(rv)) for (_, left, rv), coeffs
                        in zip(legs, sols) if coeffs is None), None)
    cert["coproduct_closed"] = cop_ok = cop_witness is None
    if cop_witness:
        cert["coproduct_witness"] = cop_witness

    xc_witness = next((str(v) for v, coeffs in zip(basis, sols[len(legs):])
                       if coeffs is None), None)
    cert["xc_closed"] = xc_ok = xc_witness is None
    if xc_witness:
        cert["xc_witness"] = xc_witness

    cert["pass"] = cert["dim_matches"] and cop_ok and xc_ok
    if not cert["pass"]:
        first = next(k for k in ("dim_matches", "coproduct_closed", "xc_closed")
                     if not cert[k])
        cert["first_failure"] = first
    return TangentSpace(c, components, modules, basis, dim, engine, cert)


def irreducibility_report(ts: TangentSpace):
    """For a single-component space: no proper invariant subspace above C eps.

    Read off the F matrix of the component's module, with no elimination:
    (1) when `dim_matches` holds, the module basis v_k stays a basis of
    T^eps / C eps; (2) phi, varphi and kappa pass to that quotient, since
    they fix the counit line; (3) kappa has the distinct eigenvalues
    q^(4k) lambda0 there (`build_module` asserts them), so an invariant
    subspace is spanned by basis vectors; (4) phi v_k = v_(k+1) and
    varphi v_k = F[k-1, k] v_(k-1); (5) so v_k generates the quotient iff
    F[j-1, j] != 0 for every 1 <= j <= k.  Without `dim_matches` no v_k
    generates it.
    """
    if len(ts.components) != 1:
        raise ValueError("irreducibility certificate is per component")
    n = len(ts.basis) - 1
    if n == 0:
        return {"pass": True, "note": "trivial component"}
    F = ts.modules[0].matF
    first = (next((j for j in range(1, n) if not F[j - 1, j]), n)
             if ts.certificate["dim_matches"] else 0)
    failures = list(range(first, n))
    return {"pass": not failures, "failures": failures}


def pairing_matrix(ts: TangentSpace, W):
    """[chi(w)] for chi in the tangent space basis (counit excluded), w in W."""
    return [[ts.engine.eval_vector(chi, w) for w in W] for chi in ts.t_basis()]


def classify_de_generated(c: CParam, Lmax=6, engine=None):
    """All direct sums of irreducible calculi generated by the d e_i.

    A component of dimension l+1 > 3 can never be separated by the
    3-dimensional span of the generators, so the enumeration is pruned to
    components with l <= 2 and total dimension <= 3; the trivial component
    (+1, 0) carries the zero calculus and is excluded from the counts.
    J^c is scanned to l = max(Lmax, 2), so the enumeration is complete at
    every Lmax; Lmax only widens `pruned_components`.
    `candidates_closed` says whether at least one candidate was enumerated
    and every one passed its tangent-space certificate.
    """
    if Lmax < 0:
        raise ValueError("lmax must be nonnegative, got %d" % Lmax)
    engine = engine or engine_of(c)
    jset = engine.scan_weights(max(Lmax, 2))
    eligible = [sl for sl in jset if sl != (+1, 0) and sl[1] + 1 <= 3]
    pruned = [sl for sl in jset if sl != (+1, 0) and sl[1] + 1 > 3]
    W = engine.alg.generators_e()
    calculi = []
    rejected = []
    closed = bool(eligible)
    for size in range(1, len(eligible) + 1):
        for combo in itertools.combinations(eligible, size):
            dim = sum(l + 1 for _, l in combo)
            if dim > 3:
                continue
            ts = tangent_space(c, combo, engine=engine)
            closed = closed and ts.certificate["pass"]
            rk = linalg.rank(pairing_matrix(ts, W))
            entry = {"components": sorted(combo, key=lambda sl: (sl[1], -sl[0])),
                     "dim": dim, "pairing_rank": rk}
            if rk == dim:
                calculi.append(entry)
            else:
                rejected.append(entry)
    calculi.sort(key=lambda e: (e["dim"], e["components"]))
    return {"calculi": calculi, "rejected": rejected, "pruned_components": pruned,
            "Lmax": Lmax, "count": len(calculi), "candidates_closed": closed}


# ---------------------------------------------------------------------------
# the SL2-subcomodules V(n) of the sphere

def submodule_Vn(n, alg):
    """Basis of the (2n+1)-dimensional submodule of alg: E-orbit of e_1^n."""
    if n < 1:
        raise ValueError("n must be positive")
    basis = [alg.e1() ** n]
    for _ in range(2 * n):
        basis.append(alg.act("E", basis[-1]))
        if basis[-1].is_zero():
            raise AssertionError("E-orbit of e_1^n collapsed early")
    if not alg.act("E", basis[-1]).is_zero():
        raise AssertionError("E-orbit of e_1^n does not close after 2n+1 steps")
    return basis


def submodule_report(pres):
    """V(n) = pres.W_basis has the K-weights q^(2(i-n)) and F keeps its span."""
    n, alg, basis = pres.n, pres.alg, pres.W_basis
    ok_k = all(alg.act("K", b) == qpow(2 * (2 * (i - n))) * b
               for i, b in enumerate(basis))
    # F keeps the span
    idx = {m: i for i, m in enumerate(alg.normal_monomials(2 * n))}
    rk, sols = linalg.solve_with_rank(
        linalg.transpose([linalg.coordinate_row(b.terms, idx) for b in basis]),
        [linalg.coordinate_row(alg.act("F", b).terms, idx) for b in basis])
    ok_f = all(x is not None for x in sols)
    return {"pass": ok_k and ok_f and rk == 2 * n + 1, "K_weights": ok_k,
            "F_closed": ok_f, "rank": rk, "dim": 2 * n + 1, "basis": list(basis)}


# ---------------------------------------------------------------------------
# comodule algebra endomorphisms nu

def nu_is_admissible(kind, c: CParam):
    """Whether nu respects the sphere's relations at c: the flip negates the odd
    words and each rule rewrites a two-letter word, so it is admissible exactly
    when every right side has only even words (at c = infinity)."""
    if kind == "id":
        return True
    if kind != "flip":
        raise ValueError("nu must be 'id' or 'flip'")
    rules = podles.sphere_rules(c.c_value())
    return all(len(word) % 2 == 0 for rhs in rules.values() for _, word in rhs)


def nu_apply(kind, x):
    if kind == "id":
        return x
    out = {}
    for m, v in x.terms.items():
        out[m] = -v if len(m) % 2 else v
    return podles.PodlesElement(x.alg, out)


# ---------------------------------------------------------------------------
# the r-form calculus on W' (x) B

class CalculusPresentation:
    """A free right-module calculus, with the twisted left action and d = [omega, .]."""

    def __init__(self, n, nu, c, alg, W_basis, sinv_psi):
        self.n = n
        self.nu = nu
        self.c = c
        self.alg = alg
        self.W_basis = W_basis
        self.sinv_psi = sinv_psi        # S^-1(psi[i][j]) of the comodule matrix psi
        self.N = len(W_basis)
        self.omega = list(W_basis)      # coords of omega = sum gamma^i b_i
        self._twist_cache = {}
        self._d_cache = {}
        self._bimodule = None           # `bimodule_report`, once it has run
        self._tables = None             # the printed tables of `to_json_dict`

    # Gamma elements are coordinate lists xi = [x_1, ..., x_N] meaning
    # sum_i gamma^i x_i

    def zero(self):
        return [self.alg.element() for _ in range(self.N)]

    def rmult(self, coords, b):
        return [x * b for x in coords]

    def _twist(self, g):
        """T_g[i][j] in B with g . gamma^i = sum_j gamma^j T_g[i][j], for a letter g.

        The twisted rule T_g[i][j] = sum nu(g(0)) r(g(1), S^-1 psi_ij) over
        the coaction of g, one `oqsl2.rform` per SL2 leg (of degree <= 2)
        and entry; kept per letter.
        """
        t = self._twist_cache.get(g)
        if t is not None:
            return t
        N, alg = self.N, self.alg
        t = [[alg.element() for _ in range(N)] for _ in range(N)]
        legs = {}
        for (pm, am), cc in alg.coact(alg.gen(g)).items():
            legs[am] = legs.get(am, alg.element()) + alg.element({pm: cc})
        for am, left in legs.items():
            leg, left = oqsl2.SL2Element({am: ONE}), nu_apply(self.nu, left)
            for i in range(N):
                for j in range(N):
                    r = oqsl2.rform(leg, self.sinv_psi[i][j])
                    if r:
                        t[i][j] = t[i][j] + r * left
        self._twist_cache[g] = t
        return t

    def lmult(self, a, coords):
        """a . (sum_i gamma^i x_i) via the r-form twisted bimodule rule.

        A monomial acts as the composition of its letter operators, the
        last letter first: g . (sum_j gamma^j y_j) = sum_k gamma^k sum_j
        T_g[j][k] y_j.
        """
        out = self.zero()
        for mono, cc in a.terms.items():
            v = coords
            for g in reversed(mono):
                t = self._twist(g)
                v = [sum((t[j][k] * y for j, y in enumerate(v) if y and t[j][k]),
                         self.alg.element()) for k in range(self.N)]
            out = [x + cc * y if y else x for x, y in zip(out, v)]
        return out

    def d(self, x):
        """The differential omega x - x omega, linear in x: d(m) is kept per monomial."""
        out = self.zero()
        for mono, cc in x.terms.items():
            dm = self._d_cache.get(mono)
            if dm is None:
                m = self.alg.element({mono: ONE})
                dm = [u - v for u, v in zip(self.rmult(self.omega, m),
                                            self.lmult(m, self.omega))]
                self._d_cache[mono] = dm
            out = [u + v * cc for u, v in zip(out, dm)]
        return out

    def coords_eq(self, u, v):
        return all(x == y for x, y in zip(u, v))

    def is_zero_coords(self, u):
        """Every coordinate is zero (the benchmark worker checks d(1) = 0 with it)."""
        return all(x.is_zero() for x in u)

    def gamma(self, i):
        """The coordinates of gamma^i."""
        return [self.alg.unit() if k == i else self.alg.element() for k in range(self.N)]

    def _generators(self):
        alg = self.alg
        return {"em1": alg.em1(), "e0": alg.e0(), "e1": alg.e1(), "A": alg.A()}

    def differential_table(self):
        return {name: self.d(x) for name, x in self._generators().items()}

    def left_action_table(self):
        """Row i of a generator's table is its action on gamma^i."""
        return {name: [self.lmult(a, self.gamma(i)) for i in range(self.N)]
                for name, a in self._generators().items()}

    def leibniz_report(self, max_total_degree=4):
        """d(xy) = x d(y) + d(x) y on all monomial pairs up to a degree bound.

        A bound below 2 admits no pair of nonconstant monomials, so it is
        refused rather than passed on an empty check.  No certificate calls
        it; the benchmark worker and the tests do.
        """
        if max_total_degree < 2:
            raise ValueError("the Leibniz check needs a total degree bound >= 2, got %d"
                             % max_total_degree)
        monos = self.alg.normal_monomials(max_total_degree)
        failures = []
        for m1 in monos:
            for m2 in monos:
                if not m1 or not m2 or len(m1) + len(m2) > max_total_degree:
                    continue
                x = self.alg.element({m1: ONE})
                y = self.alg.element({m2: ONE})
                lhs = self.d(x * y)
                rhs = [u + v for u, v in
                       zip(self.lmult(x, self.d(y)), self.rmult(self.d(x), y))]
                if not self.coords_eq(lhs, rhs):
                    failures.append((m1, m2))
        return {"pass": not failures, "failures": failures,
                "bound": max_total_degree}

    def bimodule_report(self):
        """lmult(x y) = lmult(x) lmult(y) on each gamma^i for the four rules x y -> rhs.

        This proves Leibniz in every degree.  `lmult` applies a monomial as
        the composition of its letter operators, so the left action is an
        algebra map B -> End(Gamma_B) exactly when those operators satisfy
        the rules that present B.  Right multiplication commutes with it, so
        Gamma is a bimodule, and d = [omega, .] is inner: d(xy) = omega x y -
        x y omega = d(x) y + x d(y) for all x and y.  The report is kept on
        the calculus; each call gets a copy.
        """
        if self._bimodule is None:
            self._bimodule = self._bimodule_report()
        return dict(self._bimodule, failures=list(self._bimodule["failures"]))

    def _bimodule_report(self):
        failures = []
        for x, y in self.alg.rewriting.rules:
            a, b = self.alg.gen(x), self.alg.gen(y)
            for i in range(self.N):
                gamma = self.gamma(i)
                if not self.coords_eq(self.lmult(a * b, gamma),
                                      self.lmult(a, self.lmult(b, gamma))):
                    failures.append("%s*%s" % (a, b))
                    break
        return {"pass": not failures, "failures": failures}

    def to_json_dict(self):
        """The presentation as JSON; its tables are printed once and kept as strings."""
        if self._tables is None:
            self._tables = (
                {k: [str(x) for x in v] for k, v in self.differential_table().items()},
                {k: [[str(x) for x in row] for row in v]
                 for k, v in self.left_action_table().items()})
        dtable, ltable = self._tables
        sign = -1 if self.nu == "flip" else +1
        return {
            "schema": "qsphere-report/1",
            "kind": "calculus-presentation",
            "n": self.n,
            "nu": self.nu,
            "components": [[sign, 2 * self.n]],
            "dim": self.N,
            "W_basis": [str(b) for b in self.W_basis],
            "omega": [str(b) for b in self.omega],
            "differential_table": {k: list(v) for k, v in dtable.items()},
            "left_action_table": {k: [list(row) for row in v] for k, v in ltable.items()},
        }


def comodule_matrix(alg, W):
    """The matrix psi with Delta_B b_i = sum_j b_j (x) psi[j][i], and S^-1(psi).

    Returns (psi, sinv_psi) with sinv_psi[i][j] = S^-1(psi[i][j]), after
    `check_comodule_matrix` has certified the identities that the r-form
    recursion of `chi_functionals` and the letter twists rest on.
    """
    N = len(W)
    deg = N - 1                         # 2n for W = V(n)
    idx = {m: k for k, m in enumerate(alg.normal_monomials(deg))}
    rows = [linalg.coordinate_row(b.terms, idx) for b in W]
    legs = []                           # (i, SL2 monomial, sphere coefficients)
    for i in range(N):
        by_amono = {}
        for (pm, am), cc in alg.coact(W[i]).items():
            by_amono.setdefault(am, {})[pm] = cc
        legs.extend((i, am, pvec) for am, pvec in by_amono.items())
    _, sols = linalg.solve_with_rank(
        linalg.transpose(rows), [linalg.coordinate_row(pvec, idx) for _, _, pvec in legs])
    psi = [[oqsl2.SL2Element() for _ in range(N)] for _ in range(N)]
    for (i, am, _), coeffs in zip(legs, sols):
        if coeffs is None:
            raise AssertionError("coaction leg leaves the W-span")
        for j in range(N):
            if coeffs[j]:
                psi[j][i] = psi[j][i] + coeffs[j] * oqsl2.SL2Element({am: ONE})
    check_comodule_matrix(alg, W, psi)
    sinv_psi = [[oqsl2.antipode(psi[i][j], inverse=True) for j in range(N)]
                for i in range(N)]
    return psi, sinv_psi


def check_comodule_matrix(alg, W, psi):
    """Raise AssertionError unless psi is the comodule matrix of W in O_q(SL2).

    Checked exactly: Delta(embed b_i) = sum_j embed(b_j) (x) psi_ji (the
    sphere coaction is the SL2 coproduct of the embedding), Delta psi_ij =
    sum_k psi_ik (x) psi_kj (psi is a corepresentation) and eps(psi_ij) =
    delta_ij.
    """
    N = len(W)
    images = [alg.embed(b) for b in W]
    for i in range(N):
        rhs = {}
        for j in range(N):
            accumulate(rhs, tensor_terms(images[j].terms, psi[j][i].terms))
        if oqsl2.coproduct(images[i]) != rhs:
            raise AssertionError("Delta(b_%d) is not sum_j b_j (x) psi_j%d" % (i, i))
    for i in range(N):
        for j in range(N):
            rhs = {}
            for k in range(N):
                accumulate(rhs, tensor_terms(psi[i][k].terms, psi[k][j].terms))
            if oqsl2.coproduct(psi[i][j]) != rhs:
                raise AssertionError("Delta psi_%d%d is not sum_k psi_%dk (x) psi_k%d"
                                     % (i, j, i, j))
            if psi[i][j].counit() != (ONE if i == j else ZERO):
                raise AssertionError("comodule matrix has wrong counit")


def build_rform_calculus(n, nu, c: CParam, engine=None):
    """The free-module calculus on W = V(n) with twist nu.

    It is built once per (n, nu) and kept on the engine of c (by default the
    process's, `dualfunc.engine_of`), so its callers share the letter twists
    and the memoized d; it is stored only after `comodule_matrix`'s checks pass.
    """
    if not nu_is_admissible(nu, c):
        raise ValueError("nu = %r is not a comodule algebra endomorphism at %s"
                         % (nu, c))
    engine = engine or engine_of(c)
    if engine.c != c:
        raise ValueError("an engine for %s cannot build the calculus at %s"
                         % (engine.c, c))

    def build():
        W = submodule_Vn(n, engine.alg)
        _, sinv_psi = comodule_matrix(engine.alg, W)
        return CalculusPresentation(n, nu, c, engine.alg, W, sinv_psi)

    return engine.keep(("calculus", n, nu), build)


# ---------------------------------------------------------------------------
# tangent functionals of the r-form calculus

def _chi_letters(pres):
    """G(g)[i][j] = eps(T_g[j][i]) for the three letters, and R(()) = [eps(b_j)]."""
    alg, N = pres.alg, pres.N
    twists = {g: pres._twist(g) for g in podles.LETTERS}
    return ({g: [[alg.counit(t[j][i]) for j in range(N)] for i in range(N)]
             for g, t in twists.items()}, [alg.counit(b) for b in pres.W_basis])


def _module_letters(engine, basis):
    """M(g) with v_i(g x) = sum_s s(g) v_(i,s)(x) = sum_k M(g)[i][k] v_k(x)."""
    letters = {g: linalg.zeros(len(basis), len(basis)) for g in podles.LETTERS}
    legs = _coproduct_legs(engine, basis)
    _, sols = _span_solve(basis, [rv for _, _, rv in legs])
    for (i, left, _), coeffs in zip(legs, sols):
        if coeffs is None:
            raise AssertionError("a coproduct leg of T^eps leaves T^eps")
        for g in podles.LETTERS:
            value = engine.psi_eval(left, engine.alg.gen(g))
            letters[g][i] = [x + value * a for x, a in zip(letters[g][i], coeffs)]
    return letters


def _walk(letters, values, monos):
    """values[g m'] = letters[g] values[m'], monos shortest first (m' is normal)."""
    for m in monos:
        if m not in values:
            rest = values[m[1:]]
            values[m] = [sum((x * y for x, y in zip(row, rest) if x and y), ZERO)
                         for row in letters[m[0]]]


def chi_functionals(n, nu, c: CParam, engine=None):
    """chi_i(a) = r(nu(a), S^-1(b_i)) - eps(b_i) eps(a), and span{chi_i, eps} = T^eps.

    T^eps = C eps + the module of weight ±q^(-2n).  Bimultiplicativity of r
    and Delta(S^-1 b_i) = sum_j S^-1 psi_ji (x) S^-1 b_j give R(g m') =
    G(g) R(m') for R(m)_i = r(nu(m), S^-1 b_i), with G(g)[i][j] =
    r(nu(g), S^-1 psi_ji) = eps(T_g[j][i]); the legs v(g m') = sum v_(1)(g)
    v_(2)(m') give M(g) on T^eps.  So both sides are closed under f -> f(g .).
    The identification holds in every degree by Schützenberger's equivalence
    test (Inf. Control 4, 1961; Tzeng, SIAM J. Comput. 21, 1992): let K_d be
    the f in span{R_i, eps} + T^eps vanishing on B_{<=d}, the normal
    monomials of degree <= d.  Rewriting rules have right sides of length
    <= 2, so B_{<=d+1} = C1 + sum_g g B_{<=d} and K_{d+1} = {f in K_d :
    f(g .) in K_d for each letter g}.  The walk stops at the first d where
    the rank of [chi; eps; module] (that of [chi; module] plus one: only eps
    is nonzero at 1) is the same on B_{<=d} and B_{<=d+1}.  Then K_d is closed
    under the letters, so it vanishes on B and is zero, and the spans agree
    in every degree iff the ranks on B_{<=d+1} agree.  The rank grows at most
    2N+2 times, so no bound is needed.  Rows and ranks are at stable_degree+1.
    """
    engine = engine or engine_of(c)
    chi_letters, eps_W = _chi_letters(build_rform_calculus(n, nu, c, engine))
    basis = [EPSILON] + engine.build_module(-1 if nu == "flip" else +1, 2 * n).basis
    mod_letters = _module_letters(engine, basis)
    at_unit = [v.value_at_unit() for v in basis]
    chi_values, mod_values, ranks = {(): eps_W}, {(): at_unit}, []
    for d in itertools.count():
        monos = engine.alg.normal_monomials(d)
        _walk(chi_letters, chi_values, monos)
        _walk(mod_letters, mod_values, monos)
        eps_m = [mod_values[m][0] for m in monos]           # basis[0] is eps
        chi_rows = [[chi_values[m][i] - e_b * e for m, e in zip(monos, eps_m)]
                    for i, e_b in enumerate(eps_W)]
        mod_rows = [[mod_values[m][k] - v_1 * e for m, e in zip(monos, eps_m)]
                    for k, v_1 in enumerate(at_unit) if k]
        ranks.append(linalg.rank(chi_rows + mod_rows))
        if d and ranks[-1] == ranks[-2]:
            break
    r_chi, r_mod = linalg.rank(chi_rows), linalg.rank(mod_rows)
    return {"chi_rows": chi_rows, "module_rows": mod_rows, "monomials": monos,
            "rank_chi": r_chi, "rank_module": r_mod, "rank_joint": ranks[-1],
            "spans_equal": r_chi == r_mod == ranks[-1] == 2 * n + 1,
            "stable_degree": d - 1}


def chibar_report(n, c: CParam, engine=None):
    """chibar(a) = eps(e1)^-n r(a, S^-1(e1^n)) is the character psi^0_{q^(-4n)}.

    chibar = R_0 / eps(b_0) for the id calculus, b_0 = e1^n.  If row 0 of each
    G(g) is supported on column 0, R_0(g x) = G(g)[0][0] R_0(x) for all x, so
    chibar is the character with chibar(g) = G(g)[0][0].  psi^0_lam is a
    character too, and characters that agree on the letters m, A, p are equal.
    """
    engine = engine or engine_of(c)
    alg = engine.alg
    letters, _ = _chi_letters(build_rform_calculus(n, "id", c, engine))
    char_ok = not any(x for g in podles.LETTERS for x in letters[g][0][1:])
    value = {g: letters[g][0][0] for g in podles.LETTERS}
    psi_ok = all(value[g] == engine.psi_eval((0, 0, qpow(-4 * n)), alg.gen(g))
                 for g in podles.LETTERS)
    gen_ok = all(alg.character(value, e) == qpow(-4 * n * i) * alg.counit(e)
                 for i, e in ((-1, alg.em1()), (0, alg.e0()), (1, alg.e1())))
    return {"pass": gen_ok and psi_ok and char_ok, "generators": gen_ok,
            "equals_psi": psi_ok, "is_character": char_ok}


# ---------------------------------------------------------------------------
# freeness

def verify_freeness(pres: CalculusPresentation, degree=2, coeff_degree=None):
    """d(W-basis) generates freely, with unique expansions, up to a degree bound.

    Uniqueness: no nonzero right combination of the d(b_i) with coefficients
    of degree <= coeff_degree vanishes.  Generation: every d(monomial) up to
    `degree` expands in such combinations.  Coefficients may need higher
    degree than the monomial itself, so coeff_degree defaults to degree + 1.

    Each d(b_i) is divided by its content (`scalars.content` of its
    coordinates) before the columns d(b_i)·m are built; a zero d(b_i) stays
    zero.  The E-orbit basis carries q-integer products, so every column of
    d(b_i) shares that factor, and the elimination would carry it along.
    Scaling a column by a nonzero element of Q(t) changes neither the column
    rank nor the span of the columns, so `rank`, `unique_expansion` and
    `ungenerated` are those of the undivided system.

    The system is solved by `linalg.solve_with_rank`, exactly on every
    path; why a full column rank at t0 mod P and a check of the rows outside
    a square minor suffice is set out in `linalg._solve`.

    A degree below 1 has no nonconstant monomial to generate, and a
    coefficient degree below 0 no coefficient, so both are refused rather
    than passed on an empty check.
    """
    if degree < 1:
        raise ValueError("the freeness check needs a degree bound >= 1, got %d" % degree)
    if coeff_degree is None:
        coeff_degree = degree + 1
    if coeff_degree < 0:
        raise ValueError("the freeness check needs a coefficient degree >= 0, got %d"
                         % coeff_degree)
    alg = pres.alg
    N = pres.N
    d_basis = []
    for b in pres.W_basis:
        coords = pres.d(b)
        c = content([v for x in coords for v in x.terms.values()])
        d_basis.append([x / c for x in coords])
    inner_deg = max(x.degree() for co in d_basis for x in co)
    big_deg = inner_deg + coeff_degree
    small = alg.normal_monomials(coeff_degree)
    big = alg.normal_monomials(big_deg)
    big_idx = {m: i for i, m in enumerate(big)}

    def gamma_vec(coords):
        return [v for x in coords for v in linalg.coordinate_row(x.terms, big_idx)]

    columns = []
    for i in range(N):
        for m in small:
            columns.append(gamma_vec(pres.rmult(d_basis[i], alg.element({m: ONE}))))
    targets = []
    target_monos = [m for m in alg.normal_monomials(degree) if m]
    for m in target_monos:
        targets.append(gamma_vec(pres.d(alg.element({m: ONE}))))

    matrix_rows = linalg.transpose(columns)
    col_rank, sols = linalg.solve_with_rank(matrix_rows, targets)
    unique = col_rank == len(columns)
    failures = [m for m, s in zip(target_monos, sols) if s is None]
    return {"pass": unique and not failures, "unique_expansion": unique,
            "ungenerated": failures, "degree": degree, "coeff_degree": coeff_degree,
            "unknowns": len(columns), "rank": col_rank}


# ---------------------------------------------------------------------------
# serialization helpers

def tangent_space_json(ts: TangentSpace):
    cert = dict(ts.certificate)
    if "coproduct_witness" in cert:     # the left symbol as text, like the leg
        left, right = cert["coproduct_witness"]
        cert["coproduct_witness"] = [str(PsiVector({left: ONE})), right]
    return {
        "schema": "qsphere-report/1",
        "kind": "tangent-space",
        "components": [list(sl) for sl in ts.components],
        "dim_Teps": ts.dim,
        "dim_calculus": ts.dim - 1,
        "certificate": cert,
    }
