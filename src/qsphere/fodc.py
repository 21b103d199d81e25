"""Covariant first-order differential calculi over the quantum sphere.

Quantum tangent spaces are spans of dual-coalgebra vectors containing the
counit, closed under the coproduct (left comodule condition) and under the
right action of the twisted primitive element; the three conditions are
certified exactly.  Calculi themselves are realized on the free right
module Gamma = sum_i gamma^i B over the dual basis of an SL2-subcomodule W
of the sphere B, held as columns over B.  The left action is twisted by
the universal r-form: a letter g acts by its letter matrix M_g in M_N(B),
a `linalg.Matrix` with sphere entries, and a monomial by the product of
its letter matrices.  The differential is the commutator with the
canonical invariant one-form omega.  So Leibniz holds in every degree
once the letter matrices satisfy the sphere's four rules, which
`algebra.rule_failures` checks as it checks every representation of B.
"""

import itertools

from .algebra import accumulate, rule_failures
from .scalars import ONE, CParam, content, qpow
from . import linalg, oqsl2, podles
from .linalg import Matrix
from .dualfunc import PsiVector, EPSILON, engine_of


# ---------------------------------------------------------------------------
# quantum tangent spaces

class TangentSpace:
    """Certified tangent space T^eps = C eps + sum of weight components.

    L is its coproduct matrix, Delta basis[i] = sum_k L[i, k] (x) basis[k],
    with PsiVector entries; a leg outside the span is left out of L and
    fails `coproduct_closed`.
    """

    __slots__ = ("c", "components", "modules", "basis", "dim", "engine", "certificate", "L")

    def __init__(self, c, components, modules, basis, dim, engine, certificate, L):
        self.c = c
        self.components = components
        self.modules = modules          # the HWModule of each component
        self.basis = basis
        self.dim = dim
        self.engine = engine
        self.certificate = certificate
        self.L = L

    def t_basis(self):
        """Basis of T = (T^eps)^+, the vectors killed at 1."""
        return [v - v.value_at_unit() * EPSILON for v in self.basis[1:]]


def _coordinates(vectors):
    """Coordinate rows of vectors of one type over the union of their terms."""
    symbols = sorted({s for v in vectors for s in v.terms}, key=type(vectors[0])._sort_key)
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

    It is kept on the engine per component set (`_certified_space`); each
    call gets its own lists, modules, certificate and L.
    """
    engine = engine or engine_of(c)
    components = sorted(set(components), key=lambda sl: (sl[1], -sl[0]))
    ts = engine.keep(("tangent space", tuple(components)),
                     lambda: _certified_space(c, components, engine))
    return TangentSpace(c, components, [m.copy() for m in ts.modules], list(ts.basis),
                        ts.dim, engine, dict(ts.certificate), Matrix(ts.L.terms))


def _certified_space(c, components, engine):
    """T^eps of the components, certified.

    A sum of components is read off their own kept tangent spaces when
    every one passes and one `linalg.rank` proves the union basis
    independent (`_sum_of_components`).  Otherwise the rank of the basis,
    the coefficients of every right coproduct leg (the matrix L) and those
    of every X_c image come from one elimination.
    """
    modules = [engine.build_module(sign, l)     # ValueError outside J^c
               for sign, l in components]
    if len(components) > 1:
        ts = _sum_of_components(c, components, modules, engine)
        if ts is not None:
            return ts
    basis = [EPSILON]
    for mod in modules:
        if (mod.sign, mod.l) != (+1, 0):        # V_1 is the counit line itself
            basis.extend(mod.basis)
    legs = _coproduct_legs(engine, basis)
    dim, sols = _span_solve(basis, [rv for _, _, rv in legs]
                            + [engine.xc_right_action(v) for v in basis])
    cert = {"dim_matches": dim == len(basis)}
    L = {}
    for (i, left, _), coeffs in zip(legs, sols):
        if coeffs is not None:
            accumulate(L, {(i, k): PsiVector({left: a}) for k, a in enumerate(coeffs) if a})

    # coproduct closure: the right legs must stay in the span
    cop_witness = next(((str(PsiVector({left: ONE})), str(rv)) for (_, left, rv), coeffs
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
    return TangentSpace(c, components, modules, basis, dim, engine, cert, Matrix(L))


def _sum_of_components(c, components, modules, engine):
    """The certified sum of the components' kept tangent spaces, or None.

    None when a component fails its certificate or the union basis is
    dependent; the union solve then finds the failure and its witness.
    Otherwise the union solve would give the same dim, certificate, basis
    and L: every coproduct leg and X_c image of a component vector lies in
    span(eps, that component), inside the union span, so both closures
    hold; the union basis is independent, so a leg's coordinates over it
    are unique, and they are its coordinates over the component, so L is
    the components' L re-indexed (row 0, eps, is the same in each).
    """
    parts = [tangent_space(c, [sl], engine) for sl in components]
    if not all(ts.certificate["pass"] for ts in parts):
        return None
    basis, L = [EPSILON], {}
    for ts in parts:
        index = [0] + list(range(len(basis), len(basis) + len(ts.basis) - 1))
        basis.extend(ts.basis[1:])
        L.update(((index[i], index[k]), v) for (i, k), v in ts.L.terms.items())
    if linalg.rank(_coordinates(basis)) < len(basis):
        return None
    cert = {"dim_matches": True, "coproduct_closed": True, "xc_closed": True, "pass": True}
    return TangentSpace(c, components, modules, basis, len(basis), engine, cert, Matrix(L))


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
    """V(n) = pres.W_basis: the K-weights q^(2(i-n)), checked here.

    The rest was proven when the calculus was built.  `comodule_matrix`
    solved Delta_B b_i = sum_j b_j (x) psi_ji with rank 2n+1, so W is
    independent and a subcomodule.  The left action X |> b = b(0) X(b(1))
    (`PodlesAlgebra.act`) then gives F |> b_i = sum_j b_j F(psi_ji), and the
    same for E and K: W is a (2n+1)-dimensional U_q(sl2)-module.  Its
    K-weights are q^(-2n), ..., q^(2n), each once, so its vector of weight
    q^(2n) is a highest weight vector whose module, V(n), is all of W.
    """
    n, alg, basis = pres.n, pres.alg, pres.W_basis
    ok = all(alg.act("K", b) == qpow(2 * (2 * (i - n))) * b for i, b in enumerate(basis))
    return {"pass": ok, "K_weights": ok, "dim": 2 * n + 1, "basis": list(basis)}


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

def _column(values):
    """The list [x_0, ..., x_(n-1)] as the n x 1 Matrix {(i, 0): x_i}."""
    return Matrix({(i, 0): x for i, x in enumerate(values)})


class CalculusPresentation:
    """A free right-module calculus, with the twisted left action and d = [omega, .].

    Gamma is held as columns over B: the list [x_1, ..., x_N] is sum_i
    gamma^i x_i.  A letter g acts by its letter matrix M_g in M_N(B), a
    monomial by the product of its letter matrices; right multiplication
    acts on the entries from the right and commutes with that.
    """

    def __init__(self, n, nu, c, alg, W_basis, sinv_psi):
        self.n = n
        self.nu = nu
        self.c = c
        self.alg = alg
        self.W_basis = W_basis
        self.sinv_psi = sinv_psi        # the Matrix S^-1(psi) of the comodule matrix psi
        self.N = len(W_basis)
        self.omega = list(W_basis)      # coords of omega = sum gamma^i b_i
        self._twist_cache = {}
        self._d_cache = {}
        self._omega_cache = {(): _column(self.omega)}   # normal m -> M_m omega, a column
        self._bimodule = None           # `bimodule_report`, once it has run
        self._tables = None             # the printed tables of `to_json_dict`

    def rmult(self, coords, b):
        return [x * b for x in coords]

    def _twist(self, g):
        """The letter matrix M_g, with g . gamma^j = sum_k gamma^k M_g[k, j].

        The twisted rule M_g[k, j] = sum nu(g(0)) r(g(1), S^-1 psi_jk) over
        the coaction of g, one `oqsl2.rform` per SL2 leg (of degree <= 2)
        and nonzero entry of S^-1(psi); kept per letter.
        """
        m = self._twist_cache.get(g)
        if m is not None:
            return m
        alg, terms = self.alg, {}
        for am, left in alg.coact(alg.gen(g)).terms.items():
            leg, left = oqsl2.SL2Element({am: ONE}), nu_apply(self.nu, left)
            for (j, k), x in self.sinv_psi.terms.items():
                r = oqsl2.rform(leg, x)
                if r:
                    accumulate(terms, {(k, j): left}, r)
        m = self._twist_cache[g] = Matrix(terms)
        return m

    def _word(self, word, m):
        """M_w1 ... M_wk m for the Matrix m, the last letter applied first."""
        for g in reversed(word):
            m = self._twist(g) * m
        return m

    def _act(self, a, m):
        """The image of a in M_N(B) times the Matrix m, one `_word` per monomial."""
        out = Matrix()
        for mono, cc in a.terms.items():
            out = out + cc * self._word(mono, m)
        return out

    def lmult(self, a, coords):
        """a . (sum_i gamma^i x_i): each monomial of a is the product of its
        letter matrices, applied to the coordinate column."""
        col = self._act(a, _column(coords))
        return [self._entry(col, k, 0) for k in range(len(coords))]

    def _entry(self, m, i, j):
        """m[i, j] as a sphere element (an absent entry reads as the scalar ZERO)."""
        return m.terms.get((i, j)) or self.alg.element()

    def d(self, x):
        """The differential omega x - x omega, linear in x: d(m) is kept per monomial.

        For a normal monomial m, d(m) = omega m - M_m omega.  The normal
        monomials are walked by their suffixes: for m = g m' (m' is normal),
        M_m omega = M_g (M_(m') omega) is one letter-matrix product from the
        kept column of m' (`_acted_omega`), and M_() omega = omega.
        """
        return [self.alg.element(terms) for terms in self._d_terms(x.terms)]

    def _d_terms(self, terms):
        """The coordinates of d(sum c m) as terms dicts, each c d(m) added into one dict."""
        out = [{} for _ in range(self.N)]
        for mono, cc in terms.items():
            for coord, v in zip(out, self._d_mono(mono)):
                accumulate(coord, v.terms, cc)
        return out

    def _d_mono(self, mono):
        """d(m) = omega m - M_m omega for a normal monomial m (see `d`)."""
        dm = self._d_cache.get(mono)
        if dm is None:
            acted = self._acted_omega(mono)
            dm = self._d_cache[mono] = [
                u - self._entry(acted, k, 0)
                for k, u in enumerate(self.rmult(self.omega, self.alg.element({mono: ONE})))]
        return dm

    def _acted_omega(self, mono):
        """M_m omega for a normal monomial m, kept: M_(g m') omega = M_g (M_(m') omega)."""
        acted = self._omega_cache.get(mono)
        if acted is None:
            acted = self._omega_cache[mono] = self._twist(mono[0]) * self._acted_omega(mono[1:])
        return acted

    def is_zero_coords(self, u):
        """Every coordinate is zero (the benchmark worker checks d(1) = 0 with it)."""
        return all(x.is_zero() for x in u)

    def _generators(self):
        alg = self.alg
        return {"em1": alg.em1(), "e0": alg.e0(), "e1": alg.e1(), "A": alg.A()}

    def differential_table(self):
        return {name: self.d(x) for name, x in self._generators().items()}

    def left_action_table(self):
        """Row i of a generator's table is its action on gamma^i, column i of its matrix."""
        N = self.N
        unit = Matrix({(i, i): self.alg.unit() for i in range(N)})
        images = {name: self._act(a, unit) for name, a in self._generators().items()}
        return {name: [[self._entry(m, k, i) for k in range(N)] for i in range(N)]
                for name, m in images.items()}

    def leibniz_report(self, max_total_degree=4):
        """d(xy) = x d(y) + d(x) y on all monomial pairs up to a degree bound.

        d is inner, d(m) = omega m - P(m) with P(m) = M_m omega, so for
        normal x, y and the normal form xy = sum c_k m_k the defect is

            d(xy) - x d(y) - d(x) y = M_x P(y) - sum c_k P(m_k).

        Two uses of the associativity of B give it: (omega x) y = omega (xy)
        cancels the omega terms of d(xy) and d(x) y, and M_x (omega y) =
        (M_x omega) y = P(x) y cancels x (omega y) against d(x) y; the
        confluence of the sphere's rules (AC-10) makes B associative.  So
        the defect depends only on the word x y, and each distinct word is
        compared once; a failing word fails every pair that splits it.  A
        word x y that is already normal is skipped: M_x P(y) is then the
        kept P(xy), the same letter products in the same order, so its
        defect is zero by construction.  Each other word w = g w' takes one
        letter-matrix product, M_w omega = M_g (M_(w') omega), from the
        column of its suffix, shortest words first (w' is normal, or a
        shorter such word).  Failures are (x, y) pairs in the order of the
        normal monomials, x first.  A bound below 2 admits no pair of
        nonconstant monomials, so it is refused rather than passed on an
        empty check.  No certificate calls it; the benchmark worker and the
        tests do.
        """
        if max_total_degree < 2:
            raise ValueError("the Leibniz check needs a total degree bound >= 2, got %d"
                             % max_total_degree)
        alg = self.alg
        monos = alg.normal_monomials(max_total_degree)
        normal = set(monos)
        splits = {}                     # non-normal word x y -> its pairs (x, y)
        for y in monos[1:]:
            for x in alg.normal_monomials(max_total_degree - len(y))[1:]:
                if x + y not in normal:
                    splits.setdefault(x + y, []).append((x, y))
        acted, failures = {}, []        # word w -> M_w omega as a column
        for w in sorted(splits, key=len):
            rest = acted.get(w[1:])
            col = acted[w] = self._twist(w[0]) * (
                self._acted_omega(w[1:]) if rest is None else rest)
            want = [{} for _ in range(self.N)]
            for m, cc in alg.reduce_word(w).items():
                for (k, _), v in self._acted_omega(m).terms.items():
                    accumulate(want[k], v.terms, cc)
            if want != [self._entry(col, k, 0).terms for k in range(self.N)]:
                failures.extend(splits[w])
        position = {m: i for i, m in enumerate(monos)}
        failures.sort(key=lambda pair: (position[pair[0]], position[pair[1]]))
        return {"pass": not failures, "failures": failures,
                "bound": max_total_degree}

    def bimodule_report(self):
        """The letter matrices satisfy the four rules x y -> rhs in M_N(B).

        This proves Leibniz in every degree.  `algebra.rule_failures` checks
        M_x M_y against the rule's right side with () going to the identity,
        so the free words act through an algebra map B -> M_N(B) exactly
        when there is no failure: the rules present B.  That map is the left
        action, which commutes with right multiplication, so Gamma is a
        bimodule, and d = [omega, .] is inner: d(xy) = omega x y - x y omega
        = d(x) y + x d(y) for all x and y.  Failures are (rule, residual)
        pairs.  The report is kept on the calculus; each call gets a copy.
        """
        if self._bimodule is None:
            failures = rule_failures(
                self.alg.rewriting.rules, lambda w: self._word(w, Matrix.identity(self.N)),
                lambda g: str(self.alg.gen(g)))
            self._bimodule = {"pass": not failures, "failures": failures}
        return dict(self._bimodule, failures=list(self._bimodule["failures"]))

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
    """The Matrix psi over O_q(SL2) with Delta_B b_i = sum_j b_j (x) psi[j, i], and S^-1(psi).

    One `_span_solve` writes every coaction leg over W: a leg of b_i is the
    sphere coefficient of one SL2 monomial in its coaction.  Its rank must
    be N, so W is independent and psi is unique, and every leg must lie in
    the span, so W is a subcomodule.  psi accumulates the legs' solutions.
    Returns (psi, sinv_psi), sinv_psi[i, j] = S^-1(psi[i, j]), after
    `check_comodule_matrix` has certified the embedded identity that the
    r-form recursion of `chi_functionals` rests on.
    """
    N = len(W)
    legs = [(i, am, pvec)               # (i, SL2 monomial, sphere coefficient)
            for i in range(N) for am, pvec in alg.coact(W[i]).terms.items()]
    rank, sols = _span_solve(W, [pvec for _, _, pvec in legs])
    if rank < N:
        raise AssertionError("W is dependent: rank %d < %d" % (rank, N))
    psi = {}
    for (i, am, _), coeffs in zip(legs, sols):
        if coeffs is None:
            raise AssertionError("coaction leg leaves the W-span")
        accumulate(psi, {(j, i): oqsl2.SL2Element({am: a}) for j, a in enumerate(coeffs) if a})
    psi = Matrix(psi)
    check_comodule_matrix(alg, W, psi)
    return psi, Matrix({ij: oqsl2.antipode(x, inverse=True) for ij, x in psi.terms.items()})


def check_comodule_matrix(alg, W, psi):
    """Raise AssertionError unless Delta(iota b_i) = sum_j iota(b_j) (x) psi[j, i] for each i.

    The right side is one product: the row Matrix of the iota(b_j), each the
    tensor iota(b_j) (x) 1, times psi.  The identity is what the r-form
    recursion of `chi_functionals` uses; `bimodule_report` certifies the
    letter twists on its own.  It makes psi a corepresentation, Delta
    psi_ij = sum_k psi_ik (x) psi_kj and eps(psi_ij) = delta_ij, when the
    iota(b_j) are independent: apply Delta (x) id, id (x) Delta and
    id (x) eps to the identity, with Delta coassociative and counital
    (AC-10).  `comodule_matrix` proves the b_j independent in B, so that
    holds where iota is injective, which only AC-10 computes, at s=1 and
    at infinity (`podles.normal_basis_report`).
    """
    images = [alg.embed(b) for b in W]
    rhs = Matrix({(0, j): oqsl2.SL2Element.unit(x) for j, x in enumerate(images)}) * psi
    for i, image in enumerate(images):
        if oqsl2.coproduct(image) != rhs[0, i]:
            raise AssertionError("Delta(b_%d) is not sum_j b_j (x) psi_j%d" % (i, i))


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
    """G(g) = eps(M_g), entry by entry, for the three letters, and R(()) = [eps(b_j)]."""
    alg = pres.alg
    return ({g: Matrix({ij: alg.counit(x) for ij, x in pres._twist(g).terms.items()})
             for g in podles.LETTERS}, [alg.counit(b) for b in pres.W_basis])


def _module_letters(ts):
    """M(g) with v_i(g x) = sum_k L[i, k](g) v_k(x), L the coproduct matrix of ts."""
    engine = ts.engine
    return {g: Matrix({ik: engine.eval_vector(v, engine.alg.gen(g))
                       for ik, v in ts.L.terms.items()}) for g in podles.LETTERS}


def _walk(letters, values, monos):
    """values[g m'] = letters[g] values[m'] on columns, monos shortest first (m' is normal)."""
    for m in monos:
        if m not in values:
            values[m] = letters[m[0]] * values[m[1:]]


def chi_functionals(n, nu, c: CParam, engine=None):
    """chi_i(a) = r(nu(a), S^-1(b_i)) - eps(b_i) eps(a), and span{chi_i, eps} = T^eps.

    T^eps = C eps + the module of weight ±q^(-2n), the tangent space of
    (±1, 2n) that the engine keeps for AC-7, `classify` and `de-generated`
    too.  The chi side: Delta(iota b_i) = sum_j iota(b_j) (x) psi_ji, which
    `check_comodule_matrix` certified, gives Delta(S^-1 b_i) = sum_j S^-1
    psi_ji (x) S^-1 b_j, and with bimultiplicativity of r that is R(g m') =
    G(g) R(m') for R(m)_i = r(nu(m), S^-1 b_i), G(g)[i, j] = r(nu(g),
    S^-1 psi_ji) = eps(M_g[i, j]).  The module side: v_i(g m') = sum_k
    L[i, k](g) v_k(m'), L the coproduct matrix of T^eps, whose closure under
    f -> f(g .) is its certified `coproduct_closed`; `spans_equal` requires
    the whole tangent-space certificate.  No elimination runs here but the
    ranks, once the calculus and the tangent space are kept.
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
    ts = tangent_space(c, [(-1 if nu == "flip" else +1, 2 * n)], engine)
    mod_letters = _module_letters(ts)
    at_unit = [v.value_at_unit() for v in ts.basis]
    chi_values, mod_values, ranks = {(): _column(eps_W)}, {(): _column(at_unit)}, []
    for d in itertools.count():
        monos = engine.alg.normal_monomials(d)
        _walk(chi_letters, chi_values, monos)
        _walk(mod_letters, mod_values, monos)
        eps_m = [mod_values[m][0, 0] for m in monos]        # basis[0] is eps
        chi_rows = [[chi_values[m][i, 0] - e_b * e for m, e in zip(monos, eps_m)]
                    for i, e_b in enumerate(eps_W)]
        mod_rows = [[mod_values[m][k, 0] - v_1 * e for m, e in zip(monos, eps_m)]
                    for k, v_1 in enumerate(at_unit) if k]
        ranks.append(linalg.rank(chi_rows + mod_rows))
        if d and ranks[-1] == ranks[-2]:
            break
    r_chi, r_mod = linalg.rank(chi_rows), linalg.rank(mod_rows)
    return {"chi_rows": chi_rows, "module_rows": mod_rows, "monomials": monos,
            "rank_chi": r_chi, "rank_module": r_mod, "rank_joint": ranks[-1],
            "spans_equal": (ts.certificate["pass"]
                            and r_chi == r_mod == ranks[-1] == 2 * n + 1),
            "stable_degree": d - 1}


def chibar_report(n, c: CParam, engine=None):
    """chibar(a) = eps(e1)^-n r(a, S^-1(e1^n)) is the character psi^0_{q^(-4n)}.

    chibar = R_0 / eps(b_0) for the id calculus, b_0 = e1^n.  If row 0 of each
    G(g) is supported on column 0, R_0(g x) = G(g)[0, 0] R_0(x) for all x, so
    chibar is the character with chibar(g) = G(g)[0, 0].  psi^0_lam is a
    character too, and characters that agree on the letters m, A, p are equal.
    """
    engine = engine or engine_of(c)
    alg = engine.alg
    letters, _ = _chi_letters(build_rform_calculus(n, "id", c, engine))
    char_ok = not any(i == 0 < j for g in podles.LETTERS for i, j in letters[g].terms)
    value = {g: letters[g][0, 0] for g in podles.LETTERS}
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
    return {
        "schema": "qsphere-report/1",
        "kind": "tangent-space",
        "components": [list(sl) for sl in ts.components],
        "dim_Teps": ts.dim,
        "dim_calculus": ts.dim - 1,
        "certificate": dict(ts.certificate),
    }
