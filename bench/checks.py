"""Answer checks for the qsphere benchmark, computed apart from the program.

Everything here is stdlib only.  A check returns a list of problems; an
empty list means the answer passed.  Nothing is compared against a stored
copy of the program's output: each expected value is either stated by the
paper (weight sets, calculus counts, the Podles relations, c(n)) or
recomputed by modular arithmetic at a seeded point t0 (ranks, relation
residuals).

Modular certificates: q = t^2 is specialized to t0 in GF(P), P = 2^61 - 1.
Rank cannot rise under a specialization that keeps every entry defined, so
full rank mod P proves full rank over Q(t).  An identity that holds at a
random t0 holds over Q(t) except with probability (degree / P).
"""

import json
import random

P = (1 << 61) - 1


# ---------------------------------------------------------------------------
# arithmetic mod P

def inv_mod(x):
    x %= P
    if not x:
        raise ZeroDivisionError("not invertible mod P")
    return pow(x, P - 2, P)


def poly_at(coeffs, t0):
    """Integer polynomial (low degree first) evaluated at t0 mod P."""
    v = 0
    for c in reversed(coeffs):
        v = (v * t0 + c) % P
    return v


def ratfunc_at(x, t0):
    """A Q(t) value (integer tuples .num and .den, low degree first) at t0 mod P."""
    return poly_at(x.num, t0) * inv_mod(poly_at(x.den, t0)) % P


def pick_t0(seed, salt=""):
    """A seeded evaluation point, away from the roots of q = t^2 in {0, 1, -1}."""
    rng = random.Random("%s/%s" % (seed, salt))
    while True:
        t0 = rng.randrange(2, P - 1)
        if (t0 * t0) % P not in (0, 1, P - 1):
            return t0


def rank_mod(rows):
    """Rank of an integer matrix mod P (rows are lists of residues)."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    nc = len(m[0])
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = inv_mod(m[r][col])
        pr = [(x * inv) % P for x in m[r]]
        m[r] = pr
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % P for x, y in zip(m[i], pr)]
        r += 1
        if r == len(m):
            break
    return r


def matmul_mod(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][p] * b[p][j] for p in range(k)) % P for j in range(m)]
            for i in range(n)]


def mat_lin(*terms):
    """sum of coeff * matrix over (coeff, matrix) pairs, mod P."""
    n = len(terms[0][1])
    return [[sum(c * m[i][j] for c, m in terms) % P for j in range(n)]
            for i in range(n)]


def identity_mod(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def is_zero_mat(m):
    return all(not x for row in m for x in row)


# ---------------------------------------------------------------------------
# q-syntax expressions evaluated at q = t0^2 mod P

def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif ch == "q":
            out.append(("q", None))
            i += 1
        elif ch in "+-*/^()":
            out.append((ch, None))
            i += 1
        else:
            raise ValueError("unexpected %r in q-expression %r" % (ch, text))
    out.append(("end", None))
    return out


class _QExpr:
    """Recursive-descent evaluator of the printed Q(t) values (q^(k/2) = t0^k)."""

    def __init__(self, text, t0):
        self.toks = _tokens(text)
        self.pos = 0
        self.t0 = t0

    def peek(self):
        return self.toks[self.pos][0]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %r in q-expression" % kind)
        self.pos += 1
        return tok

    def parse(self):
        v = self.expr()
        self.take("end")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            w = self.term()
            v = (v + w) % P if op == "+" else (v - w) % P
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            w = self.unary()
            v = v * w % P if op == "*" else v * inv_mod(w) % P
        return v

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary() % P
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        kind = self.peek()
        if kind == "q":
            self.take()
            base, is_q = self.t0 * self.t0 % P, True
        elif kind == "int":
            base, is_q = self.take()[1] % P, False
        else:
            self.take("(")
            base, is_q = self.expr(), False
            self.take(")")
        if self.peek() != "^":
            return base
        self.take()
        halves = self.exponent()
        if halves % 2:
            if not is_q:
                raise ValueError("half-integer power of a non-q base")
            return pow(inv_mod(self.t0) if halves < 0 else self.t0, abs(halves), P)
        n = halves // 2
        return pow(inv_mod(base) if n < 0 else base, abs(n), P)

    def exponent(self):
        """Exponent in halves: 2 -> 4, -1 -> -2, (3/2) -> 3, (-1/2) -> -1."""
        if self.peek() == "int":
            return 2 * self.take()[1]
        if self.peek() == "-":
            self.take()
            return -2 * self.take("int")[1]
        self.take("(")
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        num = self.take("int")[1]
        halves = 2 * num
        if self.peek() == "/":
            self.take()
            den = self.take("int")[1]
            if den not in (1, 2):
                raise ValueError("only halves allowed in exponents")
            halves = num if den == 2 else 2 * num
        self.take(")")
        return sign * halves


def qexpr_mod(text, t0):
    return _QExpr(text, t0).parse()


# ---------------------------------------------------------------------------
# what the paper states

def c_spec_kind(c):
    """'generic', 'inf' or ('exc', r2) for a CLI c-specifier."""
    if c == "inf":
        return "inf"
    if c.startswith("exc:"):
        return ("exc", int(c[4:]))
    if c.startswith("s="):
        return "generic"
    raise ValueError("unsupported c-specifier %r" % c)


def in_weight_set(c, sign, l):
    """(sign, l) in J^c: the highest weights ±q^(-l) of the classification.

    Generic c: +q^(-l) for even l.  c = infinity: both signs, even l.
    c = (q^r - q^-r)^-2 with r = r2/2: additionally -q^(-k) for k >= r2,
    k = r2 mod 2.
    """
    kind = c_spec_kind(c)
    if sign == +1:
        return l % 2 == 0
    if kind == "inf":
        return l % 2 == 0
    if kind == "generic":
        return False
    r2 = kind[1]
    return l >= r2 and (l - r2) % 2 == 0


def weight_set(c, lmax):
    return {(s, l) for l in range(lmax + 1) for s in (+1, -1)
            if in_weight_set(c, s, l)}


# Corollary counts of the calculi generated by the differentials d e_i.
DE_GENERATED = {"generic": (1, [3]), "inf": (3, [1, 3, 3]), ("exc", 1): (2, [2, 3])}


def calculus_dim(sign, l):
    """Dimension of the irreducible calculus of one component; (+1, 0) is trivial."""
    return 0 if (sign, l) == (+1, 0) else l + 1


# ---------------------------------------------------------------------------
# CLI request checks

def round_trips(text):
    doc = json.loads(text)
    return json.dumps(doc, indent=2, sort_keys=True) == text.rstrip("\n"), doc


def check_cli_request(spec, out, t0):
    """Problems with the report of one query_mix request that exited 0."""
    try:
        ok, doc = round_trips(out)
    except ValueError as e:
        return ["output is not JSON: %s" % e]
    problems = [] if ok else ["JSON report does not round-trip"]
    certs = doc.get("certificates")
    if not certs or not all(cert.get("pass") is True for cert in certs):
        problems.append("a certificate did not pass")
    checker = _CHECKERS[spec["cmd"]]
    problems.extend(checker(spec, doc, t0))
    return problems


def _check_classify(spec, doc, t0):
    problems = []
    got = {(e["component"][0], e["component"][1]) for e in doc["components"]}
    if got != weight_set(spec["c"], spec["lmax"]):
        problems.append("weight set %s differs from the paper's" % sorted(got))
    for e in doc["components"]:
        sign, l = e["component"]
        if e["dim_calculus"] != calculus_dim(sign, l):
            problems.append("component %s has calculus dimension %s"
                            % ([sign, l], e["dim_calculus"]))
        if (sign, l) != (+1, 0) and e.get("irreducible") is not True:
            problems.append("component %s not certified irreducible" % [sign, l])
    return problems


def _check_eigenvalues(spec, doc, t0):
    """Kernel iff (sign, l) in J^c, and the roots add up.

    The characteristic polynomial of the (l+1)x(l+1) matrix splits into one
    quadratic per pair, plus one linear factor when l is even.  That single
    root is zero exactly for sign + or c = infinity (it is 2 alpha q^(l+1)
    otherwise); every other zero root comes from a pair with product 0.
    """
    problems = []
    sign = +1 if spec["sign"] == "+" else -1
    l = spec["l"]
    want = in_weight_set(spec["c"], sign, l)
    kd, zm = doc["kernel_dim"], doc["zero_root_multiplicity"]
    if (kd > 0) != want:
        problems.append("kernel dimension %d at (%+d, %d), expected %s"
                        % (kd, sign, l, "> 0" if want else "0"))
    if 2 * len(doc["pairs"]) + (l + 1) % 2 != l + 1:
        problems.append("%d pairs do not account for %d roots" % (len(doc["pairs"]), l + 1))
    single_zero = l % 2 == 0 and (sign == +1 or spec["c"] == "inf")
    zero_pairs = sum(qexpr_mod(pr["prod"], t0) == 0 for pr in doc["pairs"])
    if zm != zero_pairs + single_zero:
        problems.append("zero root multiplicity %d, the factors give %d"
                        % (zm, zero_pairs + single_zero))
    if (zm > 0) != (kd > 0):
        problems.append("kernel dimension %d with zero root multiplicity %d" % (kd, zm))
    return problems


def _check_tangent_space(spec, doc, t0):
    comps = [tuple(x) for x in spec["components"]]
    want = sum(calculus_dim(s, l) for s, l in set(comps))
    problems = []
    if doc["dim_calculus"] != want:
        problems.append("calculus dimension %s, expected %d" % (doc["dim_calculus"], want))
    if doc["dim_Teps"] != want + 1:
        problems.append("dim T^eps %s, expected %d" % (doc["dim_Teps"], want + 1))
    if {tuple(x) for x in doc["components"]} != set(comps):
        problems.append("components %s differ from the request" % doc["components"])
    return problems


def _check_de_generated(spec, doc, t0):
    count, dims = DE_GENERATED[c_spec_kind(spec["c"])]
    got_dims = sorted(e["dim"] for e in doc["calculi"])
    if doc["count"] != count or got_dims != dims:
        return ["%s calculi of dimensions %s, expected %d of %s"
                % (doc["count"], got_dims, count, dims)]
    return []


def _check_build_fodc(spec, doc, t0):
    problems = []
    n = spec["n"]
    if doc["dim"] != 2 * n + 1 or len(doc["W_basis"]) != 2 * n + 1:
        problems.append("calculus dimension %s, expected %d" % (doc["dim"], 2 * n + 1))
    sign = -1 if spec["nu"] == "flip" else +1
    if doc["components"] != [[sign, 2 * n]]:
        problems.append("components %s, expected %s" % (doc["components"], [[sign, 2 * n]]))
    names = [cert["name"] for cert in doc["certificates"]]
    if spec.get("freeness") and not any(x.startswith("freeness") for x in names):
        problems.append("no freeness certificate")
    return problems


def mu_rep_problems(n, mats, t0):
    """The Podles relations at c = c(n), nilpotent e_{+-1} and invertible A, mod P.

    c(n) = -1/(q^n + q^-n)^2 is computed here, not read from the program.
    Relations: e_-1 e_1 = A - A^2 + c, e_1 e_-1 = q^2 A - q^4 A^2 + c,
    e_1 A = q^2 A e_1, e_-1 A = q^-2 A e_-1.
    """
    q = t0 * t0 % P
    qi = inv_mod(q)
    cn = -inv_mod(pow(pow(q, n, P) + pow(qi, n, P), 2, P)) % P
    try:
        A, em, ep = ([[qexpr_mod(x, t0) for x in row] for row in mats[name]]
                     for name in ("A", "em1", "e1"))
    except (KeyError, ValueError, ZeroDivisionError) as e:
        return ["matrices unreadable: %s" % e]
    if any(len(m) != n or any(len(r) != n for r in m) for m in (A, em, ep)):
        return ["matrices are not %dx%d" % (n, n)]
    eye = identity_mod(n)
    AA = matmul_mod(A, A)
    q2, q4 = q * q % P, pow(q, 4, P)
    residuals = {
        "e-e": mat_lin((1, matmul_mod(em, ep)), (-1, A), (1, AA), (-cn, eye)),
        "ee-": mat_lin((1, matmul_mod(ep, em)), (-q2, A), (q4, AA), (-cn, eye)),
        "eA": mat_lin((1, matmul_mod(ep, A)), (-q2, matmul_mod(A, ep))),
        "e-A": mat_lin((1, matmul_mod(em, A)), (-qi * qi % P, matmul_mod(A, em))),
    }
    problems = ["relation %s fails" % k for k, r in residuals.items() if not is_zero_mat(r)]
    for name, m in (("e1", ep), ("em1", em)):
        pw = eye
        for _ in range(n):
            pw = matmul_mod(pw, m)
        if not is_zero_mat(pw):
            problems.append("%s is not nilpotent" % name)
    if rank_mod(A) != n:
        problems.append("A is not invertible")
    return problems


def _check_mu_rep(spec, doc, t0):
    if doc["params"]["n"] != spec["n"]:
        return ["report is for n=%s" % doc["params"]["n"]]
    return mu_rep_problems(spec["n"], doc["matrices"], t0)


_CHECKERS = {
    "classify": _check_classify,
    "eigenvalues": _check_eigenvalues,
    "tangent-space": _check_tangent_space,
    "de-generated": _check_de_generated,
    "build-fodc": _check_build_fodc,
    "mu-rep": _check_mu_rep,
}
