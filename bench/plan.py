"""Seeded inputs of the benchmark workloads (stdlib only).

The same seed gives the same inputs.  The query_mix round has a fixed
make-up (command, c-class and parameters); the seed assigns the generic
values of c, balanced over GENERIC_S, and the order.  So every seed asks
for the same kinds of work in the same amounts.
"""

import random

WORKLOADS = ("freeness_n2", "rform_eval", "query_mix")

GENERIC_S = ("s=1", "s=2", "s=3", "s=1/2", "s=q", "s=q+1")


def _comps(text):
    return [[-1 if p.startswith("-") else 1, int(p[1:])] for p in text.split(",")]


# One query_mix round, 100 requests: (command, c-class, parameter sets).
# A c-class is "generic", "inf", "exc:1" or "exc:2"; each parameter set is
# one request.  The make-up is fixed, so every seed asks for the same work.
_EIG6 = [{"l": l, "sign": "+-"[l % 2]} for l in range(6)]
_EIG6_FLIP = [{"l": l, "sign": "-+"[l % 2]} for l in range(6)]
QUERY_POOL = (
    ("eigenvalues", "generic", _EIG6 + _EIG6_FLIP),
    ("eigenvalues", "inf", _EIG6_FLIP),
    ("eigenvalues", "exc:1", _EIG6_FLIP),
    ("eigenvalues", "exc:2", _EIG6),
    ("tangent-space", "generic", [{"components": _comps(x)} for x in
                                  ("+2", "+4", "+0,+2", "+2,+4")]),
    ("tangent-space", "inf", [{"components": _comps(x)} for x in
                              ("-0,+2", "-2", "+4,-4", "-0,-2")]),
    ("tangent-space", "exc:1", [{"components": _comps(x)} for x in
                                ("-1", "-3", "-1,+2", "+2,-3")]),
    ("tangent-space", "exc:2", [{"components": _comps(x)} for x in
                                ("-2", "-4", "+2,-2", "-2,-4")]),
    ("mu-rep", None, [{"n": n, "via_cn": via} for n in range(1, 6)
                      for via in (False, True, False, True)]),
    ("classify", "generic", [{"lmax": m} for m in (3, 4, 3, 4)]),
    ("classify", "inf", [{"lmax": m} for m in (3, 4)]),
    ("classify", "exc:1", [{"lmax": m} for m in (3, 4)]),
    ("classify", "exc:2", [{"lmax": m} for m in (3, 4)]),
    ("de-generated", "generic", [{}] * 4),
    ("de-generated", "inf", [{}] * 3),
    ("de-generated", "exc:1", [{}] * 3),
    ("build-fodc", "generic", [{"n": 1, "nu": "id", "freeness": True}] * 8),
    ("build-fodc", "inf", [{"n": 1, "nu": "flip", "freeness": False}] * 6),
)

def query_round(seed, index=0):
    """One round of query_mix requests for a seed.

    The seed assigns the generic values of c and the order.  Within each
    generic stratum every value of GENERIC_S is used equally often (up to
    one), so the round's work hardly depends on the seed.
    """
    rng = random.Random("query_mix/%s/%d" % (seed, index))
    out = []
    for cmd, cls, params in QUERY_POOL:
        if cls == "generic":
            first = rng.randrange(len(GENERIC_S))
            cs = [GENERIC_S[(first + i) % len(GENERIC_S)] for i in range(len(params))]
            rng.shuffle(cs)
        else:
            cs = [cls] * len(params)
        for c, p in zip(cs, params):
            spec = dict(p, cmd=cmd)
            if c is not None:
                spec["c"] = c
            out.append(spec)
    rng.shuffle(out)
    return out


def cli_argv(spec):
    """The qsphere.cli.main argument list of a request."""
    argv = ["--format", "json", spec["cmd"]]
    cmd = spec["cmd"]
    if cmd == "mu-rep":
        return argv + (["--c", "cn:%d" % (2 * spec["n"])] if spec["via_cn"]
                       else ["--n", str(spec["n"])])
    argv += ["--c", spec["c"]]
    if cmd == "eigenvalues":
        argv += ["--l", str(spec["l"]), "--sign", spec["sign"]]
    elif cmd == "tangent-space":
        # the '=' form: a bare "-0,+2" would be read as an option
        argv.append("--components=" + ",".join(
            "%s%d" % ("+" if s > 0 else "-", l) for s, l in spec["components"]))
    elif cmd == "classify":
        argv += ["--lmax", str(spec["lmax"])]
    elif cmd == "build-fodc":
        argv += ["--n", str(spec["n"]), "--nu", spec["nu"]]
        if spec["freeness"]:
            argv.append("--verify-freeness")
    return argv


# rform_eval: the calculi of AC-8 other than the n=2 freeness certificate
RFORM_PARTS = (("id", "s=1", 1), ("id", "s=1", 2), ("flip", "inf", 1))
LEIBNIZ_PAIRS = 4


def leibniz_sample(seed, part, pairs=LEIBNIZ_PAIRS):
    """Seeded non-monomial pairs (x, y) of degree <= 2 each.

    An element is a list of (integer coefficient, index into the normal
    monomials of degree 1..2, in the order the algebra lists them).
    """
    rng = random.Random("leibniz/%s/%s" % (seed, part))
    n_monos = 8          # the normal monomials of degree 1 and 2

    def element():
        idx = rng.sample(range(n_monos), rng.randint(2, 3))
        return [(rng.choice((-3, -2, -1, 1, 2, 3)), i) for i in idx]

    return [(element(), element()) for _ in range(pairs)]


def inputs(workload, seed, seconds):
    """Everything a run of a workload needs, generated from the seed."""
    if workload == "freeness_n2":
        return {"n": 2, "processes": 1}
    if workload == "rform_eval":
        return {"processes": max(1, round(seconds / RFORM_REQUEST_S)),
                "parts": [list(p) for p in RFORM_PARTS],
                "leibniz": {"%s/%s/%d" % p: leibniz_sample(seed, "%s/%s/%d" % p)
                            for p in RFORM_PARTS}}
    if workload == "query_mix":
        rounds = max(1, round(seconds / (QUERY_PASSES * QUERY_ROUND_S)))
        reqs = [r for i in range(rounds) for r in query_round(seed, i)]
        return {"processes": QUERY_PASSES, "queries": reqs}
    raise ValueError("unknown workload %r" % workload)


# nominal costs on the reference machine, used only to size a run from
# --seconds; the count depends on --seconds alone, never on speed
RFORM_REQUEST_S = 10.0
QUERY_ROUND_S = 10.0
# query_mix makes the same requests in this many fresh processes per run
QUERY_PASSES = 2
