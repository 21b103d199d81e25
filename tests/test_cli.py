import argparse
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from qsphere import dualfunc, fodc, linalg, uqsl2rep
from qsphere.cli import build_parser, main, parse_param_spec, CnSpec
from qsphere.dualfunc import DualEngine
from qsphere.scalars import qpow


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_param_spec():
    assert parse_param_spec("inf").is_infinity()
    c = parse_param_spec("s=1/(q-q^-1)")
    assert c.variant == "generic"
    c = parse_param_spec("exc:1")
    assert c.c_value() == (qpow(1) - qpow(-1)) ** -2
    spec = parse_param_spec("cn:2")
    assert isinstance(spec, CnSpec) and spec.n2 == 2
    with pytest.raises(ValueError):
        parse_param_spec("bogus")


def test_classify_generic(capsys):
    code, out = run_cli(capsys, "--format", "json", "classify", "--c", "s=1",
                        "--lmax", "4")
    assert code == 0
    doc = json.loads(out)
    comps = [tuple(e["component"]) for e in doc["components"]]
    assert comps == [(1, 0), (1, 2), (1, 4)]
    dims = [e["dim_calculus"] for e in doc["components"]]
    assert dims == [0, 3, 5]
    # emitted JSON parses back to the same document
    assert json.loads(json.dumps(doc)) == doc


def test_classify_rejects_cn(capsys):
    code = main(["classify", "--c", "cn:2", "--lmax", "2"])
    assert code == 2


def test_classify_rejects_zero_s(capsys):
    code = main(["classify", "--c", "s=0", "--lmax", "2"])
    assert code == 2


def test_de_generated_counts(capsys):
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "inf")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "exc:1")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_eigenvalues(capsys):
    code, out = run_cli(capsys, "--format", "json", "eigenvalues", "--c", "s=1",
                        "--l", "2", "--sign", "+")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_root_multiplicity"] == 1
    assert doc["kernel_dim"] == 1
    assert doc["certificates"][0]["pass"]


def test_tangent_space_command(capsys):
    code, out = run_cli(capsys, "--format", "json", "tangent-space", "--c", "s=1",
                        "--components", "+2,+4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_Teps"] == 9


def test_mu_rep(capsys):
    code, out = run_cli(capsys, "--format", "json", "mu-rep", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"][0]["pass"]
    assert len(doc["matrices"]["A"]) == 2
    # the cn: spec is accepted here (and only here)
    code, out = run_cli(capsys, "--format", "json", "mu-rep", "--c", "cn:4")
    assert code == 0
    assert json.loads(out)["params"]["n"] == 2


def test_mu_rep_refuses_both_n_and_c(capsys):
    # the two ways of naming n must not silently disagree
    code = main(["--format", "json", "mu-rep", "--n", "2", "--c", "cn:6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not both" in captured.err


def test_build_fodc(capsys):
    code, out = run_cli(capsys, "--format", "json", "build-fodc", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["schema"] == "qsphere-report/1"
    assert all(c["pass"] for c in doc["certificates"])


@pytest.mark.parametrize("argv, message", [
    (["build-fodc", "--n", "0"], "n must be positive"),
    (["mu-rep", "--n", "0"], "n must be positive"),
    (["mu-rep", "--c", "cn:0"], "n must be positive"),
    (["eigenvalues", "--c", "s=1", "--l", "-1"], "l must be nonnegative"),
    (["classify", "--c", "s=1", "--lmax", "-1"], "lmax must be nonnegative"),
    (["de-generated", "--c", "inf", "--lmax", "-1"], "lmax must be nonnegative"),
    (["tangent-space", "--c", "s=2", "--components="], "at least one weight")])
def test_empty_checks_are_usage_errors(capsys, argv, message):
    # a bound that leaves nothing to check exits 2 instead of passing
    code = main(["--format", "json"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("components", ["-+2", "+-2", "--0"])
def test_malformed_components_are_usage_errors(capsys, components):
    # one optional sign, then digits; a second sign is not skipped over
    code = main(["--format", "json", "tangent-space", "--c", "inf",
                 "--components=" + components])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot parse component %r" % components in captured.err


@pytest.mark.parametrize("expr", [
    "(" * 400 + "1" + ")" * 400, "-" * 5000 + "1", "2q", "1.5", "True", "x", "q.num",
    "__import__('os')", "[1]", "q^(1/3)", "2^(1/2)", "(q+1)^(1/2)", "q^q", "1/(", ""],
    ids=["deep-parens", "deep-minus", "2q", "1.5", "True", "x", "q.num", "import",
         "list", "q^(1/3)", "2^(1/2)", "(q+1)^(1/2)", "q^q", "unclosed", "empty"])
def test_malformed_s_specs_are_usage_errors(capsys, expr):
    # the grammar is integers, q, + - * / and ^, with explicit products
    code = main(["--format", "json", "classify", "--c", "s=" + expr, "--lmax", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--c", "s=q^1000000"], ["classify", "--c", "exc:1000000"],
    ["classify", "--c", "s=10^10^10"], ["classify", "--c", "s=2^1000"],
    ["classify", "--c", "s=(q+1)^300"], ["classify", "--c", "s=q^(201/2)"],
    ["classify", "--c", "s=(q^90+1)*q^90*q^90"], ["eigenvalues", "--c", "exc:101", "--l", "1"],
    ["mu-rep", "--c", "cn:1000000"], ["mu-rep", "--c", "cn:102"]],
    ids=["q-power", "exc", "tower", "constant", "binomial", "s-degree", "product",
         "exc-101", "cn", "cn-102"])
def test_a_c_above_the_degree_cap_is_refused_before_it_is_built(capsys, argv):
    # c of t-degree above 400: s=q^1000000 would build a 31 MB tuple, and
    # s=10^10^10 would have raised 10 to the power 10^10
    start = time.perf_counter()
    code = main(["--format", "json"] + argv)
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: t-degree ") and "above the cap 400" in captured.err


def test_specs_up_to_the_degree_cap_parse():
    for spec, degree in (("s=q^100", 400), ("s=q^(199/2)*(q^(1/2)+1)", 400),
                         ("s=2^400", 0), ("exc:100", 400)):
        c = parse_param_spec(spec).c_value()
        assert max(len(c.num), len(c.den)) - 1 == degree, spec
    assert isinstance(parse_param_spec("cn:100"), CnSpec)


@pytest.mark.parametrize("lmax", [0, 1])
def test_de_generated_is_complete_at_low_lmax(capsys, lmax):
    # the enumeration needs l <= 2 whatever the bound; a scan to lmax only
    # found no candidate below l = 2 and reported 0 calculi
    code, want = run_cli(capsys, "--format", "json", "de-generated", "--c", "s=1")
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "s=1",
                        "--lmax", str(lmax))
    assert code == 0
    doc, want = json.loads(out), json.loads(want)
    assert doc["count"] == want["count"] == 1
    assert doc["calculi"] == want["calculi"]
    assert doc["certificates"] == [
        {"name": "candidate tangent spaces closed", "pass": True}]
    assert "pruned components (dimension beyond the separating bound): none" in doc["lines"]


def test_de_generated_without_candidates_fails(capsys, monkeypatch):
    # a scan with only the trivial component: nothing was checked, so no pass
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(DualEngine, "scan_weights", lambda self, lmax: [(1, 0)])
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "s=1")
    assert code == 1
    doc = json.loads(out)
    assert doc["count"] == 0
    assert doc["certificates"] == [
        {"name": "candidate tangent spaces closed", "pass": False}]


def test_selftest_single_criterion(capsys):
    code, out = run_cli(capsys, "selftest", "--only", "AC-2")
    assert code == 0
    assert "AC-2 PASS" in out


def test_selftest_unknown_criterion_is_a_usage_error(capsys):
    code = main(["selftest", "--only", "AC-99"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown criterion: AC-99" in captured.err


def test_classify_reports_the_trivial_closure(capsys):
    code, out = run_cli(capsys, "--format", "json", "classify", "--c", "s=1",
                        "--lmax", "1")
    assert code == 0
    assert json.loads(out)["certificates"] == [
        {"name": "closure +q^-0", "pass": True}]


def test_report_without_certificates_does_not_pass(capsys, monkeypatch):
    # a weight scan that finds no component leaves the report without
    # certificates
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(DualEngine, "scan_weights", lambda self, lmax: [])
    code, out = run_cli(capsys, "--format", "json", "classify", "--c", "s=1",
                        "--lmax", "1")
    assert json.loads(out)["certificates"] == []
    assert code == 1


@pytest.mark.parametrize("argv, calls", [
    (("classify", "--c", "s=1", "--lmax", "4"), 10),
    (("tangent-space", "--c", "inf", "--components=-0,+2"), 2),
    (("de-generated", "--c", "inf"), 14),
])
def test_nilpotency_verdict_once_per_weight(capsys, monkeypatch, argv, calls):
    # one matrix-route kernel per (sign, l) scanned or built, never two
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = uqsl2rep.kernel_dim
    seen = []

    def counted(l, c, sign):
        seen.append((sign, l))
        return real(l, c, sign)

    monkeypatch.setattr(uqsl2rep, "kernel_dim", counted)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert len(seen) == calls and len(set(seen)) == calls
    # the same request again in this process reads the stored verdicts
    seen.clear()
    assert run_cli(capsys, *argv) == (code, out)
    assert seen == []


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("coaction leg leaves the W-span")

    monkeypatch.setattr(fodc, "build_rform_calculus", broken)
    code = main(["--format", "json", "build-fodc", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal check failed: coaction leg leaves the W-span\n"


def test_text_format(capsys):
    code, out = run_cli(capsys, "eigenvalues", "--c", "s=1", "--l", "1",
                        "--sign", "-")
    assert code == 0
    assert "kernel dimension: 0" in out


def _readme_commands():
    """The argument lists of the `qsphere ...` lines in the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    cmds = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in cmds if argv and argv[0] == "qsphere"]


def test_readme_options_exist():
    # a flag named in the README (outside pip and pytest commands) must be
    # accepted by the parser or one of its subcommands
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"\b(pip|pytest)\b[^`\n]*", "", text)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    ap = build_parser()
    accepted = set(ap._option_string_actions)
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                accepted |= set(sub._option_string_actions)
    assert {"--format", "--lmax", "--verify-freeness"} <= named
    assert named <= accepted, sorted(named - accepted)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_path(argv):
    """tests/golden/<the arguments without leading dashes, joined by "_">.json"""
    name = "_".join(arg.lstrip("-") for arg in argv)
    return GOLDEN / (re.sub(r"[^A-Za-z0-9=.,+-]", "_", name) + ".json")


def test_readme_command_examples_run(capsys):
    # Each README command's JSON report must match its recorded output byte
    # for byte: arithmetic and evaluation changes may not move any report.
    cmds = _readme_commands()
    assert len(cmds) >= 6
    for argv in cmds:
        code, out = run_cli(capsys, "--format", "json", *argv)
        assert code == 0, argv
        json.loads(out)
        assert out == _golden_path(argv).read_text(), argv


def test_usage_error_leaves_the_parser_usable(capsys):
    # main builds its parser once per process; a usage error must not spoil it
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "classify", "--c", "s=1", "--lmax", "four"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["classify", "--c", "s=1", "--lmax", "4"]
    assert argv in _readme_commands()
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert out == _golden_path(argv).read_text()


def test_disagreeing_weight_routes_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    monkeypatch.setattr(uqsl2rep, "kernel_dim", lambda l, c, sign: 0)
    code = main(["classify", "--c", "s=1", "--lmax", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal check failed: operator and matrix routes "
                            "disagree at sign=+1 l=0\n")


def test_disagreement_on_a_weight_decided_mod_p_exits_3(capsys, monkeypatch):
    # (-1, 1) at s=1 is refuted mod P; its matrix-route kernel is still read
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = uqsl2rep.kernel_dim
    monkeypatch.setattr(uqsl2rep, "kernel_dim",
                        lambda l, c, sign: 1 if (sign, l) == (-1, 1) else real(l, c, sign))
    # the weights before (-1, 1) are stored once their routes agree; (-1, 1)
    # is not, so a second call checks it again and fails again
    for _ in range(2):
        code = main(["classify", "--c", "s=1", "--lmax", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("internal check failed: operator and matrix routes "
                                "disagree at sign=-1 l=1\n")
    # nothing wrong was stored: with the true kernels the report is the golden one
    monkeypatch.setattr(uqsl2rep, "kernel_dim", real)
    argv = ["classify", "--c", "s=1", "--lmax", "4"]
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0 and out == _golden_path(argv).read_text()


def test_de_generated_certificate_reads_the_candidates(capsys, monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})     # the planted verdicts stay here
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "s=1")
    assert code == 0
    assert json.loads(out)["certificates"] == [
        {"name": "candidate tangent spaces closed", "pass": True}]
    real = fodc.tangent_space

    def failing(*args, **kwargs):
        ts = real(*args, **kwargs)
        ts.certificate["pass"] = False
        return ts

    monkeypatch.setattr(fodc, "tangent_space", failing)
    code, out = run_cli(capsys, "--format", "json", "de-generated", "--c", "s=1")
    assert code == 1
    assert json.loads(out)["certificates"][0]["pass"] is False


def test_one_engine_per_c_per_process(monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    one = dualfunc.engine_of(parse_param_spec("s=1"))
    assert dualfunc.engine_of(parse_param_spec("s=1")) is one
    # s = -1 gives the same c = s^2 but the opposite alpha = -1/(s (q - q^-1))
    minus = dualfunc.engine_of(parse_param_spec("s=-1"))
    assert minus is not one
    assert minus.c.c_value() == one.c.c_value() and minus.alpha == -one.alpha
    inf = dualfunc.engine_of(parse_param_spec("inf"))
    assert inf is not one and inf is not minus
    assert dualfunc.engine_of(parse_param_spec("inf")) is inf
    assert len(dualfunc._ENGINES) == 3


@pytest.mark.parametrize("c, components, nu", [
    ("s=1", "+2", "id"), ("inf", "-0,+2", "flip"), ("exc:1", "-1,+2", "id")])
def test_warm_reports_equal_cold_ones(capsys, monkeypatch, c, components, nu):
    # each command twice in one process: the first call fills the engine of
    # c, the second reads it, and both emit the same report
    for argv in (("classify", "--c", c, "--lmax", "4"),
                 ("tangent-space", "--c", c, "--components=" + components),
                 ("de-generated", "--c", c),
                 ("build-fodc", "--c", c, "--n", "1", "--nu", nu, "--verify-freeness")):
        monkeypatch.setattr(dualfunc, "_ENGINES", {})
        cold = run_cli(capsys, "--format", "json", *argv)
        engine = dualfunc.engine_of(parse_param_spec(c))
        warm = run_cli(capsys, "--format", "json", *argv)
        assert list(dualfunc._ENGINES.values()) == [engine], argv
        assert cold[0] == warm[0] == 0, argv
        assert json.loads(cold[1]) == json.loads(warm[1]), argv
    # two components after a classify, which kept their modules and spaces
    pair = {"s=1": "+2,+4", "inf": "-0,+2", "exc:1": "-1,+2"}[c]
    argv = ("tangent-space", "--c", c, "--components=" + pair)
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    cold = run_cli(capsys, "--format", "json", *argv)
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    assert run_cli(capsys, "--format", "json", "classify", "--c", c, "--lmax", "4")[0] == 0
    assert run_cli(capsys, "--format", "json", *argv) == cold and cold[0] == 0


def test_a_module_failing_its_relations_is_not_kept(capsys, monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    real = uqsl2rep.relation_failures
    monkeypatch.setattr(uqsl2rep, "relation_failures", lambda E, F, K: ["planted"])
    code = main(["classify", "--c", "s=1", "--lmax", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal check failed: module fails planted\n"
    assert dualfunc.engine_of(parse_param_spec("s=1"))._kept == {}
    # with the real check the same engine gives the golden report
    monkeypatch.setattr(uqsl2rep, "relation_failures", real)
    argv = ["classify", "--c", "s=1", "--lmax", "4"]
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0 and out == _golden_path(argv).read_text()


def test_a_repeated_tangent_space_request_eliminates_nothing(capsys, monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    argv = ("tangent-space", "--c", "s=1", "--components=+2,+4")
    calls = []
    for name in ("_eliminate", "_pivot_rows_mod_p"):
        monkeypatch.setattr(linalg, name, lambda *a, real=getattr(linalg, name), name=name:
                            calls.append(name) or real(*a))
    cold = run_cli(capsys, "--format", "json", *argv)
    assert cold[0] == 0 and calls
    calls.clear()
    assert run_cli(capsys, "--format", "json", *argv) == cold
    assert calls == []


def test_a_repeated_build_fodc_request_applies_no_left_action(capsys, monkeypatch):
    monkeypatch.setattr(dualfunc, "_ENGINES", {})
    argv = ("--format", "json", "build-fodc", "--c", "s=1", "--n", "1")
    calls = []
    real = fodc.CalculusPresentation.lmult
    monkeypatch.setattr(fodc.CalculusPresentation, "lmult",
                        lambda self, a, coords: calls.append(a) or real(self, a, coords))
    cold = run_cli(capsys, *argv)
    assert cold[0] == 0 and calls
    calls.clear()
    assert run_cli(capsys, *argv) == cold
    assert calls == []
    # the kept tables are handed out as copies
    pres = fodc.build_rform_calculus(1, "id", parse_param_spec("s=1"))
    doc = pres.to_json_dict()
    doc["differential_table"]["e1"][0] = doc["left_action_table"]["A"][0][0] = "x"
    again, first = pres.to_json_dict(), json.loads(cold[1])
    for key in ("differential_table", "left_action_table"):
        assert again[key] == first[key]
