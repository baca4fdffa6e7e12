"""Command-line surface: parsing, dispatch, exit codes, JSON stability."""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest
from jsonschema import validate

from borelcmp import cli, labverbs, reducibility, selftest
from borelcmp.cli import (
    EXIT_DOMAIN,
    EXIT_FALSE_VERDICT,
    EXIT_OK,
    EXIT_USAGE,
    Command,
    UsageError,
    main,
    parse_command,
    render,
    run,
)
from borelcmp.groups import REAL, TORUS, group, solenoid
from borelcmp.literals import render_group
from borelcmp.reducibility import EdgeReason, reduces
from borelcmp.setliterals import MAX_SET_FROM, MAX_SET_LISTED, MAX_SET_PERIOD
from borelcmp.supernatural import OMEGA, SupernaturalProfile

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCHEMA = json.loads((GOLDEN / "report.schema.json").read_text())


def run_argv(argv):
    return run(parse_command(argv))


# -- parse_command ----------------------------------------------------------------

def test_parse_command_reduce():
    command = parse_command(["reduce", "R^2 x T", "T^3", "--json"])
    assert command.verb == "reduce"
    assert command.g == group(REAL, REAL, TORUS)
    assert command.h == group(TORUS, TORUS, TORUS)
    assert command.format == "json" and not command.exit_verdict


def test_parse_command_preceq():
    command = parse_command(["preceq", "{2:7,3:w}", "{2:5,3:w}"])
    assert command.q_profile == SupernaturalProfile({2: 7, 3: OMEGA})
    assert command.p_profile == SupernaturalProfile({2: 5, 3: OMEGA})


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["reduce", "Sol{2:3}", "T"], "finite total"),
        (["reduce", "R x", "T"], "expected a group atom"),
        (["frobnicate", "R"], "invalid choice"),
        (["reduce", "R", "T", "--frobnicate"], "unrecognized"),
        (["preceq", "{2:w}", "{3:w}", "--oracle-window", "0"], "positive"),
        (["family-compare", "--a", "fin{1,}", "--b", "fin{}"], "expected a number"),
        (["dim", "T^1" + "0" * 4400], "too long"),
    ],
)
def test_parse_command_usage_errors(argv, fragment):
    with pytest.raises(UsageError) as err:
        parse_command(argv)
    assert fragment in str(err.value)


EVENS = "ups{from=0; period=2; word=10}"


@pytest.mark.parametrize(
    "argv, same_as",
    [
        # flags before, between and after the positionals
        (["reduce", "--json", "--certificate", "Sol{2:5,3:w}", "Sol{2:9,3:w}"],
         ["reduce", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--json", "--certificate"]),
        (["reduce", "Sol{2:5,3:w}", "--certificate", "Sol{2:9,3:w}"],
         ["reduce", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--certificate"]),
        (["preceq", "--oracle-window", "100", "{2:7,3:w}", "{2:5,3:w}"],
         ["preceq", "{2:7,3:w}", "{2:5,3:w}", "--oracle-window", "100"]),
        (["family-expand", "--len=4", f"--a={EVENS}"], ["family-expand", "--a", EVENS, "--len", "4"]),
        # a repeated flag takes its last value, as in argparse: --depth 40 alone is over its cap
        (["family-demo", "--depth", "40", "--depth", "2"], ["family-demo", "--depth", "2"]),
        (["family-expand", "--a", "fin{1}", "--len", "2", "--a", EVENS], ["family-expand", "--a", EVENS, "--len", "2"]),
    ],
)
def test_main_reads_flags_anywhere_and_in_either_form(argv, same_as, capsys):
    assert main(same_as) == EXIT_OK
    expected = capsys.readouterr()
    assert main(argv) == EXIT_OK
    # the report's inputs are the literals' texts, so the outputs are byte-identical
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        # a negative --len is a value, not a flag, and reaches the domain check
        (["family-expand", "--a", "fin{}", "--len", "-3"], EXIT_DOMAIN, "ERROR\nterm count must be nonnegative"),
        (["family-compare", "--b", "fin{}"], EXIT_USAGE, "usage error: the following arguments are required: --a"),
        (["family-compare", "--a", "fin{}"], EXIT_USAGE, "usage error: the following arguments are required: --b"),
        (["family-expand", "--a", "fin{}"], EXIT_USAGE, "usage error: the following arguments are required: --len"),
        (["reduce", "R"], EXIT_USAGE, "usage error: the following arguments are required: <H>"),
        ([], EXIT_USAGE, "usage error: the following arguments are required: verb"),
        (["dim", "T", "--json"], EXIT_USAGE, "usage error: unrecognized arguments: --json"),
        (["reduce", "T", "T", "--len", "3"], EXIT_USAGE, "usage error: unrecognized arguments: --len"),
        (["reduce", "T", "T", "T"], EXIT_USAGE, "usage error: unrecognized arguments: T"),
        (["family-demo", "--depth", "x"], EXIT_USAGE, "usage error: argument --depth: invalid int value: 'x'"),
        (["family-demo", "--depth=2.5"], EXIT_USAGE, "usage error: argument --depth: invalid int value: '2.5'"),
        (["family-demo", "--depth"], EXIT_USAGE, "usage error: argument --depth: expected one argument"),
        (["family-new", "--p", "--q", "{default=w}"], EXIT_USAGE, "usage error: argument --p: expected one argument"),
        (["reduce", "T", "T", "--json=yes"], EXIT_USAGE, "usage error: unrecognized arguments: --json=yes"),
        # long flags are never abbreviated
        (["reduce", "T", "T", "--cert"], EXIT_USAGE, "usage error: unrecognized arguments: --cert"),
        (["family-expand", "--a", "fin{}", "--le", "3"], EXIT_USAGE, "usage error: unrecognized arguments: --le"),
        # a surplus prime past the spare primes below 2^32 is refused before any walk
        (["family-compare", "--a", "fin{1000000000}", "--b", "fin{}", "--crosscheck", "10"], EXIT_DOMAIN,
         "ERROR\nA minus B holds 1000000000: d-index 3000000001 is past the 203280220 d-primes below 2^32\n"),
    ],
)
def test_main_exit_codes_of_the_grammar(argv, code, fragment, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out if code == EXIT_DOMAIN else captured.err).startswith(fragment)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_synopsis_and_exits_zero(flag, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([flag])
    assert exit_.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage:\n") and all(f"  borelcmp {cli.synopsis(verb)}\n" in out for verb in cli.VERBS)
    with pytest.raises(SystemExit) as exit_:
        main(["family-expand", "--a", "fin{}", flag])
    assert exit_.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "usage:\n  borelcmp family-expand --a <ups> --len N\n      concrete member sequence prefix\n"


def test_help_in_a_process_exits_zero():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "borelcmp.cli", "--help"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout.splitlines()[1] == "  borelcmp reduce <G> <H> [--json] [--certificate] [--exit-verdict]"


def test_readme_usage_block_is_the_synopsis():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == [f"borelcmp {cli.synopsis(verb)}" for verb in cli.VERBS]


# -- run and exit codes --------------------------------------------------------------

def test_reduce_exit_codes_do_not_depend_on_verdict():
    _, code = run_argv(["reduce", "R^2 x T", "T^3"])
    assert code == EXIT_OK
    _, code = run_argv(["reduce", "T", "R"])
    assert code == EXIT_OK


def test_exit_verdict_flag_maps_false_to_three():
    _, code = run_argv(["reduce", "T", "R", "--exit-verdict"])
    assert code == EXIT_FALSE_VERDICT
    _, code = run_argv(["reduce", "R", "T", "--exit-verdict"])
    assert code == EXIT_OK


def test_domain_error_exit_code(capsys):
    for argv in (
        ["family-new", "--p", "{default=w}", "--q", "{2:w}"],
        # over the factor cap, refused while the literal is parsed
        ["dim", "T^100000000000000000000"],
        ["dim", "T^1" + "0" * 4200],
        ["reduce", "T", "(R x T)^5000001", "--json"],
    ):
        report, code = run_argv(argv)
        assert code == EXIT_DOMAIN
        assert report["verdict"] == "ERROR"
        assert report["diagnostics"]
        assert main(argv) == EXIT_DOMAIN
        assert "ERROR" in capsys.readouterr().out


def test_reduce_report_content():
    report, _ = run_argv(["reduce", "R^2 x T", "T^3", "--json"])
    assert report["verdict"] is True
    assert "edges" in report["certificate"]
    covered = sorted(edge["left"] for edge in report["certificate"]["edges"])
    assert covered == [1, 2, 3]
    report, _ = run_argv(["reduce", "Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T", "--json"])
    assert report["verdict"] is False
    assert report["certificate"] == {"violator": {"K": [1, 2], "NK": [2]}}
    # text output never prints the certificate, so the text run builds none
    for g, h in (("R^2 x T", "T^3"), ("Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T")):
        report, _ = run_argv(["reduce", g, h])
        assert "certificate" not in report and report["diagnostics"]


def _witness_lines(verdict) -> list:
    """The text lines of a positive ``reduce --certificate``, one per
    ``EdgeWitness`` of the certificate."""
    lines = []
    for w in verdict.certificate:
        line = f"{w.left_index} -> {w.right_index} ({w.reason.value.removeprefix('RULE_')})"
        if w.reason is EdgeReason.RULE_SOL_SOL:
            pairs = ", ".join(f"{g}^{d}" for g, d in w.deficit) or "none"
            line += f" [surplus: {pairs}; total {w.total_deficit}]"
        lines.append(line)
    return lines


def test_reduce_text_lines_are_the_certificate_edges(rng):
    """The text form renders straight from the blocks, line for line what
    the certificate's witnesses give."""
    report, _ = run_argv(["reduce", "Sol{2:5,3:w,5:1} x T^2", "T x Sol{2:9,3:w,5:3} x T", "--certificate"])
    assert report["diagnostics"] == [
        "1 -> 2 (SOL_SOL) [surplus: 2^4, 5^2; total 6]", "2 -> 3 (T_T)", "3 -> 1 (T_T)"]
    positive = 0
    for _ in range(300):
        g, h = selftest.random_expr(rng, 5), selftest.random_expr(rng, 5)
        verdict = reduces(g, h)
        if verdict.reducible:
            positive += 1
            argv = ["reduce", render_group(g), render_group(h), "--certificate"]
            assert run_argv(argv)[0]["diagnostics"] == _witness_lines(verdict), argv
    assert positive > 50


def test_compare_and_dim_and_normalize():
    report, code = run_argv(["compare", "Sol{2:w}", "Sol{3:w}"])
    assert (report["verdict"], code) == ("INCOMPARABLE", EXIT_OK)
    report, _ = run_argv(["dim", "R^2 x T x Sol{2:w}"])
    assert report["verdict"] == "4"
    report, _ = run_argv(["normalize", "(R x T)^2 x S[4,6,8|9]"])
    assert report["verdict"] == "R x T x R x T x Sol{2:6, 3:w}"


def test_preceq_verb_with_oracle_window():
    report, code = run_argv(["preceq", "{2:7,3:w}", "{2:5,3:w}", "--oracle-window", "50"])
    assert report["verdict"] is True and code == EXIT_OK
    assert any("deficit = 2" in line for line in report["diagnostics"])
    assert any("embeds" in line and "True" in line for line in report["diagnostics"])
    report, _ = run_argv(["preceq", "{default=w}", "{2:w}", "--oracle-window", "50"])
    assert report["verdict"] is False
    assert any("witness prime 3" in line for line in report["diagnostics"])
    assert any("fails to embed: True" in line for line in report["diagnostics"])



@pytest.mark.parametrize(
    "q, p, window, line",
    [
        ("{2:w}", "{default=w}", "10000",
         "oracle: window of 10000 terms after drop 0 embeds in a prefix of 49995001 terms: True"),
        ("{2:w}", "{default=w}", "1000000",
         "oracle: window of 1000000 terms after drop 0 embeds in a prefix of 499999500001 terms: True"),
        ("{2:999999999,3:w}", "{3:w}", "1",
         "oracle: window of 1 terms after drop 999999999 embeds in a prefix of 1 terms: True"),
        ("{3:w}", "{2:999999999,3:w}", "1",
         "oracle: window of 1 terms after drop 0 embeds in a prefix of 1000000000 terms: True"),
        ("{2:w}", "{2:999999999,3:w}", "1", "oracle: INCONCLUSIVE (needs window 1000000000)"),
        ("{5:w}", "{2:999999999,5:3,7:w}", "10", "oracle: window with 4 occurrences of 5 fails to embed: True"),
    ],
)
def test_preceq_oracle_far_into_the_sequences(q, p, window, line, capsys):
    start = time.perf_counter()
    assert main(["preceq", q, p, "--oracle-window", window]) == EXIT_OK
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.splitlines()[-1] == line


def _ups(period: int, members) -> str:
    word = "".join("1" if r in members else "0" for r in range(period))
    return f"ups{{from=0; period={period}; word={word}}}"


@pytest.mark.parametrize(
    "a, b, window, status",
    [
        ("fin{" + ",".join(map(str, range(500))) + "}", "fin{}", 100, "INCONCLUSIVE (needs window 1000)"),
        ("fin{" + ",".join(map(str, range(500))) + "}", "fin{}", 1000, "CONSISTENT"),
        (_ups(3000, {0}), _ups(2999, {0}), 5000, "INCONCLUSIVE (needs window 5997)"),
        (_ups(3000, {0}), _ups(2999, {0}), 5997, "CONSISTENT"),
        ("fin{}", _ups(100, range(1, 100)), 100, "CONSISTENT"),
    ],
)
def test_crosschecks_once_inconsistent_are_consistent_or_name_their_window(a, b, window, status, capsys):
    assert main(["family-compare", "--a", a, "--b", b, "--crosscheck", str(window)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "crosscheck: " + status
    if status != "CONSISTENT":
        assert lines[3] == "oracle: " + status


def test_crosscheck_reports_a_contradicted_verdict_as_inconsistent(monkeypatch, capsys):
    from borelcmp import posetlab

    flipped = lambda m_a, m_b, _reduces=posetlab.member_reduces: not _reduces(m_a, m_b)  # noqa: E731
    monkeypatch.setattr(posetlab, "member_reduces", flipped)
    argv = ["family-compare", "--a", "ups{from=0; period=2; word=10}", "--b", "ups{from=0; period=4; word=1000}"]
    assert main([*argv, "--crosscheck", "100"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == [
        "REDUCIBLE",
        "crosscheck: INCONSISTENT: symbolic surplus finiteness disagrees with the verdict; "
        "oracle embedding failed despite a positive verdict",
    ]


def test_family_verbs():
    report, code = run_argv(["family-new"])
    assert code == EXIT_OK and report["verdict"] == "OK"
    assert any("3, 5, 7, 11" in line for line in report["diagnostics"])

    report, code = run_argv(["family-expand", "--a", "ups{from=0; period=2; word=10}", "--len", "4"])
    assert code == EXIT_OK and report["verdict"] == "13,3,37,2"

    report, code = run_argv(
        [
            "family-compare",
            "--a", "ups{from=0; period=2; word=10}",
            "--b", "ups{from=0; period=2; word=01}",
            "--crosscheck", "80",
        ]
    )
    assert code == EXIT_OK and report["verdict"] is False
    assert any("CONSISTENT" in line for line in report["diagnostics"])

    report, code = run_argv(["family-demo", "--depth", "3", "--power", "2"])
    assert code == EXIT_OK and report["verdict"] == "OK"
    assert any("mult(4)" in line for line in report["diagnostics"])


def test_selftest_verb_passes():
    report, code = run_argv(["selftest"])
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert len(report["diagnostics"]) == len(selftest.CRITERIA) == 11
    for line, (number, name, _) in zip(report["diagnostics"], selftest.CRITERIA):
        assert line.startswith(f"PASS  {number:02d} {name}  (")


def test_selftest_verb_reports_a_failing_and_a_raising_criterion(monkeypatch):
    def raising(rng):
        raise RuntimeError("boom")

    monkeypatch.setattr(
        selftest,
        "CRITERIA",
        (
            (1, "passing", lambda rng: (True, "fine")),
            (2, "raising", raising),
            (3, "failing", lambda rng: (False, "wrong verdict")),
        ),
    )
    report, code = run_argv(["selftest"])
    assert code == EXIT_USAGE == 1
    assert report["verdict"] == "FAIL"
    assert report["diagnostics"] == [
        "PASS  01 passing  (fine)",
        "FAIL  02 raising  (raised RuntimeError: boom)",
        "FAIL  03 failing  (wrong verdict)",
    ]


# -- rendering and JSON ----------------------------------------------------------------

def test_json_round_trip():
    for argv in (
        ["reduce", "R^2 x T", "T^3", "--json", "--certificate"],
        ["reduce", "T", "Sol{2:w}", "--json"],
        ["compare", "R", "T", "--json"],
        ["dual", "R x T", "--json"],
    ):
        command = parse_command(argv)
        report, _ = run(command)
        assert command.format == "json" and json.loads(render(command, report)) == report


def test_reports_validate_against_documented_schema(rng):
    argvs = [
        ["reduce", "R^2 x T", "T^3", "--json"],
        ["reduce", "Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T", "--json"],
        ["reduce", "Sol{2:9,3:w}", "Sol{2:5,3:w}", "--json", "--certificate"],
        ["compare", "Sol{2:w}", "Sol{3:w}", "--json"],
        ["dual", "R x T^2 x Sol{2:6,3:w}", "--json"],
    ]
    for argv in argvs:
        report, _ = run_argv(argv)
        validate(report, SCHEMA)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("reduce_true.json", ["reduce", "R^2 x T", "T^3", "--json", "--certificate"]),
        ("reduce_false.json", ["reduce", "Sol{2:w} x Sol{3:w}", "Sol{2:w,3:w} x T", "--json"]),
        ("compare.json", ["compare", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--json"]),
        ("dual.json", ["dual", "T^2 x Sol{2:6,3:w}", "--json"]),
    ],
)
def test_golden_reports(name, argv):
    command = parse_command(argv)
    report, _ = run(command)
    assert render(command, report) + "\n" == (GOLDEN / name).read_text()
    validate(json.loads(render(command, report)), SCHEMA)


def test_output_is_deterministic():
    argv = ["reduce", "Sol{2:9,3:w} x T x R", "R x Sol{2:5,3:w} x T^2", "--json", "--certificate"]
    first, second = parse_command(argv), parse_command(argv)
    assert render(first, run(first)[0]) == render(second, run(second)[0])


# -- main ------------------------------------------------------------------------------

def test_main_text_output(capsys):
    code = main(["reduce", "R^2 x T", "T^3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == "REDUCIBLE"
    assert "1 -> " in out


def test_main_usage_error(capsys):
    code = main(["reduce", "Sol{2:3}", "T"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "usage error" in captured.err
    assert "finite total" in captured.err
    assert captured.out == ""


def test_main_refuses_deep_nesting_as_a_usage_error(capsys):
    code = main(["normalize", "(" * 400 + "T" + ")" * 400])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "usage error: parentheses nest deeper than 100 levels (at position 100)\n"
    assert captured.out == ""


def test_main_internal_error(monkeypatch, capsys):
    def broken(g, h):
        raise RuntimeError("boom")

    monkeypatch.setattr(reducibility, "reduces", broken)  # the binding the handler reads
    code = main(["reduce", "T", "T"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_reduce_prints_the_witness_a_contradicted_verdict_carries(monkeypatch, capsys):
    def flipped(g, h, _reduces=reducibility.reduces):
        verdict = _reduces(g, h)
        return reducibility.Verdict(not verdict.reducible, verdict.certificate, verdict.violator)

    monkeypatch.setattr(reducibility, "reduces", flipped)  # the binding the handler reads
    assert main(["reduce", "R^2 x T", "T^3"]) == EXIT_OK
    assert capsys.readouterr().out == "NOT REDUCIBLE\n1 -> 3 (R_ANY)\n2 -> 2 (R_ANY)\n3 -> 1 (T_T)\n"
    assert main(["reduce", "T", "R", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["certificate"]) == (True, {"violator": {"K": [1], "NK": []}})


def test_a_reader_that_closes_stdout_early_changes_no_exit_code():
    # about 590 KB of terms, far more than a pipe holds: a write meets the closed pipe
    argv = [sys.executable, "-m", "borelcmp.cli", "family-expand", "--a", "fin{}", "--len", "100000"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.read(10) == b"5,3,13,2,2"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == EXIT_OK


def test_main_reduces_a_thousand_circles(capsys):
    assert main(["reduce", "T^1000", "T^1000"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "REDUCIBLE" and len(lines) == 1001


# the product of two 90-bit primes, which no verb factors
SEMIPRIME = 618970019668049015295030157 * 928455029464802529184826323


def test_main_decides_a_semiprime_over_the_factoring_budget(capsys):
    # the verdict reads the unsplit key; no prime of it is needed
    start = time.perf_counter()
    code = main(["reduce", f"S[{SEMIPRIME}|3]", "T"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert capsys.readouterr().out == "REDUCIBLE\n1 -> 1 (SOL_T)\n"


@pytest.mark.parametrize("n", [SEMIPRIME, (2**89 - 1) ** 2], ids=["semiprime", "square"])
def test_main_prints_a_key_past_trial_division_marked(capsys, n):
    # normalize and dual print the unsplit key as it is, marked as no prime
    start = time.perf_counter()
    assert main(["normalize", f"S[{n}|3]"]) == EXIT_OK
    assert main(["dual", f"S[{n}|3]"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines()[:2] == [f"Sol{{3:w, [{n}]:1}}", f"Q{{3:w, [{n}]:1}}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["family-demo", "--depth", "40"],  # a word of 2^39 bits before the cap
        ["family-demo", "--depth", "23"],
        ["family-expand", "--a", "fin{1}", "--len", "100001"],
        ["preceq", "{2:w}", "{2:w}", "--oracle-window", "1000001"],
        ["family-compare", "--a", "fin{1}", "--b", "fin{2}", "--crosscheck", "10001"],
    ],
)
def test_size_options_over_their_caps_are_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == EXIT_DOMAIN
    assert time.perf_counter() - start < 1.0
    flag, value = argv[-2:]
    message = f"{flag} {value} is over its cap of {cli.SIZE_CAPS[flag][1]}"
    assert capsys.readouterr().out.splitlines() == ["ERROR", message]


def test_size_options_at_their_caps_are_accepted():
    for argv, handler in (
        (["family-demo", "--depth", "22"], labverbs._family_demo),
        (["family-expand", "--a", "fin{1}", "--len", "100000"], labverbs._family_expand),
        (["preceq", "{2:w}", "{2:w}", "--oracle-window", "1000000"], labverbs._preceq),
        (["family-compare", "--a", "fin{1}", "--b", "fin{2}", "--crosscheck", "10000"], labverbs._family_compare),
    ):
        assert parse_command(argv).handler is handler


def _listed(n):
    return ",".join(map(str, range(n)))


@pytest.mark.parametrize(
    "what, cap, literal",
    [
        ("from", MAX_SET_FROM, lambda n: f"ups{{from={n}; period=1; word=0}}"),
        ("period", MAX_SET_PERIOD, lambda n: f"ups{{from=0; period={n}; word=1{'0' * (n - 1)}}}"),
        ("fin list length", MAX_SET_LISTED, lambda n: f"fin{{{_listed(n)}}}"),
        ("cofin list length", MAX_SET_LISTED, lambda n: f"cofin{{{_listed(n)}}}"),
        ("except list length", MAX_SET_LISTED, lambda n: f"ups{{except={_listed(n)}; from={n}; period=2; word=10}}"),
    ],
)
def test_set_literal_caps(what, cap, literal, capsys):
    argv = ["family-compare", "--a", literal(cap), "--b", "ups{from=0; period=2; word=10}"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out in ("REDUCIBLE\n", "NOT REDUCIBLE\n")
    argv[2] = literal(cap + 1)
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().out.splitlines() == ["ERROR", f"{what} {cap + 1} is over its cap of {cap}"]


def test_set_literal_member_values_are_not_capped(capsys):
    assert main(["family-compare", "--a", f"fin{{{10**30}}}", "--b", f"cofin{{{10**30}}}"]) == EXIT_OK
    assert capsys.readouterr().out == "REDUCIBLE\n"


def test_set_values_past_sys_maxsize_reach_no_itertools_limit(capsys):
    # 10^19 is past sys.maxsize, the largest count itertools takes; no walk
    # gets that far, so every prefix is that of the empty set
    far = f"fin{{{10**19}}}"
    assert main(["family-expand", "--a", "fin{}", "--len", "5"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["family-expand", "--a", far, "--len", "5"]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert main(["family-compare", "--a", "fin{}", "--b", far, "--crosscheck", "10"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["REDUCIBLE", "crosscheck: CONSISTENT"]
    # with it in A minus B, its surplus prime is past any walk: a refusal
    assert main(["family-compare", "--a", far, "--b", "fin{}", "--crosscheck", "10"]) == EXIT_DOMAIN
    assert capsys.readouterr().out.splitlines()[0] == "ERROR"


def test_main_json_output(capsys):
    code = main(["compare", "R", "Sol{2:w}", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["verdict"] == "LEFT_STRICT"
    validate(payload, SCHEMA)


def _readme_transcript():
    """(argv, stdout) for every ``$ borelcmp ...`` line of README.md: the
    output is the lines below it up to a blank line or the closing fence."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = []
    for index, line in enumerate(lines):
        if line.startswith("$ borelcmp "):
            shown = []
            for out in lines[index + 1:]:
                if not out or out.startswith("```"):
                    break
                shown.append(out + "\n")
            examples.append((shlex.split(line)[2:], "".join(shown)))
    return examples


def test_readme_transcript(capsys):
    examples = _readme_transcript()
    assert examples
    for argv, shown in examples:
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == shown, argv


@pytest.mark.parametrize(
    "entry",
    json.loads((GOLDEN / "cli_text.json").read_text()),
    ids=lambda entry: entry["argv"][0],
)
def test_golden_text_output(entry, capsys):
    code = main(entry["argv"])
    captured = capsys.readouterr()
    assert (captured.out, code) == (entry["stdout"], entry["exit"])
    assert captured.err.startswith(entry["stderr_prefix"])
