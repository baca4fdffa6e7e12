"""Command-line surface.

``VERBS`` holds the verbs with their positionals and flags, and
``borelcmp --help`` prints their synopsis, the one README.md shows.  Flags
may come before, between or after the positionals, as ``--flag value`` or
``--flag=value``; a repeated flag takes its last value, and a long flag is
never abbreviated.

Exit codes: 0 for a completed computation (whatever the verdict), 1 for a
usage or parse error, 2 for a domain error, 3 for a false verdict when
``--exit-verdict`` asks for it, and 4 for an internal error.  Verdicts are
data, not failures, and a reader that closes stdout early changes no exit
code.

The ``family-*`` verbs operate on the default family (p = {2:w},
q = {default=w}); ``family-new`` validates and describes an arbitrary one.

A process loads only what its verb runs, and none loads ``argparse``.
Every verb loads the expressions, the profiles and their literals.
``reduce`` and ``compare`` add ``reducibility``, ``dual`` ``duality``,
and ``preceq``, the ``family-*`` verbs and ``selftest`` their handlers in
``labverbs``: ``preceq`` with ``replay`` and ``farprimes``, the
``family-*`` verbs with ``posetlab`` (which loads both) and
``setliterals`` for ``--a``/``--b``, ``selftest`` with all of these.
``S[...]`` adds ``sequences``, or with a composite cofactor also
``coprime``, and ``--json`` the ``json`` module.

``run`` returns the report of a command as the dict that ``--json`` prints,
a shape the golden tests pin:

    {
      "verb": str,
      "inputs": [str, ...],
      "verdict": bool | str,
      "certificate": {"edges": [{"left": int, "right": int,
                                 "reason": str,
                                 "deficit": [[key, int], ...]}, ...]}
                   | {"violator": {"K": [int, ...], "NK": [int, ...]}},
      "diagnostics": [str, ...]
    }

A ``deficit`` key is a prime, or an element of the coprime base of the
edge's two profiles when one has an unsplit key.  ``certificate`` is
present only for verbs that produce one.  Output is deterministic: no
timestamps, fixed ordering everywhere.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import EXIT_DOMAIN, EXIT_FALSE_VERDICT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE
from .errors import BorelcmpError, DomainError, ParseError, forwarding
from .groups import dimension, is_compact
from .literals import parse_group, parse_profile, render_dual, render_group
from .supernatural import preceq  # noqa: F401  bench/tracing.py patches this binding

# Size options: flag -> (dest, largest accepted value).  Their work grows
# with the value (``--depth`` doubles the period of the demo's sets), so a
# larger value is a domain error, refused before any work starts.
SIZE_CAPS = {
    "--depth": ("depth", 22),
    "--len": ("length", 10**5),
    "--oracle-window": ("oracle_window", 10**6),
    "--crosscheck": ("crosscheck", 10**4),
}

# verb -> (its handler, by name: a function of this module or of
# ``labverbs``; the dests of its positionals; its flags, each with its
# default, REQUIRED for a flag that must be given; its help line)
REQUIRED = object()
VERBS = {
    "reduce": ("_reduce", ("g", "h"), {"--json": "text", "--certificate": False, "--exit-verdict": False},
               "decide E(G) <= E(H)"),
    "compare": ("_compare", ("g", "h"), {"--json": "text"}, "compare both directions"),
    "dual": ("_dual", ("g",), {"--json": "text"}, "dual group of an expression"),
    "dim": ("_dim", ("g",), {}, "covering dimension"),
    "normalize": ("_normalize", ("g",), {}, "normalize an expression"),
    "preceq": ("_preceq", ("q_profile", "p_profile"), {"--oracle-window": None}, "profile embedding order"),
    "family-new": ("_family_new", (), {"--p": None, "--q": None}, "validate and describe a family"),
    "family-compare": ("_family_compare", (), {"--a": REQUIRED, "--b": REQUIRED, "--power": 1, "--crosscheck": None},
                       "order two members of the default family"),
    "family-expand": ("_family_expand", (), {"--a": REQUIRED, "--len": REQUIRED}, "concrete member sequence prefix"),
    "family-demo": ("_family_demo", (), {"--depth": 3, "--power": 1}, "chain and antichain demo"),
    "selftest": ("_selftest", (), {}, "run all eleven acceptance criteria at full scale"),
}
# flag -> (dest, the value a switch stores) or (dest, type, metavar) for a
# flag that takes a value, as the next argument or after ``=``
FLAGS = {
    "--json": ("format", "json"),
    "--certificate": ("show_certificate", True),
    "--exit-verdict": ("exit_verdict", True),
    "--oracle-window": ("oracle_window", int, "N"),
    "--p": ("p", str, "<profile>"),
    "--q": ("q", str, "<profile>"),
    "--a": ("a", str, "<ups>"),
    "--b": ("b", str, "<ups>"),
    "--power": ("power", int, "n"),
    "--crosscheck": ("crosscheck", int, "N"),
    "--len": ("length", int, "N"),
    "--depth": ("depth", int, "k"),
}
_METAVARS = {"g": "<G>", "h": "<H>", "q_profile": "<profile>", "p_profile": "<profile>"}


# A parsed command: ``verb``, ``handler``, ``format`` ("text" or "json") and
# an attribute per positional and flag of the verb, every literal already
# turned into its engine value and its text kept in ``inputs``.
Command = SimpleNamespace


# bench/tracing.py and bench/selfcheck.py patch these bindings, by name ->
# module; each resolves on first use (PEP 562).  The handlers read the
# module's own binding at call time.  Kept only for the benchmark, like the
# tracer imports in ``reducibility``, ``supernatural``, ``literals`` and
# ``posetlab`` (ROADMAP item 19).
__getattr__ = forwarding(globals(), {
    "reduces": "reducibility",
    "member_crosscheck": "posetlab",
    "member_sequence": "posetlab",
    "chain_demo": "posetlab",
    "parse_upset": "setliterals",
})


def _is_flag(token: str) -> bool:
    """Whether ``token`` names a flag; a negative number is a value, as in argparse."""
    return token.startswith("-") and not token[1:].isdigit()


class UsageError(BorelcmpError):
    """Bad command line: unknown verb or flag, or a malformed literal."""


def synopsis(verb: str) -> str:
    """The verb's usage line, from ``VERBS`` and ``FLAGS``."""
    _, positionals, flags, _ = VERBS[verb]
    parts = [verb, *map(_METAVARS.get, positionals)]
    for flag, default in flags.items():
        part = " ".join((flag, *FLAGS[flag][2:]))
        parts.append(part if default is REQUIRED else f"[{part}]")
    return " ".join(parts)


def _arguments(verb: str, tokens: list) -> dict:
    """The verb's arguments, by dest, read from ``tokens``: positionals and
    flags in any order, ``--flag value`` or ``--flag=value``, the last of a
    repeated flag winning."""
    _, positionals, flags, _ = VERBS[verb]
    fields = {"format": "text", **{FLAGS[flag][0]: default for flag, default in flags.items()}}
    given = []
    tokens = iter(tokens)
    for token in tokens:
        if not _is_flag(token):
            given.append(token)
            continue
        flag, has_value, value = token.partition("=")
        if flag not in flags or has_value and len(FLAGS[flag]) == 2:  # a switch takes no value
            raise UsageError(f"unrecognized arguments: {token}")
        dest, *kind = FLAGS[flag]
        if len(kind) == 1:
            fields[dest] = kind[0]
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            fields[dest] = kind[0](value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
    if len(given) > len(positionals):
        raise UsageError("unrecognized arguments: " + " ".join(given[len(positionals):]))
    missing = [_METAVARS[dest] for dest in positionals[len(given):]]
    missing += [flag for flag in flags if fields[FLAGS[flag][0]] is REQUIRED]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return {**fields, **dict(zip(positionals, given))}


def parse_command(argv) -> Command:
    """Parse and validate a full command line; no partial execution."""
    argv = list(argv)
    verb, *tokens = argv or [""]
    if "-h" in argv or "--help" in argv:  # the synopsis of the verb, or of every verb
        _emit("usage:\n" + "\n".join(f"  borelcmp {synopsis(v)}\n      {VERBS[v][3]}"
                                      for v in ([verb] if verb in VERBS else VERBS)))
        raise SystemExit(EXIT_OK)
    if not argv:
        raise UsageError("the following arguments are required: verb")
    if verb not in VERBS:
        raise UsageError(f"argument verb: invalid choice: {verb!r} (choose from {', '.join(map(repr, VERBS))})")
    name = VERBS[verb][0]
    handler = globals().get(name) or getattr(__import__(f"{__package__}.labverbs", fromlist=[name]), name)
    command = Command(verb=verb, handler=handler, **_arguments(verb, tokens))
    for flag in ("oracle_window", "crosscheck"):
        value = getattr(command, flag, None)
        if value is not None and value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be positive")
    for flag, (dest, cap) in SIZE_CAPS.items():
        value = getattr(command, dest, None)
        if value is not None and value > cap:
            command.handler = _refusal(DomainError(f"{flag} {value} is over its cap of {cap}"))
    # every literal argument of every verb, by dest, in the order of a report's
    # inputs, with its parser's name, looked up at call time
    literals = (
        ("g", "parse_group"), ("h", "parse_group"),
        ("q_profile", "parse_profile"), ("p_profile", "parse_profile"),
        ("p", "parse_profile"), ("q", "parse_profile"),
        ("a", "parse_upset"), ("b", "parse_upset"),
    )
    given = [(dest, parse) for dest, parse in literals if getattr(command, dest, None) is not None]
    command.inputs = tuple(getattr(command, dest) for dest, _ in given)
    try:
        for dest, parse in given:
            parser = globals().get(parse) or __getattr__(parse)  # a forwarded parser resolves on first use
            setattr(command, dest, parser(getattr(command, dest)))
    except ParseError as exc:
        raise UsageError(str(exc)) from exc
    except DomainError as exc:  # a well-formed literal out of the domain, e.g. over the factor cap
        command.handler = _refusal(exc)
    return command


def _refusal(error: DomainError):
    """A handler that raises ``error``, which ``run`` reports as exit code 2."""
    def refuse(command: Command):
        raise error

    return refuse


def run(command: Command):
    """Run a parsed command's handler and build its report, the dict that
    ``--json`` prints; domain errors become exit code 2."""
    try:
        fields, code = command.handler(command)
    except DomainError as exc:
        fields, code = {"verdict": "ERROR", "diagnostics": (str(exc),)}, EXIT_DOMAIN
    report = {"verb": command.verb, "inputs": list(command.inputs), "verdict": fields["verdict"]}
    if "certificate" in fields:
        report["certificate"] = fields["certificate"]
    report["diagnostics"] = list(fields.get("diagnostics", ()))
    return report, code


def certificate_payload(v) -> dict:
    """JSON form of the certificate or violator of a ``reducibility.Verdict``."""
    if v.certificate is not None:
        edges = []
        for left, right, count, reason, deficit in v.certificate.blocks:
            # the edges of one block share its reason and deficit list
            tail = {"reason": reason.value, "deficit": [[gamma, d] for gamma, d in deficit]}
            edges += [{"left": left + j, "right": right - j, **tail} for j in range(count)]
        return {"edges": edges}
    return {"violator": {"K": list(v.violator.K), "NK": list(v.violator.NK)}}


# -- one handler per verb: each returns (report fields, exit code) ---------------

def _reduce(command: Command):
    from .reducibility import EdgeReason, reduces

    verdict = reduces(command.g, command.h)
    diagnostics = []
    # the lines list the witness the verdict carries, so a verdict whose flag
    # contradicts its witness prints both rather than ending in an internal error
    if verdict.certificate is not None:
        # one line per edge, rendered from the blocks without a witness per edge
        for left, right, count, reason, deficit in verdict.certificate.blocks:
            tail = f" ({reason.value.removeprefix('RULE_')})"
            if command.show_certificate and reason is EdgeReason.RULE_SOL_SOL:
                pairs = ", ".join(f"{g}^{d}" for g, d in deficit) or "none"
                tail += f" [surplus: {pairs}; total {sum(d for _, d in deficit)}]"
            diagnostics += [f"{left + j} -> {right - j}{tail}" for j in range(count)]
    else:
        diagnostics.append(
            f"violator K={{{', '.join(map(str, verdict.violator.K))}}} "
            f"N(K)={{{', '.join(map(str, verdict.violator.NK))}}}"
        )
    code = EXIT_FALSE_VERDICT if command.exit_verdict and not verdict.reducible else EXIT_OK
    fields = {"verdict": verdict.reducible, "diagnostics": diagnostics}
    if command.format == "json":  # only the JSON form prints the certificate
        fields["certificate"] = certificate_payload(verdict)
    return fields, code


def _compare(command: Command):
    from .reducibility import compare

    return {"verdict": compare(command.g, command.h).value}, EXIT_OK


def _dual(command: Command):
    from .duality import dual, rank

    d = dual(command.g)
    if is_compact(command.g):
        note = f"rank {rank(d)} = dimension of the primal"
    else:
        note = "real factors are self-dual; rank applies to compact expressions only"
    return {"verdict": render_dual(d), "diagnostics": (note,)}, EXIT_OK


def _dim(command: Command):
    return {"verdict": str(dimension(command.g))}, EXIT_OK


def _normalize(command: Command):
    return {"verdict": render_group(command.g)}, EXIT_OK


def render_text(report: dict) -> str:
    verdict = report["verdict"]
    if verdict is True:
        head = "PRECEQ" if report["verb"] == "preceq" else "REDUCIBLE"
    elif verdict is False:
        head = "NOT PRECEQ" if report["verb"] == "preceq" else "NOT REDUCIBLE"
    else:
        head = str(verdict)
    return "\n".join([head, *report["diagnostics"]])


def render(command: Command, report: dict) -> str:
    """The report in the command's format.  bench/tracing.py reads
    ``format`` off the first argument."""
    if command.format == "json":
        import json  # loaded by the --json path only

        return json.dumps(report, indent=2)
    return render_text(report)


def _emit(text: str):
    """Print ``text``; a reader of stdout that went away changes nothing."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader of stdout went away; the report stands
        # what is left in the buffer goes to devnull, so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    try:
        command = parse_command(sys.argv[1:] if argv is None else argv)
        report, code = run(command)
        _emit(render(command, report))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the process boundary: any other fault is exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
