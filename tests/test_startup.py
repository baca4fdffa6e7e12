"""Start-up: ``import borelcmp`` loads ``borelcmp.errors`` only, and each
verb loads the modules it runs on first use."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

import borelcmp
from borelcmp import cli

# The modules that load on first use only; ``array`` loads with the first
# chunk of the prime table, when a verb first walks the primes or
# trial-divides, ``coprime`` with the first unsplit key of a sequence, and
# ``labverbs`` with the handler of a verb that ``cli`` does not hold.
LAZY = ("borelcmp.reducibility", "borelcmp.duality", "borelcmp.posetlab",
        "borelcmp.selftest", "borelcmp.coprime", "borelcmp.replay", "borelcmp.sequences",
        "borelcmp.farprimes", "borelcmp.setliterals", "borelcmp.verify", "borelcmp.labverbs",
        "json", "array")
ENGINE = ["borelcmp.reducibility"]
LAB = ["array", "borelcmp.farprimes", "borelcmp.labverbs", "borelcmp.posetlab", "borelcmp.replay"]
# A dataclass compiles its methods when its class is created, and
# ``dataclasses`` loads ``inspect``: no verb loads either.  The command line
# is parsed without ``argparse``, which loads ``gettext`` and ``locale``.
NEVER = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale")
# AST nodes of the modules that ``reduce "R^2 x T" "T^3"`` compiles, ``cli``
# among them: 10,029 with this layout, plus a 5 % margin.  Each module that
# loads on first use has more than 500, so a new top-level import of one
# fails here.
REDUCE_NODES = 10_530

ROOT = pathlib.Path(__file__).parents[1]
README = ROOT / "README.md"


def _last_line(code: str) -> str:
    """The last line that ``code`` prints in a fresh interpreter started
    without the site module."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(borelcmp.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True, env=env)
    return done.stdout.splitlines()[-1]


def _lazy_loaded_after(code: str, modules: tuple = LAZY) -> list:
    """The ``modules`` that a fresh interpreter has imported after running
    ``code``."""
    report = f"\nimport sys; print(*sorted(m for m in {modules!r} if m in sys.modules))"
    return _last_line(code + report).split()


@pytest.mark.parametrize("argv, loaded", [
    (["reduce", "R^2 x T", "T^3"], ENGINE),
    (["reduce", "R^2 x T", "T^3", "--json"], [*ENGINE, "json"]),
    (["dual", "T^2 x Sol{2:6,3:w}"], ["borelcmp.duality"]),
    (["family-demo", "--depth", "2"], LAB),
    (["selftest"], ["array", "borelcmp.duality", "borelcmp.farprimes", "borelcmp.labverbs", "borelcmp.posetlab",
                    "borelcmp.reducibility", "borelcmp.replay", "borelcmp.selftest", "borelcmp.sequences",
                    "borelcmp.verify"]),
    (["reduce", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--certificate"], ENGINE),
    (["compare", "Sol{2:5,3:w}", "Sol{2:9,3:w}"], ENGINE),
    (["dim", "R^2 x T"], []),
    (["normalize", "S[4,6,8|9]"], ["array", "borelcmp.sequences"]),
    (["preceq", "{2:w}", "{default=w}"], ["borelcmp.farprimes", "borelcmp.labverbs", "borelcmp.replay"]),
    (["family-new"], LAB),
    (["family-expand", "--a", "fin{1}", "--len", "4"], [*LAB, "borelcmp.setliterals"]),
    (["dim", "R^2 x T x Sol{2:w}^3"], []),
    # an unsplit key loads the coprime base and factors nothing
    (["reduce", "S[4295229443|3]", "T"], ["array", "borelcmp.coprime", *ENGINE, "borelcmp.sequences"]),
])
def test_a_verb_loads_only_what_it_runs(argv, loaded):
    # nor ``typing``: the annotations use ``X | Y`` and ``collections.abc``
    code = f"import borelcmp\nfrom borelcmp import cli\nassert cli.main({argv!r}) == 0"
    assert _lazy_loaded_after(code, LAZY + NEVER) == loaded


def test_a_usage_error_of_reduce_loads_no_engine():
    code = "import borelcmp\nfrom borelcmp import cli\nassert cli.main(['reduce', 'T^', 'T']) == 1"
    assert _lazy_loaded_after(code, LAZY + NEVER) == []


def test_import_loads_no_submodule_but_errors():
    code = "import sys, borelcmp; print(*sorted(m for m in sys.modules if m.startswith('borelcmp')))"
    assert _last_line(code).split() == ["borelcmp", "borelcmp.errors"]


def _compiled_nodes(argv) -> int:
    """AST nodes of the package's modules that ``borelcmp <argv>`` loads,
    ``cli`` among them, in a fresh interpreter: what a process compiles
    when no bytecode is cached."""
    code = (f"import io, sys, contextlib\nfrom borelcmp import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    cli.main({list(argv)!r})\n"
            "print(*sorted(m.__file__ for m in list(sys.modules.values()) if m.__name__.startswith('borelcmp')))")
    files = _last_line(code).split()
    return sum(sum(1 for _ in ast.walk(ast.parse(pathlib.Path(f).read_text()))) for f in files)


def test_reduce_compiles_no_more_than_its_ceiling_of_ast_nodes():
    assert _compiled_nodes(["reduce", "R^2 x T", "T^3"]) <= REDUCE_NODES


@pytest.mark.parametrize("argv", [
    ["family-expand", "--a", "fin{1}", "--len", "3"],
    ["reduce", "S[4,6|9]", "T", "--json"],
    ["preceq", "{2:w}", "{3:w}"],
])
def test_importtime_lists_every_module_a_verb_loads(argv):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(borelcmp.__file__).parents[1])}
    code = (f"import borelcmp.cli, sys\nborelcmp.cli.main({argv!r})\n"
            "print(*sorted(m for m in sys.modules if m.startswith('borelcmp')), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", code],
                          capture_output=True, text=True, check=True, env=env)
    *lines, loaded = done.stderr.splitlines()
    listed = {line.split("|")[-1].strip() for line in lines if line.startswith("import time:")}
    assert "borelcmp.labverbs" in loaded.split() or argv[0] == "reduce"
    assert set(loaded.split()) <= listed


def test_import_loads_no_lazy_module_until_a_name_is_used():
    assert _lazy_loaded_after("import borelcmp", LAZY + NEVER) == []
    code = "import borelcmp\nassert borelcmp.Family is borelcmp.posetlab.Family"
    assert _lazy_loaded_after(code) == ["borelcmp.farprimes", "borelcmp.posetlab", "borelcmp.replay"]
    code = "import borelcmp\nassert borelcmp.reduces is borelcmp.reducibility.reduces"
    assert _lazy_loaded_after(code, LAZY + NEVER) == ENGINE


def test_the_readme_library_import_runs_in_a_fresh_interpreter():
    statement = re.search(r"^from borelcmp import \(.*?\)$", README.read_text(), re.M | re.S)[0]
    assert _lazy_loaded_after(statement) == ["borelcmp.duality", "borelcmp.farprimes", "borelcmp.posetlab",
                                             "borelcmp.reducibility", "borelcmp.replay", "borelcmp.verify"]


def test_every_public_name_resolves_to_its_defining_module():
    for name in borelcmp.__all__:
        value = getattr(borelcmp, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert borelcmp.Family is borelcmp.posetlab.Family
    assert borelcmp.dual is borelcmp.duality.dual
    assert set(borelcmp.__all__) <= set(dir(borelcmp))


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        borelcmp.no_such_name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_cli_forwards_the_traced_poset_lab_names():
    for name in ("member_crosscheck", "member_sequence", "chain_demo"):
        assert getattr(cli, name) is getattr(borelcmp.posetlab, name)
    assert cli.reduces is borelcmp.reducibility.reduces


def test_every_binding_the_benchmark_patches_resolves_once_to_a_plain_global():
    tracing = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
    bindings = {binding for _, names in tracing["SPANS"] + tracing["LEAVES"] for binding in names}
    bindings |= {"cli:reduces", "reducibility:verify_certificate", "supernatural:preceq"}  # bench/selfcheck.py
    for binding in sorted(bindings):
        module, path = binding.split(":")
        owner = getattr(borelcmp, module)
        name = path.split(".")[0]
        value = getattr(owner, name)
        # a forward binds what it resolves, so later reads skip ``__getattr__``
        assert vars(owner)[name] is value, binding
        assert getattr(importlib.import_module(value.__module__), value.__name__) is value, binding


def test_every_module_of_the_package_loads_without_dataclasses():
    code = "import borelcmp; [getattr(borelcmp, name) for name in borelcmp._LAZY_MODULES]"
    assert _lazy_loaded_after(code, NEVER) == []
