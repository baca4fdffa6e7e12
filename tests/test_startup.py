"""Start-up: ``import borelcmp`` loads the expressions, the profiles and the
literals only, and each verb loads the modules it runs on first use."""

from __future__ import annotations

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import borelcmp
from borelcmp import cli

# The modules that load on first use only; ``array`` loads with the first
# chunk of the prime table, when a verb first walks the primes, ``matching``
# with the product engine or the dual route, and ``coprime`` with the first
# unsplit key of a sequence.
LAZY = ("borelcmp.reducibility", "borelcmp.matching", "borelcmp.duality", "borelcmp.posetlab",
        "borelcmp.selftest", "borelcmp.coprime", "json", "array")
ENGINE = ["borelcmp.matching", "borelcmp.reducibility"]
# A dataclass compiles its methods when its class is created, and
# ``dataclasses`` loads ``inspect``: no verb loads either.
NEVER = ("dataclasses", "inspect", "typing")

README = pathlib.Path(__file__).parents[1] / "README.md"


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
    (["dual", "T^2 x Sol{2:6,3:w}"], ["borelcmp.duality", "borelcmp.matching"]),
    (["family-demo", "--depth", "2"], ["array", "borelcmp.posetlab"]),
    (["selftest"], ["array", "borelcmp.duality", "borelcmp.matching", "borelcmp.posetlab",
                    "borelcmp.reducibility", "borelcmp.selftest"]),
    (["reduce", "Sol{2:5,3:w}", "Sol{2:9,3:w}", "--certificate"], ENGINE),
    (["compare", "Sol{2:5,3:w}", "Sol{2:9,3:w}"], ENGINE),
    (["dim", "R^2 x T"], []),
    (["normalize", "S[4,6,8|9]"], ["array"]),
    (["preceq", "{2:w}", "{default=w}"], []),
    (["family-new"], ["array", "borelcmp.posetlab"]),
])
def test_a_verb_loads_only_what_it_runs(argv, loaded):
    # nor ``typing``: the annotations use ``X | Y`` and ``collections.abc``
    code = f"import borelcmp\nfrom borelcmp import cli\nassert cli.main({argv!r}) == 0"
    assert _lazy_loaded_after(code, LAZY + NEVER) == loaded


def test_a_usage_error_of_reduce_loads_no_engine():
    code = "import borelcmp\nfrom borelcmp import cli\nassert cli.main(['reduce', 'T^', 'T']) == 1"
    assert _lazy_loaded_after(code, LAZY + NEVER) == []


def test_import_loads_no_lazy_module_until_a_name_is_used():
    assert _lazy_loaded_after("import borelcmp", LAZY + NEVER) == []
    code = "import borelcmp\nassert borelcmp.Family is borelcmp.posetlab.Family"
    assert _lazy_loaded_after(code) == ["borelcmp.posetlab"]
    code = "import borelcmp\nassert borelcmp.reduces is borelcmp.reducibility.reduces"
    assert _lazy_loaded_after(code, LAZY + NEVER) == ENGINE


def test_the_readme_library_import_runs_in_a_fresh_interpreter():
    statement = re.search(r"^from borelcmp import \(.*?\)$", README.read_text(), re.M | re.S)[0]
    assert _lazy_loaded_after(statement) == ["borelcmp.duality", "borelcmp.matching", "borelcmp.posetlab",
                                             "borelcmp.reducibility"]


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


def test_every_module_of_the_package_loads_without_dataclasses():
    code = "import borelcmp.cli, borelcmp.duality, borelcmp.posetlab, borelcmp.reducibility, borelcmp.selftest"
    assert _lazy_loaded_after(code, NEVER) == []
