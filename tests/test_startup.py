"""Start-up: ``import borelcmp`` loads the product engine only, and each verb
loads the modules it runs on first use."""

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

# The modules that load on first use only.
LAZY = ("borelcmp.duality", "borelcmp.posetlab", "borelcmp.selftest", "json")

README = pathlib.Path(__file__).parents[1] / "README.md"


def _lazy_loaded_after(code: str) -> list:
    """The modules of LAZY that a fresh interpreter, started without the site
    module, has imported after running ``code``."""
    report = f"\nimport sys; print(*sorted(m for m in {LAZY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(borelcmp.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code + report],
                          capture_output=True, text=True, check=True, env=env)
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("argv, loaded", [
    (["reduce", "R^2 x T", "T^3"], []),
    (["reduce", "R^2 x T", "T^3", "--json"], ["json"]),
    (["dual", "T^2 x Sol{2:6,3:w}"], ["borelcmp.duality"]),
    (["family-demo", "--depth", "2"], ["borelcmp.posetlab"]),
    (["selftest"], ["borelcmp.duality", "borelcmp.posetlab", "borelcmp.selftest"]),
])
def test_a_verb_loads_only_what_it_runs(argv, loaded):
    code = f"import borelcmp\nfrom borelcmp import cli\nassert cli.main({argv!r}) == 0"
    assert _lazy_loaded_after(code) == loaded


def test_import_loads_no_lazy_module_until_a_name_is_used():
    assert _lazy_loaded_after("import borelcmp") == []
    code = "import borelcmp\nassert borelcmp.Family is borelcmp.posetlab.Family"
    assert _lazy_loaded_after(code) == ["borelcmp.posetlab"]


def test_the_readme_library_import_runs_in_a_fresh_interpreter():
    statement = re.search(r"^from borelcmp import \(.*?\)$", README.read_text(), re.M | re.S)[0]
    assert _lazy_loaded_after(statement) == ["borelcmp.duality", "borelcmp.posetlab"]


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
