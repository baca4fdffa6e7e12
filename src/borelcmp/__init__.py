"""Symbolic decision engine for the Borel-reducibility order on finite
products of the real line, the circle group, and solenoids.

Groups are handled as expressions, never as sets of points: reducibility
between the induced sequence-equivalences is decided by exact rules on the
atoms (solenoids compare through their prime-multiplicity profiles) glued
together with a bipartite-matching argument, and every verdict carries a
machine-checkable certificate.  A Pontryagin-dual route re-derives compact
verdicts independently, and a poset laboratory realizes the almost-inclusion
order on ultimately periodic sets inside the reducibility order.

``import borelcmp`` loads the expressions, the profiles and the literals
only.  The names of the product engine (``reducibility``, which loads
``matching``), of the dual route (``duality``) and of the poset laboratory
(``posetlab``) load their module on first use (PEP 562), so a process that
parses or normalizes imports none of them, and one that decides products
neither of the last two; the import lock makes that first use safe from any
thread.
"""

from importlib import import_module

from .errors import BorelcmpError, DomainError, ParseError
from .supernatural import (
    OMEGA,
    IntSeqSpec,
    SupernaturalProfile,
    canonical_sequence,
    deficit,
    oracle_injection,
    preceq,
    profile_from_sequence,
)
from .groups import (
    REAL,
    TORUS,
    TRIVIAL_GROUP,
    Atom,
    AtomKind,
    GroupExpr,
    dimension,
    group,
    is_compact,
    normalize_group,
    solenoid,
)
from .literals import (
    parse_group,
    parse_profile,
    parse_sequence,
    parse_upset,
    render_dual,
    render_group,
    render_profile,
    render_upset,
)

__version__ = "0.1.0"

# The public names of the modules that load on first use, by module.
_LAZY_MODULES = {
    "reducibility": (
        "Certificate", "ComparisonOutcome", "EdgeBlock", "EdgeReason", "EdgeWitness", "HallViolator",
        "IndexRanges", "Verdict",
        "atom_reduces", "compare", "reduces", "rt_closed_form", "verify_certificate",
    ),
    "duality": (
        "INTEGERS", "DualExpr", "RationalType",
        "dual", "dual_reduces", "hom_nonzero_exists", "rank",
    ),
    "posetlab": (
        "Family", "MemberRef", "UPSet", "chain_demo",
        "member_crosscheck", "member_reduces", "member_sequence", "subset_star",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "BorelcmpError", "DomainError", "ParseError",
    "OMEGA", "IntSeqSpec", "SupernaturalProfile", "canonical_sequence", "deficit",
    "oracle_injection", "preceq", "profile_from_sequence",
    "REAL", "TORUS", "TRIVIAL_GROUP", "Atom", "AtomKind", "GroupExpr", "dimension", "group",
    "is_compact", "normalize_group", "solenoid",
    "parse_group", "parse_profile", "parse_sequence", "parse_upset",
    "render_dual", "render_group", "render_profile", "render_upset",
    *_LAZY,
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
