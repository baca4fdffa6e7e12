"""Symbolic decision engine for the Borel-reducibility order on finite
products of the real line, the circle group, and solenoids.

Groups are handled as expressions, never as sets of points: reducibility
between the induced sequence-equivalences is decided by exact rules on the
atoms (solenoids compare through their prime-multiplicity profiles) glued
together with a bipartite-matching argument, and every verdict carries a
machine-checkable certificate.  A Pontryagin-dual route re-derives compact
verdicts independently, and a poset laboratory realizes the almost-inclusion
order on ultimately periodic sets inside the reducibility order.

``import borelcmp`` loads the product engine only.  The names of the dual
route (``duality``) and of the poset laboratory (``posetlab``) load their
module on first use (PEP 562), so a process that decides products imports
neither; the import lock makes that first use safe from any thread.
"""

from importlib import import_module

from .errors import BorelcmpError, DomainError, ParseError
from .supernatural import (
    OMEGA,
    IntSeqSpec,
    SeqSpec,
    SupernaturalProfile,
    canonical_sequence,
    deficit,
    factor_sequence,
    interleave,
    multiplicity,
    oracle_injection,
    preceq,
    profile_add,
    profile_from_sequence,
    profiles_bireducible,
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
from .reducibility import (
    ComparisonOutcome,
    EdgeReason,
    EdgeWitness,
    HallViolator,
    Verdict,
    atom_reduces,
    compare,
    reduces,
    rt_closed_form,
    verify_certificate,
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
    "duality": (
        "INTEGERS", "DualComponent", "DualExpr", "RationalType",
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
    "OMEGA", "IntSeqSpec", "SeqSpec", "SupernaturalProfile", "canonical_sequence", "deficit",
    "factor_sequence", "interleave", "multiplicity", "oracle_injection", "preceq",
    "profile_add", "profile_from_sequence", "profiles_bireducible",
    "REAL", "TORUS", "TRIVIAL_GROUP", "Atom", "AtomKind", "GroupExpr", "dimension", "group",
    "is_compact", "normalize_group", "solenoid",
    "ComparisonOutcome", "EdgeReason", "EdgeWitness", "HallViolator", "Verdict",
    "atom_reduces", "compare", "reduces", "rt_closed_form", "verify_certificate",
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
