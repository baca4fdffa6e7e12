"""Symbolic decision engine for the Borel-reducibility order on finite
products of the real line, the circle group, and solenoids.

Groups are handled as expressions, never as sets of points: reducibility
between the induced sequence-equivalences is decided by exact rules on the
atoms (solenoids compare through their prime-multiplicity profiles) glued
together with a bipartite-matching argument, and every verdict carries a
machine-checkable certificate.  A Pontryagin-dual route re-derives compact
verdicts independently, and a poset laboratory realizes the almost-inclusion
order on ultimately periodic sets inside the reducibility order.

``import borelcmp`` loads ``borelcmp.errors`` only.  Every other public
name, and every submodule read as an attribute (``borelcmp.literals``),
loads its module on first use (PEP 562), so a process imports only the
modules of the names it reads: a parse or a normalization loads neither
the product engine (``reducibility``, with its class flow) nor the
dual route (``duality``), the poset laboratory (``posetlab``), the replays
(``replay``) or the certificate check (``verify``), and a group literal
without ``S[...]`` loads no ``sequences``.  The import lock makes that
first use safe from any thread.
"""

from .errors import BorelcmpError, DomainError, ParseError, forwarding

__version__ = "0.1.0"

# The public names of the modules that load on first use, by module; a
# module with no names here still loads when read as an attribute.
_LAZY_MODULES = {
    "supernatural": ("OMEGA", "SupernaturalProfile", "preceq"),
    "replay": ("canonical_sequence", "deficit", "oracle_injection"),
    "sequences": ("parse_sequence", "profile_from_sequence"),
    "groups": (
        "REAL", "TORUS", "TRIVIAL_GROUP", "Atom", "AtomKind", "GroupExpr",
        "dimension", "group", "is_compact", "solenoid",
    ),
    "literals": ("parse_group", "parse_profile", "render_dual", "render_group", "render_profile"),
    "setliterals": ("parse_upset", "render_upset"),
    "reducibility": (
        "Certificate", "ComparisonOutcome", "EdgeBlock", "EdgeReason", "EdgeWitness", "HallViolator",
        "IndexRanges", "Verdict", "atom_reduces", "compare", "reduces",
    ),
    "verify": ("rt_closed_form", "verify_certificate"),
    "duality": (
        "INTEGERS", "DualExpr", "RationalType",
        "dual", "dual_reduces", "hom_nonzero_exists", "rank",
    ),
    "posetlab": (
        "Family", "MemberRef", "UPSet", "chain_demo",
        "member_crosscheck", "member_reduces", "member_sequence", "subset_star",
    ),
    **dict.fromkeys(("cli", "coprime", "farprimes", "labverbs", "primes", "selftest"), ()),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = ["BorelcmpError", "DomainError", "ParseError", *_LAZY]


_name_on_first_use = forwarding(globals(), _LAZY)


def __getattr__(name):
    if name in _LAZY_MODULES:  # importing a submodule binds it here
        return __import__(f"{__name__}.{name}", fromlist=["*"])
    return _name_on_first_use(name)


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
