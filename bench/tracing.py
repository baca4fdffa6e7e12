"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces module-level bindings inside ``borelcmp`` with
recording wrappers and ``Tracer.uninstall`` puts the originals back.  No
file of the package changes.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and operation id, and is
  kept in memory until the run ends;
* a *leaf* is a hot function called up to millions of times per operation
  (``atom_reduces``, ``isprime``, ...).  A span per call would exhaust
  memory, so a leaf adds its call count and time to global totals and its
  call count to the innermost open span, and its time to that span's
  child time when no other leaf encloses it.

A span's self time is its duration minus its child time.
"""

from __future__ import annotations

import json
from time import perf_counter

# (layer name, bindings "module:attribute") -- every binding through which
# the package or the benchmark reaches the function.
SPANS = (
    ("literals.parse", ("literals:parse_group", "literals:parse_profile", "literals:parse_upset",
                        "cli:parse_group", "cli:parse_profile", "cli:parse_upset")),
    ("groups.normalize", ("literals:normalize_group",)),
    ("reducibility.reduces", ("reducibility:reduces", "cli:reduces")),
    ("reducibility.verify", ("reducibility:verify_certificate",)),
    ("matching", ("reducibility:saturating_matching_or_violator",
                  "duality:saturating_matching_or_violator")),
    ("duality.dual_reduces", ("duality:dual_reduces",)),
    ("posetlab.crosscheck", ("posetlab:member_crosscheck", "cli:member_crosscheck")),
    ("posetlab.member_sequence", ("posetlab:member_sequence", "cli:member_sequence")),
    ("posetlab.chain_demo", ("posetlab:chain_demo", "cli:chain_demo")),
    ("cli.parse_command", ("cli:parse_command",)),
    ("cli.run", ("cli:run",)),
    ("cli.render", ("cli:render",)),
    ("report.payload", ("cli:certificate_payload",)),
)

LEAVES = (
    ("reducibility.atom_reduces", ("reducibility:atom_reduces",)),
    ("supernatural.preceq", ("reducibility:preceq", "posetlab:preceq", "cli:preceq",
                             "supernatural:preceq")),
    ("supernatural.isprime", ("supernatural:isprime", "literals:isprime")),
    ("supernatural.factorint", ("supernatural:factorint",)),
    ("supernatural.surplus_table", ("reducibility:finite_surplus_table",
                                    "supernatural:finite_surplus_table")),
    ("duality.hom", ("duality:hom_nonzero_exists",)),
    ("posetlab.subset_star", ("posetlab:subset_star",)),
    ("posetlab.nextprime", ("posetlab:nextprime",)),
    ("posetlab.upset", ("posetlab:UPSet.__post_init__",)),
)


def _sizes(name, args, result):
    """Input and output sizes counted at a boundary, as (counter, amount)."""
    if name == "matching":
        return (("matching.left_in", args[0]), ("matching.edges_in", sum(map(len, args[2]))))
    if name == "groups.normalize":
        return (("groups.factors_out", len(result.factors)),)
    if name == "reducibility.reduces" and result.reducible:
        return (("reducibility.certificate_edges", len(result.certificate)),)
    if name == "cli.render" and args[0].format == "json":
        return (("report.json_bytes", len(result.encode())),)
    if name == "posetlab.upset":
        upset = args[0]
        return (("posetlab.upset_bits", len(upset.exceptional) + len(upset.word)),)
    return ()


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "child_s", "leaves")

    def __init__(self, span_id, name, op, parent):
        self.id = span_id
        self.name = name
        self.op = op
        self.parent = parent
        self.child_s = 0.0
        self.leaves = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.duration - self.child_s,
                "leaf_calls": self.leaves}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaf_totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []
        self._leaf_depth = 0
        self._patched: list = []

    # -- recording -------------------------------------------------------------

    def open(self, name, op):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, op, parent.id if parent else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _count(self, name, args, result):
        for counter, amount in _sizes(name, args, result):
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name, self._stack[-1].op if self._stack else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._count(name, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._leaf_depth -= 1
                totals[0] += 1
                totals[1] += elapsed
                if self._stack:
                    span = self._stack[-1]
                    span.leaves[name] = span.leaves.get(name, 0) + 1
                    if not self._leaf_depth:
                        span.child_s += elapsed
            self._count(name, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, package):
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for name, bindings in table:
                for binding in bindings:
                    module_name, path = binding.split(":")
                    owner = getattr(package, module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")

    def subtree_leaf_calls(self, root: Span, leaf: str) -> int:
        inside = {root.id}
        total = 0
        for span in self.spans[root.id:]:
            if span.id == root.id or span.parent in inside:
                inside.add(span.id)
                total += span.leaves.get(leaf, 0)
        return total

    def layer_metrics(self) -> dict:
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - span.child_s

        def leaf(name):
            return self.leaf_totals.get(name, [0, 0.0])

        atom_calls = leaf("reducibility.atom_reduces")[0]
        edges = self.counts.get("reducibility.certificate_edges", 0)
        return {
            "cli.parse_command_s": (total_s.get("cli.parse_command", 0.0), "s"),
            "cli.run_s": (total_s.get("cli.run", 0.0), "s"),
            "cli.render_s": (total_s.get("cli.render", 0.0), "s"),
            "report.payload_s": (total_s.get("report.payload", 0.0), "s"),
            "report.json_bytes": (self.counts.get("report.json_bytes", 0), "bytes"),
            "literals.parse_calls": (calls.get("literals.parse", 0), "count"),
            "literals.parse_s": (total_s.get("literals.parse", 0.0), "s"),
            "groups.normalize_s": (total_s.get("groups.normalize", 0.0), "s"),
            "groups.factors_out": (self.counts.get("groups.factors_out", 0), "count"),
            "supernatural.preceq_calls": (leaf("supernatural.preceq")[0], "count"),
            "supernatural.preceq_s": (leaf("supernatural.preceq")[1], "s"),
            "supernatural.isprime_calls": (leaf("supernatural.isprime")[0], "count"),
            "supernatural.isprime_s": (leaf("supernatural.isprime")[1], "s"),
            "supernatural.factorint_calls": (leaf("supernatural.factorint")[0], "count"),
            "supernatural.surplus_table_calls": (leaf("supernatural.surplus_table")[0], "count"),
            "supernatural.surplus_table_s": (leaf("supernatural.surplus_table")[1], "s"),
            "reducibility.reduces_calls": (calls.get("reducibility.reduces", 0), "count"),
            "reducibility.reduces_self_s": (self_s.get("reducibility.reduces", 0.0), "s"),
            "reducibility.atom_reduces_calls": (atom_calls, "count"),
            "reducibility.verify_s": (total_s.get("reducibility.verify", 0.0), "s"),
            "reducibility.certificate_edges": (edges, "count"),
            "reducibility.edges_used_ratio": (edges / atom_calls if atom_calls else 0.0, "ratio"),
            "matching.calls": (calls.get("matching", 0), "count"),
            "matching.s": (total_s.get("matching", 0.0), "s"),
            "matching.left_in": (self.counts.get("matching.left_in", 0), "count"),
            "matching.edges_in": (self.counts.get("matching.edges_in", 0), "count"),
            "duality.dual_reduces_calls": (calls.get("duality.dual_reduces", 0), "count"),
            "duality.dual_reduces_s": (total_s.get("duality.dual_reduces", 0.0), "s"),
            "duality.hom_calls": (leaf("duality.hom")[0], "count"),
            "posetlab.crosscheck_s": (total_s.get("posetlab.crosscheck", 0.0), "s"),
            "posetlab.member_sequence_s": (total_s.get("posetlab.member_sequence", 0.0), "s"),
            "posetlab.chain_demo_s": (total_s.get("posetlab.chain_demo", 0.0), "s"),
            "posetlab.subset_star_s": (leaf("posetlab.subset_star")[1], "s"),
            "posetlab.nextprime_calls": (leaf("posetlab.nextprime")[0], "count"),
            "posetlab.nextprime_s": (leaf("posetlab.nextprime")[1], "s"),
            "posetlab.upset_bits": (self.counts.get("posetlab.upset_bits", 0), "count"),
        }


def import_breakdown(stderr: str) -> dict:
    """Seconds spent importing, from ``python -X importtime`` output:
    ``total`` for ``borelcmp`` with everything it pulls in, ``sympy`` for
    the sympy package, ``borelcmp`` for the package's own modules only."""
    total = sympy = own = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        module = module.strip()
        if not self_us.strip().isdigit():
            continue  # the column header
        if module == "borelcmp":
            total = int(cumulative_us)
        elif module == "sympy":
            sympy = int(cumulative_us)
        if module == "borelcmp" or module.startswith("borelcmp."):
            own += int(self_us)
    return {"total": total / 1e6, "sympy": sympy / 1e6, "borelcmp": own / 1e6}
