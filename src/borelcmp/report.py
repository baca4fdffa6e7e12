"""Reports: the structured result of one command, in text or JSON.

The JSON shape is pinned by golden tests:

    {
      "verb": str,
      "inputs": [str, ...],
      "verdict": bool | str,
      "certificate": {"edges": [{"left": int, "right": int,
                                 "reason": str,
                                 "deficit": [[key, int | "w"], ...]}, ...]}
                   | {"violator": {"K": [int, ...], "NK": [int, ...]}},
      "diagnostics": [str, ...]
    }

A ``deficit`` key is a prime, or an element of the coprime base of the
edge's two profiles when one has an unsplit key.  ``certificate`` is
present only for verbs that produce one.  Output is deterministic: no
timestamps, fixed ordering everywhere.
"""

from __future__ import annotations

from ._value import Value
from .supernatural import OMEGA


def _mult_json(m) -> int | str:
    return "w" if m is OMEGA else m


class Report(Value):
    __slots__ = _fields = ("verb", "inputs", "verdict", "certificate", "diagnostics")

    def __init__(
        self,
        verb: str,
        inputs: tuple,
        verdict: bool | str,
        certificate: dict | None = None,
        diagnostics: tuple = (),
    ):
        object.__setattr__(self, "verb", verb)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "diagnostics", diagnostics)

    def to_dict(self) -> dict:
        payload = {
            "verb": self.verb,
            "inputs": list(self.inputs),
            "verdict": self.verdict,
        }
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        payload["diagnostics"] = list(self.diagnostics)
        return payload

    def to_json(self) -> str:
        import json  # loaded by the --json path only

        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "Report":
        return cls(
            verb=payload["verb"],
            inputs=tuple(payload["inputs"]),
            verdict=payload["verdict"],
            certificate=payload.get("certificate"),
            diagnostics=tuple(payload["diagnostics"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        import json

        return cls.from_dict(json.loads(text))


def certificate_payload(v) -> dict:
    """JSON form of the certificate or violator of a ``reducibility.Verdict``."""
    if v.reducible:
        edges = []
        for left, right, count, reason, deficit in v.certificate.blocks:
            # the edges of one block share its reason and deficit list
            tail = {"reason": reason.value, "deficit": [[gamma, _mult_json(d)] for gamma, d in deficit]}
            edges += [{"left": left + j, "right": right - j, **tail} for j in range(count)]
        return {"edges": edges}
    return {"violator": {"K": list(v.violator.K), "NK": list(v.violator.NK)}}
