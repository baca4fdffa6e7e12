"""Reports: the structured result of one command, in text or JSON.

The JSON shape is pinned by golden tests:

    {
      "verb": str,
      "inputs": [str, ...],
      "verdict": bool | str,
      "certificate": {"edges": [{"left": int, "right": int,
                                 "reason": str,
                                 "deficit": [[prime, int | "w"], ...]}, ...]}
                   | {"violator": {"K": [int, ...], "NK": [int, ...]}},
      "diagnostics": [str, ...]
    }

``certificate`` is present only for verbs that produce one.  Output is
deterministic: no timestamps, fixed ordering everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .reducibility import Verdict
from .supernatural import OMEGA


def _mult_json(m) -> Union[int, str]:
    return "w" if m is OMEGA else m


@dataclass(frozen=True)
class Report:
    verb: str
    inputs: tuple
    verdict: Union[bool, str]
    certificate: dict | None = None
    diagnostics: tuple = ()
    format: str = "text"  # presentation only; not part of the JSON payload

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
            format="json",
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        import json

        return cls.from_dict(json.loads(text))


def certificate_payload(v: Verdict) -> dict:
    """JSON form of a verdict's certificate or violator."""
    if v.reducible:
        return {
            "edges": [
                {
                    "left": w.left_index,
                    "right": w.right_index,
                    "reason": w.reason.value,
                    "deficit": [[gamma, _mult_json(d)] for gamma, d in w.deficit],
                }
                for w in v.certificate
            ]
        }
    return {"violator": {"K": list(v.violator.K), "NK": list(v.violator.NK)}}
