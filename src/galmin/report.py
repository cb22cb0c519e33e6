"""Serializable experiment reports.

JSON is the canonical output; reports are deterministic for identical
parameters and seeds (keys sorted, floats serialized with full round-trip
precision). A report holds plain Python values (dict, list, str, int,
float, bool, None); json.dumps refuses anything else with a TypeError,
which the CLI reports as an internal error (exit 4).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

ARTIFACT_VERSION = "0.1.0"


@dataclass
class Assertion:
    name: str
    lhs: float
    rhs: float
    holds: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "holds": bool(self.holds)}


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    timing_ms: float = 0.0

    def check(self, name: str, lhs: float, rhs: float, holds: bool) -> None:
        self.assertions.append(Assertion(name, float(lhs), float(rhs), bool(holds)))

    @property
    def all_hold(self) -> bool:
        return all(a.holds for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "values": self.values,
            "assertions": [a.as_dict() for a in self.assertions],
            "timing_ms": self.timing_ms,
            "artifact_version": ARTIFACT_VERSION,
        }

    def to_json(self) -> str:
        """Canonical JSON. Timing is zeroed so identical runs are
        byte-identical; as_dict() keeps the wall-clock time."""
        doc = self.as_dict()
        doc["timing_ms"] = 0.0
        return json.dumps(doc, sort_keys=True, indent=2)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.t0) * 1000.0
        return False
