"""Uniform result objects for the verification commands.

Every verifier returns a Report recording what was checked, with which
parameters, how much was scanned, and any counterexamples found.
Counterexamples are JSON-ready objects so a failing run can be replayed.
The search-backed verifiers build theirs in one runner, ``run_search``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any

from .enumeration import EnumSpec, ResultCache, enumerate_sequences
from .errors import PreconditionViolated


class Stopwatch:
    """Context manager measuring wall time in whole milliseconds."""

    elapsed_ms: int = 0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ms = int(round((time.perf_counter() - self._t0) * 1000))


@dataclasses.dataclass
class Report:
    check: str
    params: dict[str, Any]
    orbits_scanned: int = 0
    counterexamples: list[Any] = dataclasses.field(default_factory=list)
    elapsed_ms: int = 0
    details: dict[str, Any] = dataclasses.field(default_factory=dict)
    status: str = "ok"

    @property
    def passed(self) -> bool:
        return self.status == "ok" and not self.counterexamples

    def to_json_obj(self, *, timing: bool = True) -> dict[str, Any]:
        """JSON-ready dict.  With ``timing=False`` the wall-clock field is
        dropped, making outputs of equivalent runs byte-comparable."""
        obj: dict[str, Any] = {
            "check": self.check,
            "params": self.params,
            "passed": self.passed,
            "orbits_scanned": self.orbits_scanned,
            "counterexamples": self.counterexamples,
        }
        if self.status != "ok":
            obj["status"] = self.status
        if self.details:
            obj["details"] = self.details
        if timing:
            obj["elapsed_ms"] = self.elapsed_ms
        return obj

    def to_json(self, *, timing: bool = True) -> str:
        return json.dumps(self.to_json_obj(timing=timing), sort_keys=True)


def run_search(check: str, params: dict[str, Any], spec: EnumSpec, classify, *,
               jobs: int, cache: ResultCache | None) -> Report:
    """The Report of a search-backed check: ``classify`` maps the orbit
    representatives of ``spec`` (searched, or read from ``cache``) to the
    counterexamples and the details, and the runner adds the node count.
    Every such check needs a modulus of at least 2."""
    if spec.n < 2:
        raise PreconditionViolated(f"{check} needs n >= 2, got {spec.n}")
    with Stopwatch() as sw:
        reps, stats = enumerate_sequences(spec, jobs=jobs, cache=cache)
        bad, details = classify(reps)
    return Report(check=check, params=params, orbits_scanned=len(reps), counterexamples=bad,
                  elapsed_ms=sw.elapsed_ms, details={**details, "nodes": stats.nodes})
