"""cli-cache: the ``zs`` front end as users run it, one subprocess at a time.

A cycle makes a fresh cache directory, runs the four commands once (the cold
pass: cache misses and stores), then runs them again ``WARM_PASSES`` times
(warm passes: every command is a cache hit) in an order drawn from the seed.
The package is not installed, so the CLI starts as ``python -m zerosum.cli``
with ``src`` on the path; a traced cycle starts it through ``zs_traced.py``.
This module imports nothing from zerosum, so the workload's set-up is the
interpreter start plus creating the cache directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import procs
import speed
from expected import CASEN_5_1, CENSUS_LISTED, CENSUS_NODES, CENSUS_ORBITS, PROPERTY_B, expect

WARM_PASSES = 2
STARTUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 120


def jobs() -> int:
    return min(2, os.cpu_count() or 1)


def _report(obj, orbits, nodes) -> str | None:
    if not obj.get("passed"):
        return f"{obj.get('check')}: not passed"
    return expect((obj["orbits_scanned"], obj["details"]["nodes"]), (orbits, nodes),
                  f"{obj['check']} (orbits, nodes)")


def _census(obj) -> str | None:
    got = (obj["count"], obj["nodes"], obj["truncated"], len(obj["sequences"]))
    err = expect(got, (CENSUS_ORBITS, CENSUS_NODES, True, CENSUS_LISTED),
                 "census (count, nodes, truncated, listed)")
    if err:
        return err
    for s in obj["sequences"]:
        if s["n"] != 5 or sum(t[2] for t in s["terms"]) != 7:
            return f"census lists a sequence that is not of length 7 over n=5: {s}"
    return None


def _casen(obj) -> str | None:
    orbits, nodes, kinds = CASEN_5_1
    return _report(obj, orbits, nodes) or expect(obj["details"]["kinds"], kinds, "casen kinds")


# (label, arguments, check of the parsed stdout)
COMMANDS = [
    ("enumerate", ["enumerate", "--n", "5", "--length", "7", "--predicate", "all"], _census),
    ("casen", ["verify", "casen", "--n", "5"], _casen),
    ("property-b", ["verify", "property-b", "--n", "6"], lambda o: _report(o, *PROPERTY_B[6])),
    ("davenport", ["davenport", "--n", "6"], lambda o: expect(o["value"], 11, "davenport --n 6")),
]


def _counts(cold: dict, cache_bytes: int) -> dict:
    return {
        "census.orbits": cold["enumerate"]["count"],
        "census.nodes": cold["enumerate"]["nodes"],
        "casen(5,1).orbits": cold["casen"]["orbits_scanned"],
        "casen(5,1).nodes": cold["casen"]["details"]["nodes"],
        "property_b(6).orbits": cold["property-b"]["orbits_scanned"],
        "property_b(6).nodes": cold["property-b"]["details"]["nodes"],
        "davenport(6)": cold["davenport"]["value"],
        "cache_dir_bytes": cache_bytes,
    }


def new_cache_dir() -> str:
    procs.WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="cache-", dir=procs.WORK)


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Cycle:
    """Runs a cycle and keeps what run.py needs besides its timings:
    failures, counts, and fingerprints of the cold results."""

    def __init__(self, seed: str, deadline: float):
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.env = procs.child_env()
        self.attempted = 0
        self.errors: list[str] = []
        self.commands = 0
        self.nonzero_exits = 0
        self.counts: dict = {}
        self.fingerprints: dict = {}

    def _zs(self, args: list[str], spans: str | None) -> tuple[int, str, str]:
        if spans is None:
            argv = [sys.executable, "-m", "zerosum.cli", *args]
        else:
            argv = [sys.executable, str(procs.ROOT / "perfbench" / "zs_traced.py"), spans, *args]
        budget = min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())
        return procs.run(argv, budget, self.env)

    def _command(self, label, args, check, cache_dir, spans) -> dict | None:
        """Run one zs command; its parsed output if it passed its check."""
        self.attempted += 1
        self.commands += 1
        code, out, err = self._zs([*args, "--jobs", str(jobs()), "--cache-dir", cache_dir],
                                  spans)
        if code != 0:
            self.nonzero_exits += 1
            self.errors.append(f"{label}: exit {code}: {err.strip()[-300:]}")
            return None
        try:
            obj = json.loads(out)
        except json.JSONDecodeError as exc:
            self.errors.append(f"{label}: unparsable output ({exc})")
            return None
        msg = check(obj)
        if msg:
            self.errors.append(msg)
            return None
        return obj

    def run(self, cache_dir: str, span_dir: str | None) -> dict:
        """One cold pass and WARM_PASSES warm passes on a fresh cache dir,
        which is removed afterwards.  Reference samples are taken between
        commands; times are returned scaled and raw (see speed.py)."""
        def spans(tag):
            return None if span_dir is None else os.path.join(span_dir, f"{tag}.jsonl")

        sampler = speed.Sampler()
        timer = speed.Timer(sampler)
        try:
            cold = {}
            cpu0 = _children_cpu()
            for label, args, check in COMMANDS:
                sampler.maybe()
                with timer:
                    cold[label] = self._command(label, args, check, cache_dir,
                                                spans(f"cold-{label}"))
            cpu = _children_cpu() - cpu0
            cache_bytes = dir_bytes(cache_dir)
            if all(cold.values()):
                self.counts = _counts(cold, cache_bytes)
            self.fingerprints = {
                label: hashlib.sha1(json.dumps(_result(obj), sort_keys=True).encode()).hexdigest()
                for label, obj in cold.items() if obj is not None
            }
            for w in range(WARM_PASSES):
                order = list(COMMANDS)
                self.rng.shuffle(order)
                for label, args, check in order:
                    sampler.maybe()
                    with timer:
                        obj = self._command(label, args, check, cache_dir,
                                            spans(f"warm{w}-{label}"))
                    if obj is not None and cold[label] is not None and (
                            _result(obj) != _result(cold[label])):
                        self.errors.append(f"{label}: warm result differs from the cold result")
            sampler.take()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        n = len(COMMANDS)
        # the cold pass runs zs processes on both cores for seconds while the
        # samples are taken only between commands, so it is scaled by all of
        # the cycle's samples; a warm command is short and single-process, so
        # by the samples next to it
        lat, scaled = timer.raw, timer.scaled()
        raw_wall, wall = sum(lat[:n]), sum(timer.scaled(math.inf)[:n])
        return {
            "ref_s": sampler.refs[0],
            "wall": wall,
            "cpu": cpu * wall / raw_wall,
            "raw_wall": raw_wall,
            "raw_cpu": cpu,
            "fanout_util": cpu / (jobs() * raw_wall),
            "lat": scaled[n:],
            "raw_lat": lat[n:],
            "slowest": [max(scaled[i:i + n]) for i in range(n, len(scaled), n)],
            "cache_bytes": cache_bytes,
        }

    def startup_s(self) -> float:
        """Median wall time of ``zs --version``."""
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            code, _, err = self._zs(["--version"], None)
            dt = time.perf_counter() - t0
            self.attempted += 1
            self.commands += 1
            if code != 0:
                self.nonzero_exits += 1
                self.errors.append(f"--version: exit {code}: {err.strip()[-300:]}")
            times.append(dt)
        return statistics.median(times)


def _result(obj: dict) -> dict:
    """A command's output without its wall-clock field and its config (which
    names the cache dir)."""
    return {k: v for k, v in obj.items() if k not in ("elapsed_ms", "config")}
