"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload W --t0 T --setup-only
    python3 perfbench/worker.py --workload W --t0 T --seed S --pass-index I
                                [--traced] [--full-check] [--budget-s B]

T is run.py's ``time.monotonic()`` just before it started this process; the
clock is system-wide, so ``setup_s`` runs from interpreter start to ready.
A pass of cli-cache is one cycle (cold pass plus warm passes).  With
``--traced`` the tracer is installed before set-up, so table builds are
traced too.  ``--full-check`` adds the expensive checks (run on the first
pass only); every pass returns a fingerprint of each result so that run.py
can require later passes to agree with the first.  The last line of stdout
is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time

import procs
import speed


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _env(numpy_version: str, jobs: int, cache_bytes: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "cache_dir_bytes": cache_bytes,
    }


def _spans_path(args) -> str:
    procs.WORK.mkdir(exist_ok=True)
    return str(procs.WORK / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl.gz")


def in_process(args) -> dict:
    import numpy
    import zerosum  # noqa: F401  (imports every module the workloads call)
    from zerosum import groups

    import workloads
    from tracer import Tracer, finish, summarize, write_spans

    tables, make_ops, counts_of, gate = {
        "search": (workloads.SEARCH_TABLES, workloads.search_ops,
                   workloads.search_counts, None),
        "sequence-checks": (workloads.SEQUENCE_TABLES, workloads.sequence_ops,
                            workloads.sequence_counts, workloads.sequence_gate),
    }[args.workload]

    tracer = Tracer().install() if args.traced else None
    for n, names in tables.items():
        grp = groups.group(n)
        for name in names:
            getattr(grp, name)()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s, "ref_s": speed.ref_sample()}

    ops = make_ops(args.seed)
    results, raised = {}, {}
    sampler = speed.Sampler()
    timer = speed.Timer(sampler)
    sampler.take()
    cpu0, spent0 = _cpu_self(), sampler.spent
    sampler.start_timer()
    for op in ops:
        with timer:
            try:
                results[op.name] = op.call()
            except Exception as exc:  # a raised exception is a failed op
                raised[op.name] = f"{type(exc).__name__}: {exc}"
    sampler.stop_timer()
    cpu = _cpu_self() - cpu0 - (sampler.spent - spent0)
    sampler.take()
    lat, scaled = timer.raw, timer.scaled()
    layers = spans_file = None
    if tracer:
        tracer.uninstall()
        layers = finish(summarize(tracer.spans))
        spans_file = _spans_path(args)
        write_spans(spans_file, [(f"pass{args.pass_index}", tracer.spans)])

    # checks, outside the timed region
    errors, fingerprints = [], {}
    for op in ops:
        msg = raised.get(op.name)
        if msg is None:
            res = results[op.name]
            msg = op.check(res)
            if msg is None and args.full_check and op.full_check:
                msg = op.full_check(res)
            fingerprints[op.name] = hashlib.sha1(repr(op.fingerprint(res)).encode()).hexdigest()
        if msg:
            errors.append(f"{op.name}: {msg}")
    attempted = len(ops)
    counts = {}
    if not raised:
        counts = counts_of(results)
        for msg in gate(counts) if gate else ():
            attempted += 1
            if msg:
                errors.append(msg)
    wall = sum(scaled)
    return {
        "setup_s": setup_s,
        "ref_s": sampler.refs[0],
        "traced": bool(tracer),
        "wall": wall,
        "cpu": cpu * wall / sum(lat),
        "raw_wall": sum(lat),
        "raw_cpu": cpu,
        "fanout_util": cpu / sum(lat),
        "lat": scaled,
        "raw_lat": lat,
        "slowest": [max(scaled)],
        "attempted": attempted,
        "errors": errors,
        "fingerprints": fingerprints,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "cli": {"cli.startup_s": 0.0, "cli.commands": 0, "cli.nonzero_exits": 0},
        "env": _env(numpy.__version__, 1, 0),
        "spans_file": spans_file,
    }


def cli_cache(args) -> dict:
    import cli_cache as cc

    cache_dir = cc.new_cache_dir()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        shutil.rmtree(cache_dir)
        return {"setup_s": setup_s, "ref_s": speed.ref_sample()}

    from importlib.metadata import version

    from tracer import finish, merge, summarize, write_spans

    cycle = cc.Cycle(f"{args.seed}:{args.pass_index}", args.t0 + args.budget_s)
    span_dir = tempfile.mkdtemp(prefix="spans-", dir=procs.WORK) if args.traced else None
    layers = spans_file = None
    try:
        res = cycle.run(cache_dir, span_dir)
        if span_dir:
            runs = []
            for name in sorted(os.listdir(span_dir)):
                with open(os.path.join(span_dir, name)) as fh:
                    runs.append((name[:-len(".jsonl")], [json.loads(line) for line in fh]))
            layers = finish(merge([summarize(spans) for _, spans in runs]))
            spans_file = _spans_path(args)
            write_spans(spans_file, runs)
    finally:
        if span_dir:
            shutil.rmtree(span_dir, ignore_errors=True)
    startup_s = cycle.startup_s() if args.traced else 0.0
    return {
        **res,
        "setup_s": setup_s,
        "traced": args.traced,
        "attempted": cycle.attempted,
        "errors": cycle.errors,
        "fingerprints": cycle.fingerprints,
        "counts": cycle.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "layers": layers,
        "cli": {"cli.startup_s": startup_s, "cli.commands": cycle.commands,
                "cli.nonzero_exits": cycle.nonzero_exits},
        "env": _env(version("numpy"), cc.jobs(), res["cache_bytes"]),
        "spans_file": spans_file,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["search", "sequence-checks", "cli-cache"])
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--full-check", action="store_true")
    ap.add_argument("--budget-s", type=float, default=170.0)
    args = ap.parse_args()
    run = cli_cache if args.workload == "cli-cache" else in_process
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
