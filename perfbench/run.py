"""zerosum benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload {search,sequence-checks,cli-cache}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), so its set-up time and peak RSS are its own.  The
amount of work is fixed from ``--seconds`` and the seed-commit pace of a pass
(PASS_S), so that a faster program finishes sooner but does the same work
and yields the same number of latency samples.  Times are scaled to a
reference speed of the machine (perfbench/speed.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of BENCHMARK.json.  The lines before it
are the human-readable report: environment, every metric with its unit and
definition, the exact counts the correctness gate checked, and the per-layer
targets.  Exit code 0 only when a result was printed; a wrong result is
reported as ``"correct": false``, not as a crash.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import procs
import speed

# Seed-commit seconds of one pass (one cold+warm cycle for cli-cache) on
# 2 cores; with --seconds 30 this gives 2, 3 and 4 passes.
PASS_S = {"search": 15.0, "sequence-checks": 10.0, "cli-cache": 7.5}
SETUP_PROBES_PER_PASS = 2
RUN_LIMIT_S = 170.0

DEFINITIONS = {
    "setup_s": "interpreter start to ready (imports + the group tables the timed calls use; "
               "cli-cache: + creating the cache dir), median of {s} fresh interpreters",
    "verify_s": "wall time of one untraced pass (cli-cache: the cold pass), median of {n}",
    "cpu_s": "user+sys time of that pass, children included, median of {n}",
    "peak_rss_mb": "max RSS of the workload process (cli-cache: of its largest zs child)",
    "op_gmean_s": "geometric mean latency of one op, {k} samples",
}
OPS = {
    "search": "an op is one verifier call (davenport, s_leq, property B/C, casen)",
    "sequence-checks": "an op is one verifier call, one construct+decompose, or one witness query",
    "cli-cache": "an op is one warm zs command, always a cache hit; "
                 "a pass is one warm pass of the four commands",
}


def tail(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank): (percentile, value, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1], n - rank


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    argv = [sys.executable, str(procs.ROOT / "perfbench" / "worker.py"), *args, "--t0", repr(t0)]
    code, out, err = procs.run(argv, deadline - t0)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {code}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(wl: str, seed: int, passes: int, trace: bool, deadline: float):
    """Set-up probes and passes, each in its own interpreter.  Probes are
    spread between the passes so that set-up is sampled across the run."""
    probe = ["--workload", wl, "--setup-only"]
    _worker(probe, deadline)  # compiles bytecode into a fresh checkout: discarded
    probes, results = [], []
    for p in range(passes):
        if not trace:
            probes += [_worker(probe, deadline) for _ in range(SETUP_PROBES_PER_PASS)]
        flags = ["--traced"] if trace and p % 2 == 1 else []
        flags += ["--full-check"] if p == 0 else []
        budget = deadline - time.monotonic() - 5
        results.append(_worker(["--workload", wl, "--seed", str(seed), "--pass-index", str(p),
                                "--budget-s", str(budget), *flags], deadline))
    return probes, results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (procs.ROOT / "src" / "zerosum" / "__init__.py").is_file():
        return _fail(f"no zerosum sources under {procs.ROOT / 'src'}; run from a checkout")
    bench = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((procs.ROOT / "perfbench" / "layers.json").read_text())["layers"]
    if [m["name"] for m in bench["per_layer"]] != [m["name"] for m in layers]:
        return _fail("BENCHMARK.json per_layer and perfbench/layers.json disagree")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    wl = args.workload
    passes = max(2 if args.trace else 1, round(args.seconds / PASS_S[wl]))
    try:
        probes, results = measure(wl, args.seed, passes, bool(args.trace), deadline)
    except RuntimeError as exc:
        return _fail(str(exc))
    procs.WORK.mkdir(exist_ok=True)
    raw = procs.WORK / f"raw-{wl}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"setup_probes": probes, "passes": results}))

    # every pass must reproduce the first pass's results and counts
    first = results[0]
    attempted = sum(r["attempted"] for r in results)
    errors = [f"pass {p}: {e}" for p, r in enumerate(results) for e in r["errors"]]
    for p, r in enumerate(results[1:], start=1):
        for name, fp in first["fingerprints"].items():
            if r["fingerprints"].get(name, fp) != fp:
                errors.append(f"pass {p}: {name}: result differs from the first pass")
        if r["counts"] != first["counts"]:
            errors.append(f"pass {p}: counts differ from the first pass")
    failed = len(errors)

    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    setups = probes + plain
    lat = [x for r in plain for x in r["lat"]]
    slowest = [x for r in plain for x in r["slowest"]]
    setup = [r["setup_s"] * speed.REF_NOMINAL_S / r["ref_s"] for r in setups]
    e2e = {
        "setup_s": statistics.median(setup),
        "verify_s": statistics.median(r["wall"] for r in plain),
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "op_gmean_s": statistics.geometric_mean(lat),
    }
    fill = {"n": len(plain), "k": len(lat), "s": len(setup)}
    raw_e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "verify_s": statistics.median(r["raw_wall"] for r in plain),
        "cpu_s": statistics.median(r["raw_cpu"] for r in plain),
    }

    print(f"# perfbench {wl} seed={args.seed} passes={passes} "
          f"({len(plain)} untraced, {len(traced)} traced), each in a fresh interpreter; "
          f"raw: {raw}")
    print("# env " + " ".join(f"{k}={v}" for k, v in first["env"].items()))
    print(f"# {OPS[wl]}")
    print(f"# times are scaled to the nominal speed of the reference loop (perfbench/speed.py); "
          f"unscaled: " + ", ".join(f"{k} {v:.6f} s" for k, v in raw_e2e.items()))
    for name, value in e2e.items():
        print(f"{name:<14} {value:12.6f} {units[name]:<3} {DEFINITIONS[name].format(**fill)}")
    pct, value, beyond = tail(lat)
    print(f"{'op_p50_s':<14} {statistics.median(lat):12.6f} s   "
          f"median latency of one op, {len(lat)} samples")
    print(f"{'op_pct_s':<14} {value:12.6f} s   "
          f"p{pct} latency of one op ({beyond} of {len(lat)} samples beyond it)")
    print(f"{'op_slowest_s':<14} {statistics.median(slowest):12.6f} s   "
          f"slowest op of a pass, median of {len(slowest)} passes")
    if wl == "cli-cache":
        print("# cli-cache: hit_s = op_p50_s (op_gmean_s is its steadier form); hit_tail_s = "
              "op_slowest_s, or op_pct_s as a percentile with its sample count")
    print(f"{'fail_ratio':<14} {failed / attempted:12.6f}     "
          f"{failed} failed / {attempted} ops attempted (wrong result, exception or nonzero exit)")
    for key, value in first["counts"].items():
        print(f"# count {key} = {value}")
    for msg in errors[:20]:
        print(f"# FAIL {msg}")

    if args.trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["enumeration.fanout_util"] = statistics.median(r["fanout_util"] for r in plain)
        for k in ("cli.commands", "cli.nonzero_exits"):
            metrics[k] = sum(r["cli"][k] for r in results)
        metrics["cli.startup_s"] = statistics.median(r["cli"]["cli.startup_s"] for r in traced)
        metrics["cli.hit_tail_s"] = statistics.median(slowest) if wl == "cli-cache" else 0.0
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - e2e["verify_s"])
        print(f"# traced: per-layer values are medians over {len(traced)} traced pass(es).  "
              f"Spans from forked pool workers are not collected.")
        print(f"# tracing overhead {metrics['trace.overhead_s']:.4f} s = traced verify_s "
              f"{metrics['trace.overhead_s'] + e2e['verify_s']:.4f} s - untraced "
              f"{e2e['verify_s']:.4f} s; spans in "
              + ", ".join(r["spans_file"] for r in traced))
        for m in layers:
            base = f"  base: {m['base']}" if "base" in m else ""
            print(f"{m['name']:<36} {metrics[m['name']]:16.6f} {m['unit']:<5} "
                  f"-> {m['moves']} on {','.join(m['on'])}{base}")
        out = {m["name"]: metrics[m["name"]] for m in bench["per_layer"]}
    else:
        out = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
