"""The repository's benchmark: three workloads against the public API of
``repro``, end-to-end metrics from untraced runs and per-layer metrics
from a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload advise --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --steady 10 --workload all --seconds 12
    python3 perfbench/run.py --describe

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it print every metric by name with its
unit and direction, plus a ``# meta`` line with the seed, CPU count,
Python version, git sha and recommendation fingerprints.  Full records
and span dumps go to ``.perfbench_out/``.

Seed 1 is the tuning seed.  Seed 7919 was used for nothing while the
benchmark was written: use it to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Set-ups per untraced run; ``setup_s`` is their median.  A set-up
#: takes 0.5-2.5 s, and the speed of a shared host can change that
#: often, so one set-up samples a single state of the host.  Three keep
#: a run short: a full check repeats every workload about twenty times.
SETUP_REPEATS = 3
#: The last set-ups also time their first unit of work; ``first_ms`` is
#: the median, and the correctness checks compare their results.  The
#: final set-up's first unit always runs: the timed phase continues from
#: it.  Each costs 2-4 s, so the others skip it.
FIRST_SAMPLES = 2
#: The traced run stops after this many times ``--seconds`` even if it
#: has not yet repeated the untraced run's operations.
TRACE_CAP_FACTOR = 4

#: Per-operation metric names, printed beside the
#: end-to-end metrics: (name, operation kind, statistic).
NAMED = {
    "advise": [("advise_first_ms", "first", "p50"), ("advise_p50_ms", "advise", "p50"),
               ("advise_tail_ms", "advise", "tail")],
    "serve": [("query_p50_ms", "query", "p50"), ("query_tail_ms", "query", "tail"),
              ("dml_p50_ms", "dml", "p50"), ("dml_tail_ms", "dml", "tail"),
              ("whatif_p50_ms", "whatif", "p50"), ("recommend_p50_ms", "recommend", "p50")],
    "online": [("cycle_p50_ms", "cycle", "p50")],
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> Dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no repro sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def p50(values: Sequence[float]) -> float:
    """Median, the mean of the middle two samples for an even count.
    A workload's operations come in a fixed mix of kinds with different
    costs (``advise`` runs whole rounds of 18 requests), so the middle
    often falls between a cheaper and a dearer group of kinds; a
    nearest-rank median there jumps between the groups with the host's
    speed."""
    return statistics.median(values)


def tail(values: Sequence[float], beyond: int = 10):
    """``(value, percentile)``: the highest nearest-rank percentile with
    at least ``beyond`` samples beyond it; the maximum (percentile 100)
    when there are ``beyond`` samples or fewer."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        return ordered[-1], 100.0
    rank = count - beyond
    return ordered[rank - 1], 100.0 * rank / count


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (a pool worker), in MiB; read right after the timed phase, so the
    correctness checks' second set-up is not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (``unknown`` outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def make_bench(name: str, seed: int, ledger):
    from workloads import Advise, Online, Serve

    if name == "online":
        return Online(seed, ledger)
    return {"advise": Advise, "serve": Serve}[name](seed)


def speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop: a reading of the
    host's speed for the ``# meta`` line (it drifts when other tenants
    load the machine); no metric uses it."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def settle() -> None:
    """Collect the garbage a set-up left behind before timing starts, so
    a full collection of it does not land in whichever operation comes
    next."""
    gc.collect()


def counted_ops(ops):
    """Operations that count towards ``ops_per_s``, ``attempted`` and
    ``failed``."""
    return [op for op in ops if op.counted]


def untraced(name: str, seed: int, seconds: float) -> Dict:
    from spans import SessionLedger, collect_recommendations

    ledger = SessionLedger()
    bench = make_bench(name, seed, ledger)
    bench.environment()
    undo = collect_recommendations(ledger) if name == "online" else None
    try:
        probes = [speed_probe()]
        setups: List[float] = []
        firsts: List[float] = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                bench.close()
            setups.append(bench.setup())
            settle()
            if repeat >= SETUP_REPEATS - FIRST_SAMPLES:
                firsts.append(bench.first())
        bench.prepare()
        settle()
        probes.append(speed_probe())
        ops, wall = bench.run(seconds)
        rss = peak_rss_mb()
        probes.append(speed_probe())
        mismatches = bench.check()
        speedup = bench.est_speedup()
    finally:
        if undo is not None:
            undo()
        bench.close()
    work = counted_ops(ops)
    failed = sum(1 for op in work if not op.ok) + mismatches
    attempted = len(work) + len(firsts)
    failed = min(failed, attempted)
    primary = [op.seconds for op in ops if op.kind == bench.primary]
    tail_value, tail_pct = tail(primary, bench.tail_beyond)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(work) / wall, "ops/s"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "p50_ms": (p50(primary) * 1000.0, "ms"),
        "tail_ms": (tail_value * 1000.0, "ms"),
        "est_speedup": (speedup, "x"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = {
        "fail_share": (failed / attempted, "ratio", ""),
        "first_ms": (statistics.median(firsts) * 1000.0, "ms",
                     f"first unit on a cold set-up, median of {len(firsts)}; not gated"),
    }
    for metric, kind, stat in NAMED[name]:
        values = firsts if kind == "first" else [op.seconds for op in ops if op.kind == kind]
        if not values:
            continue
        if stat == "tail":
            value, pct = tail(values, bench.tail_beyond)
            named[metric] = (value * 1000.0, "ms", f"p{pct:.2f} of {len(values)}")
        else:
            named[metric] = (p50(values) * 1000.0, "ms", f"p50 of {len(values)}")
    return {
        "metrics": metrics,
        "named": named,
        "attempted": attempted,
        "failed": failed,
        "correct": mismatches == 0 and failed == 0,
        "failures": bench.failures[:20],
        "fingerprints": bench.fingerprints(),
        "samples": {"primary": len(primary), "tail_percentile": tail_pct,
                    "setups": setups, "firsts": firsts, "wall_s": wall, "probe_s": probes},
    }


def traced(name: str, seed: int, seconds: float) -> Dict:
    """Untraced pass (for the overhead base), then a fresh set-up traced
    from the start that repeats the same number of operations."""
    import layers
    from spans import Recorder, SessionLedger, collect_recommendations, instrument

    ledger = SessionLedger()
    base = make_bench(name, seed, ledger)
    base.environment()
    undo = collect_recommendations(ledger) if name == "online" else None
    try:
        base.setup()
        settle()
        base.first()
        base.prepare()
        settle()
        base_ops, base_wall = base.run(seconds)
    finally:
        if undo is not None:
            undo()
        base.close()

    recorder = Recorder()
    ledger = SessionLedger()
    bench = make_bench(name, seed, ledger)
    bench.adopt(base)
    bench.recorder = recorder
    undo = instrument(recorder, ledger)
    try:
        recorder.set_request(0)
        bench.setup()
        settle()
        recorder.set_request(1)
        bench.first()
        bench.prepare()
        settle()
        ops, wall = bench.run(seconds * TRACE_CAP_FACTOR, max_ops=len(base_ops))
        workload_counters = bench.layer_counters()
        undo()
        mismatches = bench.check()
    finally:
        undo()
        bench.close()
    overhead = (wall / len(ops)) / (base_wall / len(base_ops))
    values = layers.per_layer(
        recorder.aggregate(), recorder.counters, ledger.totals(), workload_counters, overhead
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.csv")
    recorder.dump(span_path)
    work = counted_ops(ops)
    failed = min(sum(1 for op in work if not op.ok) + mismatches, len(work) + 1)
    units = {entry["name"]: entry["unit"] for entry in layers.catalogue()}
    return {
        "metrics": {key: (value, units[key]) for key, value in values.items()},
        "named": {},
        "attempted": len(work) + 1,
        "failed": failed,
        "correct": mismatches == 0 and failed == 0,
        "failures": bench.failures[:20],
        "fingerprints": bench.fingerprints(),
        "samples": {"spans": len(recorder), "span_file": os.path.relpath(span_path, ROOT),
                    "untraced_ops": len(base_ops), "traced_ops": len(ops),
                    "untraced_wall_s": base_wall, "traced_wall_s": wall},
    }


def report(spec: Dict, name: str, seed: int, seconds: float, trace: bool, record: Dict) -> None:
    section = "per_layer" if trace else "end_to_end"
    wanted = spec[section]
    directions = {entry["name"]: entry["better"] for entry in wanted}
    for metric in wanted:
        if metric["name"] not in record["metrics"]:
            fail(f"workload {name} produced no value for {metric['name']}")
    for key, (value, unit) in record["metrics"].items():
        print(f"{name:7s} {key:44s} {value:16.6f} {unit:6s} {directions.get(key, 'lower')} is better")
    for key, (value, unit, note) in record["named"].items():
        print(f"{name:7s} {key:44s} {value:16.6f} {unit:6s} lower is better  {note}")
    for message in record["failures"]:
        print(f"# failure: {message}")
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "fingerprints": record["fingerprints"],
        "samples": record["samples"],
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": record["metrics"], "named": record["named"],
                   "failures": record["failures"]}, handle, indent=1, sort_keys=True)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": record["metrics"][metric["name"]][0], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))


# ----------------------------------------------------------------------
# Steadiness mode
# ----------------------------------------------------------------------
def steady(spec: Dict, workloads: List[str], runs: int, first_seed: int, seconds: float) -> int:
    """Run each workload ``runs`` times on consecutive seeds, then once
    more on the first seed; report per metric the median, quartiles and
    spread ((q3 - q1) / median) against the bound, and whether the
    repeated seed gave identical recommendations and est_speedup."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    all_ok = True
    for name in workloads:
        values: Dict[str, List[float]] = {}
        metas = {}
        for index in range(runs + 1):
            seed = first_seed + (index if index < runs else 0)
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                fail(f"run {name} seed {seed} exited {proc.returncode}")
            result = json.loads(lines[-1])
            meta = json.loads(next(l for l in lines if l.startswith("# meta "))[7:])
            took = time.perf_counter() - started
            print(f"# {name} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
            sys.stdout.flush()
            all_ok &= bool(result["correct"])
            if index < runs:
                metas[seed] = (meta["fingerprints"], result["metrics"]["est_speedup"]["value"])
                for key, entry in result["metrics"].items():
                    values.setdefault(key, []).append(entry["value"])
            else:
                again = (meta["fingerprints"], result["metrics"]["est_speedup"]["value"])
                deterministic = again == metas[first_seed]
                all_ok &= deterministic
        rows = {}
        for key, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(key)
            ok = bound is None or spread <= bound
            all_ok &= ok
            rows[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                         "within_bound": ok, "within_third": bound is None or spread <= bound / 3}
            print(f"{name:7s} {key:14s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:7.4f}  bound {bound}  {'ok' if ok else 'OVER'}")
        print(f"{name:7s} same seed twice: {'identical' if deterministic else 'DIFFERENT'} "
              "recommendations and est_speedup")
        summary[name] = {"metrics": rows, "deterministic": deterministic, "values": values}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return 0 if all_ok else 1


def describe(spec: Dict) -> None:
    import layers

    for metric in spec["end_to_end"]:
        print(f"end_to_end {metric['name']:16s} {metric['unit']:6s} {metric['better']} is better, "
              f"bound {metric['bound']}")
    for entry in layers.catalogue():
        print(f"per_layer  {entry['name']:44s} {entry['unit']:6s} moves {entry['moves']} "
              f"on {entry['on']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="advise")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="steadiness mode: RUNS seeds per workload from --seed")
    parser.add_argument("--describe", action="store_true",
                        help="print every metric with its unit, direction and mapping")
    args = parser.parse_args(argv)
    spec = load_spec()
    # Temporary files (the worker pool's snapshot spill files) stay
    # inside the checkout.
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    names = [w["name"] for w in spec["workloads"]]
    if args.describe:
        describe(spec)
        return 0
    if args.steady:
        chosen = names if args.workload == "all" else [args.workload]
        if any(w not in names for w in chosen):
            fail(f"unknown workload {args.workload!r}; choose from {names} or all")
        return steady(spec, chosen, args.steady, args.seed, args.seconds)
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    run = traced if args.trace else untraced
    record = run(args.workload, args.seed, args.seconds)
    report(spec, args.workload, args.seed, args.seconds, bool(args.trace), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
