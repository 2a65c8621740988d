#!/usr/bin/env python3
"""Simulator performance benchmark: host time and memory of the simulator.

Builds perfbench/bench_perf from source (into .bench_build/ at the root of
the checkout) and runs it in fresh processes, one workload per process.
Every workload, metric, unit and bound is named in BENCHMARK.json at the
root of the checkout.

  python3 perfbench/run.py
      The suite: every workload, 1 warm-up process then 5 timed processes
      each, interleaved round-robin across workloads, then one traced
      process per workload. Prints every metric with unit, median, q1, q3
      and n, and exits 3 if any output check failed.
      [--seed N] [--sets K] [--out LEDGER]

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run of one workload: repeats fresh processes for S
      seconds and prints one JSON line (end-to-end metrics untraced,
      per-layer metrics traced).

  python3 perfbench/run.py --compare A.json[,A2.json] B.json[,B2.json]
      One row per workload x end-to-end metric of two ledgers: ok,
      regressed, or unresolved (spread wider than the bound). Exit 3 on a
      regression.

  python3 perfbench/run.py --smoke
      Self-check in seconds: every workload at smoke size, the result and
      span shapes, and a tampered expected value that must make
      bench_perf exit 3.

  python3 perfbench/run.py --write-expected
      Re-records perfbench/expected_seed2013.json from full-size runs.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "work"
BINARY = BUILD_DIR / "bench_perf"
EXPECTED = BENCH_DIR / "expected_seed2013.json"
EXPECTED_SEED = 2013
SCALING_BASELINE = ROOT / "bench" / "baseline" / "BENCH_SCALING.json"
EXIT_FINDINGS = 3
PROCESS_TIMEOUT_S = 170
# The suite's error-rate row: failed ops / attempted ops. Not in
# BENCHMARK.json's end_to_end list because it is 0 on a correct build.
ERROR_RATE = {"name": "error_rate", "unit": "fraction", "better": "lower",
              "bound": 0.0}
TIMED_PER_SET = 5
# Module self times must account for this share of run_s (smoke check).
MIN_COVERAGE_PCT = 90.0
# Set-up times are tens of milliseconds or less: below this absolute
# change a relative move is noise, not a regression.
SETUP_FLOOR_S = 0.020

# Modules with public calls in some workload's measured phase (span names
# are "module.function"); arch, mpi and net are called only in set-up.
MODULES = ["apps", "sim", "verify", "trace", "obs", "kernels", "core", "gen"]

# Per-call metrics of the full report: name -> (span names, statistic).
CALL_METRICS = {
    "apps.build_s": (("apps.specfem_program", "apps.hpl_program",
                      "apps.bigdft_program"), "sum_s"),
    "apps.simulate_s": (("apps.run_on_cluster",), "sum_s"),
    "verify.program_s": (("verify.verify_program",), "sum_s"),
    "verify.cost_s": (("verify.analyze_cost",), "sum_s"),
    "verify.perf_s": (("verify.perf_pass",), "sum_s"),
    "trace.read_s": (("trace.read_mb_trace",), "sum_s"),
    "trace.paraver_write_s": (("trace.write_paraver",), "sum_s"),
    "trace.paraver_parse_s": (("trace.parse_paraver",), "sum_s"),
    "obs.analyze_s": (("obs.analyze_timeline",
                       "trace.analyze_collectives"), "sum_s"),
    "obs.chrome_export_s": (("obs.write_chrome_trace",), "sum_s"),
    "kernels.task_p50_ms": (("kernels.magicfilter_run",), "p50_ms"),
    "kernels.task_p95_ms": (("kernels.magicfilter_run",), "p95_ms"),
    "core.campaign_cold_s": (("core.run_campaign.cold",), "sum_s"),
    "core.campaign_warm_s": (("core.run_campaign.warm",), "sum_s"),
    "gen.generate_s": (("gen.generate",), "sum_s"),
    "gen.seed_p50_ms": (("gen.run_differential",), "p50_ms"),
    "gen.seed_p99_ms": (("gen.run_differential",), "p99_ms"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build and processes.

def build():
    """Configures once, then brings bench_perf up to date. Exits 2 when the
    checkout cannot build it (e.g. the module sources are missing)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "bench_perf"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def run_process(workload, seed, size="full", traced=False, expect=None):
    """One bench_perf process. Returns its result document (with "exit",
    and "spans" when traced); "exit" != 0 marks a failed process.
    `expect` is an expected-values file; by default the checked-in one
    whenever its seed and size apply, False for none."""
    work = WORK_DIR / uuid.uuid4().hex
    (work / "tmp").mkdir(parents=True)
    spans_path = work / "spans.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--size", size, "--workdir", str(work / "tmp")]
    if traced:
        cmd += ["--spans", str(spans_path)]
    if expect is None and seed == EXPECTED_SEED and size == "full":
        expect = EXPECTED if EXPECTED.exists() else False
    if expect:
        cmd += ["--expect", str(expect)]
    if (workload == "scaling" and seed == EXPECTED_SEED and size == "full"
            and SCALING_BASELINE.exists()):
        cmd += ["--baseline", str(SCALING_BASELINE)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = -1, "", "timed out"
    try:
        result = json.loads(out)
        if traced:
            with open(spans_path) as f:
                result["spans"] = json.load(f)["spans"]
    except (OSError, ValueError):
        result = {"attempted": 1, "failed": 1, "failures": [],
                  "counts": {}, "observed": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["exit"] = code
    if code != 0:
        log(f"run.py: bench_perf {workload} seed {seed} exited {code}")
        for line in err.strip().splitlines()[-10:]:
            log("  " + line)
    return result


# ---------------------------------------------------------------------------
# Statistics and span analysis.

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans, lo, hi):
    """Wall time each span owns inside [lo, hi]: at every instant the time
    is split evenly among the innermost open spans (those with no open
    child). Times therefore add up to the covered wall time even when the
    campaign pool runs spans on two threads at once."""
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        start, end = max(s["start"], lo), min(s["end"], hi)
        if end > start:
            events.append((start, 1, s["id"]))
            events.append((end, 0, s["id"]))
    events.sort()  # closes (0) sort before opens (1) at equal times
    owned = dict.fromkeys(by_id, 0.0)
    open_children = {}
    innermost = set()
    prev = None
    for t, is_open, sid in events:
        if innermost and t > prev:
            share = (t - prev) / len(innermost)
            for i in innermost:
                owned[i] += share
        prev = t
        parent = by_id[sid]["parent"]
        parent_open = parent in open_children
        if is_open:
            open_children[sid] = 0
            innermost.add(sid)
            if parent_open:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            del open_children[sid]
            innermost.discard(sid)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return owned


def per_layer(result, untraced_run_s=None):
    """Per-layer metrics of one traced process."""
    spans = result["spans"]
    run_lo = result["setup_s"]
    run_hi = run_lo + result["run_s"]
    owned = self_times(spans, run_lo, run_hi)
    module_s = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module_s[s["module"]] = module_s.get(s["module"], 0.0) + owned[s["id"]]
    run_s = result["run_s"]
    counts = result["counts"]
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_s[mod]
        m[f"{mod}.self_pct"] = 100.0 * module_s[mod] / run_s
    m["coverage_pct"] = 100.0 * sum(module_s.values()) / run_s
    m["calls"] = len(spans)
    if untraced_run_s:
        m["trace_overhead_pct"] = 100.0 * (run_s / untraced_run_s - 1.0)

    durations = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
    for name, (span_names, stat) in CALL_METRICS.items():
        values = [d for n in span_names for d in durations.get(n, [])]
        if stat == "sum_s":
            m[name] = sum(values)
        else:
            m[name] = percentile(values, float(stat[1:-3])) * 1e3
    for name, value in counts.items():
        m[name] = value
    events = counts.get("sim.events_executed", 0)
    simulate_s = m["apps.simulate_s"]
    m["sim.ns_per_event"] = simulate_s / events * 1e9 if events else 0.0
    m["sim.events_per_s"] = events / simulate_s if simulate_s else 0.0
    task_s = sum(durations.get("kernels.magicfilter_run", []))
    accesses = counts.get("cache.l1_accesses", 0)
    m["cache.ns_per_access"] = task_s / accesses * 1e9 if accesses else 0.0
    m["cache.accesses_per_s"] = accesses / task_s if task_s else 0.0
    return m


def counts_repeat(results):
    """Exact counts must be identical across processes of one seed."""
    first = results[0]["counts"]
    return all(r["counts"] == first for r in results[1:])


def process_ok(r):
    return r["exit"] == 0 and r["failed"] == 0


# ---------------------------------------------------------------------------
# One workload, one seed, --seconds of fresh processes.

def contract(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    build()
    # Warm-up: loads the binary and its pages; its numbers are discarded.
    warm = run_process(args.workload, args.seed, size="smoke")
    timed, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        if args.trace and len(traced) < len(timed):
            traced.append(run_process(args.workload, args.seed, traced=True))
        else:
            timed.append(run_process(args.workload, args.seed))
        enough = len(timed) >= 3 if not args.trace else len(traced) >= 2
        if time.monotonic() >= deadline and enough:
            break
    every = timed + traced
    correct = process_ok(warm) and all(process_ok(r) for r in every)
    correct = correct and counts_repeat(every)
    metrics = {}
    if args.trace:
        untraced = statistics.median(r["run_s"] for r in timed)
        layers = [per_layer(r, untraced) for r in traced]
        for m in spec["per_layer"]:
            values = [layer.get(m["name"], 0) for layer in layers]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in timed]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in every),
                      "failed": sum(r["failed"] for r in every),
                      "metrics": metrics}))
    return 0 if correct else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# The suite and its ledger.

def end_to_end_metrics(spec):
    return spec["end_to_end"] + [ERROR_RATE]


def summarize(values, unit):
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def run_set(spec, workloads, seed):
    """1 warm-up then TIMED_PER_SET timed processes per workload,
    round-robin, then one traced process per workload."""
    runs = {w: [] for w in workloads}
    ok = True
    for w in workloads:
        ok = process_ok(run_process(w, seed, size="smoke")) and ok
    for i in range(TIMED_PER_SET):
        for w in workloads:
            log(f"  round {i + 1}/{TIMED_PER_SET}: {w}")
            runs[w].append(run_process(w, seed))
    out = {}
    for w in workloads:
        log(f"  traced: {w}")
        traced = run_process(w, seed, traced=True)
        timed = runs[w]
        ok = ok and all(process_ok(r) for r in timed + [traced])
        repeat = counts_repeat(timed + [traced])
        ok = ok and repeat
        e2e = {}
        for m in end_to_end_metrics(spec):
            if m["name"] == "error_rate":
                values = [r["failed"] / max(1, r["attempted"]) for r in timed]
            else:
                values = [r[m["name"]] for r in timed]
            e2e[m["name"]] = summarize(values, m["unit"])
        untraced = e2e["run_s"]["median"]
        layer = per_layer(traced, untraced)
        out[w] = {"end_to_end": e2e, "per_layer": layer,
                  "traced_run_s": traced["run_s"],
                  "counts_repeat": repeat,
                  "attempted": sum(r["attempted"] for r in timed),
                  "failed": sum(r["failed"] for r in timed),
                  "failures": [f for r in timed + [traced]
                               for f in r.get("failures", [])][:10]}
    return out, ok


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def layer_unit(name, spec):
    for m in spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    for suffix, unit in (("_pct", "%"), ("_ms", "ms"), ("_per_s", "1/s"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ns" if ".ns_per_" in name else "count"


def print_set(label, result, spec):
    rows = []
    rows.append(f"=== {label} ===")
    rows.append(f"{'workload':13} {'metric':24} {'unit':9} "
                    f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for w, r in result.items():
        for name, s in r["end_to_end"].items():
            rows.append(f"{w:13} {name:24} {s['unit']:9} "
                            f"{fmt(s['median']):>12} {fmt(s['q1']):>12} "
                            f"{fmt(s['q3']):>12} {s['n']:>3}")
    rows.append("")
    rows.append(f"{'workload':13} {'per-layer (traced run)':34} value")
    for w, r in result.items():
        layer = r["per_layer"]
        for k in sorted(layer):
            if layer[k] or k in ("coverage_pct", "trace_overhead_pct"):
                rows.append(f"{w:13} {k:34} {fmt(layer[k])} "
                                f"{layer_unit(k, spec)}")
        overhead_s = r["traced_run_s"] - r["end_to_end"]["run_s"]["median"]
        rows.append(f"{w:13} {'tracing overhead (traced - untraced)':34} "
                        f"{fmt(overhead_s)} s")
    print("\n".join(rows))


def stamp():
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    cache = {}
    with open(BUILD_DIR / "CMakeCache.txt") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith("//"):
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              stdout=subprocess.PIPE, text=True)
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "compiler": compiler.stdout.splitlines()[0],
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?")}


def allowance(metric, a):
    """How much worse than A's median `a` a median may be."""
    allowed = a * metric["bound"]
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    return allowed


def within_bound(metric, a, b):
    """Median b is no worse than median a by more than the bound."""
    return b <= a + allowance(metric, a)


def suite(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    build()
    sets, ok = [], True
    for k in range(args.sets):
        log(f"set {k + 1}/{args.sets} (seed {args.seed})")
        result, set_ok = run_set(spec, workloads, args.seed)
        ok = ok and set_ok
        sets.append(result)
        print_set(f"set {chr(ord('A') + k)}, seed {args.seed}", result, spec)
    agree = True
    if len(sets) > 1:
        print("\n=== set agreement (each set's median within the bound of "
              "set A's) ===")
        for w in workloads:
            for m in end_to_end_metrics(spec):
                a = sets[0][w]["end_to_end"][m["name"]]["median"]
                for k, later in enumerate(sets[1:], start=1):
                    b = later[w]["end_to_end"][m["name"]]["median"]
                    fine = within_bound(m, a, b) and within_bound(m, b, a)
                    agree = agree and fine
                    print(f"{w:13} {m['name']:12} A {fmt(a):>12} "
                          f"{chr(ord('A') + k)} {fmt(b):>12}  "
                          f"{'ok' if fine else 'OUTSIDE BOUND'}")
    for w in workloads:
        for r in sets:
            for f in r[w]["failures"]:
                print(f"FAILED {w}: {f}")
    if args.out:
        ledger = {"schema": "perfbench-ledger", "schema_version": 1,
                  "seed": args.seed, "stamp": stamp(),
                  "bounds": {m["name"]: m["bound"]
                             for m in end_to_end_metrics(spec)},
                  "sets": sets}
        with open(args.out, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {args.out}")
    if len(sets) > 1:
        print("sets agree within every bound" if agree else
              "some set medians differ by more than their bound (noise)")
    return 0 if ok else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# Compare two ledgers.

def pooled(paths, workload, metric):
    values = []
    for path in paths.split(","):
        with open(path) as f:
            for s in json.load(f)["sets"]:
                if workload in s:
                    values += s[workload]["end_to_end"][metric]["samples"]
    return values


def compare(args, spec):
    regressed = False
    print(f"{'workload':13} {'metric':12} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        for m in end_to_end_metrics(spec):
            a = pooled(args.compare[0], w, m["name"])
            b = pooled(args.compare[1], w, m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] / qa[1] - 1.0) if qa[1] else 0.0
            iqr = max(qa[2] - qa[0], qb[2] - qb[0])
            spread = iqr / qa[1] if qa[1] else 0.0
            if m["name"] != "error_rate" and iqr > allowance(m, qa[1]):
                verdict = "ok" if max(b) < min(a) else "unresolved"
            elif within_bound(m, qa[1], qb[1]):
                verdict = "ok"
            else:
                verdict = "regressed"
                regressed = True
            print(f"{w:13} {m['name']:12} {fmt(qa[1]):>12} {fmt(qb[1]):>12} "
                  f"{100 * change:>7.1f}% {100 * spread:>6.1f}% "
                  f"{100 * m['bound']:>5.0f}%  {verdict}")
    return EXIT_FINDINGS if regressed else 0


# ---------------------------------------------------------------------------
# Self-check and expected values.

RESULT_KEYS = {"schema", "schema_version", "workload", "seed", "size",
               "run_id", "traced", "setup_s", "run_s", "peak_rss_mb",
               "attempted", "failed", "failures", "counts", "observed"}
SPAN_KEYS = {"id", "parent", "name", "module", "start", "end", "run"}


def smoke(spec):
    build()
    problems = []
    seed = EXPECTED_SEED
    for w in (x["name"] for x in spec["workloads"]):
        plain = run_process(w, seed, size="smoke")
        traced = run_process(w, seed, size="smoke", traced=True)
        for r in (plain, traced):
            missing = RESULT_KEYS - set(r)
            if missing or not process_ok(r) or r["attempted"] < 1:
                problems.append(f"{w}: bad result (missing {missing}, "
                                f"exit {r['exit']}, {r.get('failures')})")
        if plain.get("counts") != traced.get("counts"):
            problems.append(f"{w}: counts differ between runs")
        spans = traced.get("spans", [])
        if not spans or any(set(s) != SPAN_KEYS for s in spans):
            problems.append(f"{w}: malformed spans")
        elif per_layer(traced)["coverage_pct"] < MIN_COVERAGE_PCT:
            problems.append(f"{w}: spans cover less than "
                            f"{MIN_COVERAGE_PCT}% of the measured phase")
    # A tampered expected value must fail the run with exit code 3, and
    # the untampered one must pass.
    observed = run_process("static", seed, size="smoke")["observed"]
    doc = {"seed": seed, "size": "smoke", "workloads": {"static": observed}}
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "expected-smoke.json"
    for tamper, want in ((False, 0), (True, EXIT_FINDINGS)):
        values = dict(observed)
        if tamper:
            key = sorted(values)[0]
            values[key] = values[key] + "0"
        doc["workloads"]["static"] = values
        path.write_text(json.dumps(doc))
        got = run_process("static", seed, size="smoke", expect=path)["exit"]
        if got != want:
            problems.append(f"expected-value check: tampered={tamper} "
                            f"exited {got}, want {want}")
    path.unlink()
    for p in problems:
        print("SMOKE FAILED", p)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else EXIT_FINDINGS


def write_expected(spec):
    build()
    doc = {"seed": EXPECTED_SEED, "size": "full", "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        r = run_process(w, EXPECTED_SEED, expect=False)
        if not process_ok(r):
            log(f"run.py: {w} failed; expected values not written")
            return EXIT_FINDINGS
        doc["workloads"][w] = r["observed"]
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {EXPECTED}")
    return 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=EXPECTED_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args, spec)
    if args.smoke:
        return smoke(spec)
    if args.write_expected:
        return write_expected(spec)
    if args.workload:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return contract(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
