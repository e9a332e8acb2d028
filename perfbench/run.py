#!/usr/bin/env python3
"""Host-speed benchmark for dsasim: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload offload-ring --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (and the simulator sources it compiles) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the workload on one simulation thread. --trace 0 reports the
end-to-end metrics of an untraced run. --trace 1 runs the workload
untraced and then traced, checks that both simulated the same thing,
writes the traced run's spans as Chrome trace-event JSON under
<build>/traces/ and reports the per-layer metrics. Every exact output
is also kept in <build>/ledger.json under a hash of the simulator and
benchmark sources, so a later run of the same seed and the same code
that simulates anything differently is reported as incorrect. A
change to the code starts a fresh ledger entry.

The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offload-ring", "cpu-pollution", "serving-overload")
RUN_TIMEOUT_S = 75


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then an incremental build; False on failure."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (log: %s)" % logpath)
                return False
    return True


def child_env():
    # One simulation thread, and none of the simulator's optional
    # knobs (fault injection, telemetry export, accounting oracle)
    # leaking in from the caller's environment.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DSASIM_")}
    env["DSASIM_PARTITIONS"] = "1"
    return env


def run_once(binary, args, traced, trace_out=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if traced:
        cmd += ["--trace", "--trace-out", trace_out]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           env=child_env(), cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return None
    if p.returncode != 0:
        log(p.stderr[-4000:])
        log("perfbench: %s exited with %d" % (args.workload, p.returncode))
        return None
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: unreadable output from %s" % args.workload)
        return None


def source_hash():
    """Hash of every file under src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def ledger_check(bdir, args, exact):
    """Same code and seed -> same exact outputs; other seeds -> other
    stream hashes. Runs of different code are never compared: a change
    may reach the same simulated result with other event counts."""
    path = os.path.join(bdir, "ledger.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = "%s/seconds=%d/src=%s" % (args.workload, args.seconds,
                                    source_hash())
    seeds = ledger.setdefault(key, {})
    problems = []
    prev = seeds.get(str(args.seed))
    if prev is not None and prev != exact:
        diff = sorted(k for k in set(prev) | set(exact)
                      if prev.get(k) != exact.get(k))
        problems.append("exact outputs differ from an earlier run of "
                        "seed %d: %s" % (args.seed, ", ".join(diff)))
    for seed, other in seeds.items():
        if (seed != str(args.seed) and other.get("model.stream_hash")
                == exact.get("model.stream_hash")):
            problems.append("seeds %s and %d share a stream hash"
                            % (seed, args.seed))
    if prev is None:
        seeds[str(args.seed)] = exact
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return problems


def print_report(raw, traced_raw, overhead):
    print("workload %s seed %d: %d ops, %d attempted, %d failed"
          % (raw["workload"], raw["seed"], raw["ops"], raw["attempted"],
             raw["failed"]))
    for name, ok in raw["checks"].items():
        print("  check %-32s %s" % (name, "ok" if ok else "FAILED"))
    for name, v in raw["end_to_end"].items():
        print("  %-12s %.6g" % (name, v))
    print("  diagnostics: host speed %.3f of nominal; whole-phase "
          "ops_per_s %.6g" % (raw["layers"]["host.speed"],
                              raw["layers"]["host.wall_ops_per_s"]))
    if traced_raw is None:
        return
    print("\nper-layer self time (traced run, kept set-up repetition):")
    print("  %-9s %-7s %-22s %10s %11s %11s"
          % ("stage", "layer", "span", "calls", "total_s", "self_s"))
    for s in traced_raw["spans"]:
        print("  %-9s %-7s %-22s %10d %11.6f %11.6f"
              % (s["stage"], s["layer"], s["name"], s["calls"],
                 s["total_s"], s["self_s"]))
    by_layer = {}
    for s in traced_raw["spans"]:
        if s["stage"] == "measure":
            by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + s["self_s"]
    print("  measured phase, self time by layer: " + ", ".join(
        "%s %.4f s" % kv for kv in sorted(by_layer.items())))
    print("\nregistry counter deltas across the measured phase:")
    for name, v in traced_raw["registry_delta"].items():
        print("  %-44s %d" % (name, v))
    print("\ntrace.overhead %.4f (untraced / traced ops_per_s - 1)"
          % overhead)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1

    bdir = build_dir()
    if not build(bdir):
        return 1
    binary = os.path.join(bdir, "perfbench")

    raw = run_once(binary, args, traced=False)
    if raw is None:
        return 1
    traced_raw = None
    overhead = 0.0
    problems = [name + " failed" for name, ok in raw["checks"].items()
                if not ok]
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        tpath = os.path.join(tdir, "%s-seed%d.json"
                             % (args.workload, args.seed))
        traced_raw = run_once(binary, args, traced=True, trace_out=tpath)
        if traced_raw is None:
            return 1
        if traced_raw["exact"] != raw["exact"]:
            problems.append("traced and untraced runs simulated "
                            "different things")
        problems += [name + " failed (traced)"
                     for name, ok in traced_raw["checks"].items() if not ok]
        overhead = (raw["end_to_end"]["ops_per_s"]
                    / traced_raw["end_to_end"]["ops_per_s"] - 1.0)
        print("trace written to %s" % tpath)
    problems += ledger_check(bdir, args, raw["exact"])

    print_report(raw, traced_raw, overhead)
    for p in problems:
        print("INCORRECT: " + p)

    if args.trace:
        values = dict(traced_raw["layers"])
        values["trace.overhead"] = overhead
        hashed = traced_raw["exact"].get("model.stream_hash", "0")
        # The top 52 bits, so the value survives a JSON double.
        values["model.stream_hash"] = float(int(hashed) >> 12)
        wanted = spec["per_layer"]
    else:
        values = dict(raw["end_to_end"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    runs = [raw] + ([traced_raw] if traced_raw else [])
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
