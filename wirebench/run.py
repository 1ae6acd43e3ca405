#!/usr/bin/env python3
"""Entry point of the wire-level serving benchmark (see README.md).

  python3 wirebench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 wirebench/run.py --workload W --repeat N [--seconds S] [--first-seed K]
  python3 wirebench/run.py --compare A.json B.json
  python3 wirebench/run.py --selftest

Builds the benchmark package (spexserve and the load generator, from the
sources of this checkout) into .bench_build/ on first use, then runs the
generator.  The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "wirebench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "wirebench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                      "--target"] + targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step[:2]) + ")")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "wirebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_once(workload, seed, seconds, trace):
    """Runs the generator once; returns (exit code, stdout lines)."""
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [os.path.join(BUILD, "wirebench"),
           "--server", os.path.join(BUILD, "spexserve"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-id", source_id(),
           "--trace-out", os.path.join(RESULTS, "trace-%s-seed%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def record_of(lines):
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return {"fingerprint": fingerprint, "result": result}


def result_path(workload, seed, trace):
    return os.path.join(RESULTS, "%s-seed%s-trace%s.json" % (workload, seed, trace))


def tracing_overhead(workload, seed, traced):
    """Gap between this traced run and the untraced run of the same seed."""
    path = result_path(workload, seed, 0)
    if not os.path.exists(path):
        return ["tracing_overhead unknown: run --trace 0 with seed %s first" % seed]
    with open(path) as f:
        plain = json.load(f)["result"]["metrics"]
    out = []
    for name, value in sorted(traced.items()):
        base = plain.get(name, {}).get("value")
        if base:
            out.append("tracing_overhead %s %+.2f%% (traced %.6g, untraced %.6g)"
                       % (name, 100.0 * (value / base - 1), value, base))
    return out


def cmd_run(args):
    build(["wirebench", "spexserve"])
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    rec = record_of(lines)
    if rec is None:
        print("\n".join(lines))
        fail("the generator printed no result (exit %d)" % code)
    with open(result_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump(rec, f)
    print("\n".join(lines[:-1]))
    if args.trace:
        traced = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 3 and parts[0] == "traced_e2e":
                traced[parts[1]] = float(parts[2])
        print("\n".join(tracing_overhead(args.workload, args.seed, traced)))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def cmd_repeat(args):
    """Steadiness report: N runs of one workload on N seeds."""
    build(["wirebench", "spexserve"])
    spec, metrics = bounds()
    seconds = args.seconds or spec["run_seconds"]
    values = {name: [] for name in metrics}
    for i in range(args.repeat):
        seed = args.first_seed + i
        code, lines = run_once(args.workload, seed, seconds, 0)
        rec = record_of(lines)
        if code != 0 or rec is None:
            print("\n".join(lines[-5:]))
            fail("run with seed %d failed" % seed)
        with open(result_path(args.workload, seed, 0), "w") as f:
            json.dump(rec, f)
        for name in metrics:
            values[name].append(rec["result"]["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())))
        sys.stdout.flush()
    ok = True
    print("%-22s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metrics[name]["bound"]
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        if name != "setup_s" and spread > bound:
            ok = False
        print("%-22s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" % (
            name, median, q1, q3, 100 * spread, 100 * bound, verdict))
    sys.exit(0 if ok else 1)


HOST_KEYS = ("nproc", "cpu_model", "scanner", "compiler", "build_type",
             "server_flags", "workload", "seed")


def cmd_compare(args):
    """Compares two saved results; refuses when their hosts or settings differ."""
    recs = []
    for path in args.compare:
        with open(path) as f:
            recs.append(json.load(f))
    a, b = (r["fingerprint"] or {} for r in recs)
    differ = [k for k in HOST_KEYS if a.get(k) != b.get(k)]
    if differ:
        fail("refusing to compare: fingerprints differ in " + ", ".join(
            "%s (%s vs %s)" % (k, a.get(k), b.get(k)) for k in differ))
    print("comparing source %s -> %s" % (a.get("source"), b.get("source")))
    ma, mb = (r["result"]["metrics"] for r in recs)
    for name in sorted(set(ma) & set(mb)):
        va, vb = ma[name]["value"], mb[name]["value"]
        change = "%+.2f%%" % (100.0 * (vb / va - 1)) if va else "n/a"
        print("%-40s %14.6g %14.6g %10s" % (name, va, vb, change))


def cmd_selftest(_args):
    build(["wirebench_test"])
    sys.exit(subprocess.run([os.path.join(BUILD, "wirebench_test")]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=["wire_qualifier", "wire_records", "wire_subscriptions"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        cmd_selftest(args)
    elif args.compare:
        cmd_compare(args)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.repeat:
        cmd_repeat(args)
    else:
        if not args.seconds:
            args.seconds = bounds()[0]["run_seconds"]
        cmd_run(args)


if __name__ == "__main__":
    main()
