#!/usr/bin/env python3
"""Whole-run simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds simbench_cli (Release) from this checkout's sources, runs the
workload in a child process with a pinned environment, and prints every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.

End-to-end metrics come from the child's own rounds, where it measures
wall time, CPU time and minor faults of each round, and from the child's
wait4() resource usage (peak RSS), so every figure belongs to this
workload alone. Exits 1 when any check fails (an I/O failed, a read
returned the wrong stamp, or a round's simulated figures differed from
another's), 2 on a usage or build error.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_rand", "write_gc_remount", "sharded_nvme_mixed")
CHILD_TIMEOUT_S = 170


def die(msg, code=2):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(code)


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure (once) and build simbench_cli; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, out_root, "simbench")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "simbench_cli",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            die("build directory %s is not a Release build" % build_dir)
    return os.path.join(build_dir, "simbench_cli"), build_dir


def pinned_env():
    """The caller's environment minus allocator tuning: raised malloc
    thresholds alone halve some runs' wall time."""
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("MALLOC_") or key in ("GLIBC_TUNABLES",
                                                 "LD_PRELOAD"):
            del env[key]
    return env


def run_child(binary, build_dir, args):
    """Run one workload process; return (parsed output, rusage)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    err_path = os.path.join(build_dir, "child.stderr")
    with open(err_path, "w") as err:
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 env=pinned_env(), text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            out = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as f:
        err_text = f.read()
    if child.returncode != 0:
        sys.stderr.write(err_text[-4000:])
        die("workload process exited with %d" % child.returncode)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), usage, err_text
    except (IndexError, ValueError):
        die("workload process printed no result")


def end_to_end(res, usage):
    """Wall, CPU and fault figures are medians per stream, so a slow
    round does not move them and a longer run does not favour whichever
    stream came round more often."""
    rounds = res["per_round"]
    streams = sorted(set(rounds["stream"]))

    def per_stream(key):
        return [median([v for s, v in zip(rounds["stream"], rounds[key])
                        if s == stream]) for stream in streams]

    ios = per_stream("ios")
    m = {
        "ios_per_wall_s": sum(ios) / sum(per_stream("wall_s")),
        "setup_s": median(rounds["setup_s"]),
        "cpu_s": sum(per_stream("cpu_s")) / len(streams),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": sum(per_stream("minflt")) / len(streams),
    }
    m.update(res["sim"])
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    binary, build_dir = build()
    res, usage, err_text = run_child(binary, build_dir, args)

    env = res["env"]
    print("env: nproc=%d compiler=%s build=%s seed=%d rounds=%d"
          % (env["nproc"], env["compiler"], env["build_type"], args.seed,
             res["rounds"]))
    print("process: user=%.3fs sys=%.3fs minflt=%d maxrss=%dKiB"
          % (usage.ru_utime, usage.ru_stime, usage.ru_minflt,
             usage.ru_maxrss))
    for fl, (pct, n) in res["tail"].items():
        print("sim_p99_us.%s: p%g of %d host I/O latencies" % (fl, pct, n))
    print("oracle: attempted=%d failed=%d mismatched=%d deterministic=%s"
          % (res["attempted"], res["failed"], res["mismatched"],
             res["deterministic"]))
    warnings = [l for l in err_text.splitlines() if l.strip()]
    if warnings:
        print("workload stderr: %d line(s), last: %s"
              % (len(warnings), warnings[-1]))

    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(res, usage)

    metrics = {}
    complete = True
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            complete = False
            print("missing metric: %s" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("%s = %.6g %s" % (m["name"], v, m["unit"]))

    correct = (res["failed"] == 0 and res["mismatched"] == 0
               and res["deterministic"] and complete)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] + res["mismatched"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
