#!/usr/bin/env python3
"""The repo benchmark's entry point.

Builds the benchmark driver, the Bunshin library and the nvx_executord
daemon from the sources of this checkout (Release, into .bench_build, or
$CARGO_TARGET_DIR when set), runs one workload and prints one JSON result
as the last line of standard output.

  python3 perfbench/run.py --workload fresh_local --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload remote_tcp --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
of the same workload and seed and prints the per-layer metrics that
perfbench/spans.py reads from its span file. Outputs (results, span files)
go to .bench_out. Build logs go to standard error. Any failure exits non-zero
without printing a result.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import spans  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "api", "nvx.h"))):
        fail("no Bunshin sources next to perfbench/; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return out


def run_driver(argv):
    """Runs the driver in its own process group; returns its stdout lines."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return lines


def main():
    parser = argparse.ArgumentParser(description="Bunshin repo benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build()
    driver = os.path.join(out, "perfbench_driver")
    if args.self_test:
        code = subprocess.run([driver, "--self-test"]).returncode
        return code or spans.self_test()
    if not args.workload:
        parser.error("--workload is required")

    results = os.path.join(ROOT, ".bench_out")
    os.makedirs(results, exist_ok=True)
    lines = run_driver([driver, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--executord", os.path.join(out, "tools", "nvx_executord"),
                        "--out", results])
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    stem = os.path.join(results, "result-%s-%d-trace%d" % (args.workload, args.seed, args.trace))

    if args.trace == 1:
        span_file = next((l.split(" ", 1)[1] for l in lines if l.startswith("spans ")), None)
        if span_file is None:
            fail("traced run wrote no span file")
        trace = spans.load(span_file)
        report = {"per_layer": spans.per_layer(trace), "layer_times": spans.layer_times(trace)}
        untraced = os.path.join(results, "result-%s-%d-trace0.json" % (args.workload, args.seed))
        if os.path.isfile(untraced):
            with open(untraced) as f:
                report["overhead"] = spans.overhead(trace, json.load(f))
        print("layers " + json.dumps(report))
        result["metrics"] = {name: {"value": value, "unit": spans.PER_LAYER_UNITS[name]}
                             for name, value in report["per_layer"].items()}

    saved = dict(result)
    diagnostics = [l for l in lines if l.startswith("diagnostics ")]
    if diagnostics:
        saved["diagnostics"] = json.loads(diagnostics[-1].split(" ", 1)[1])
    with open(stem + ".json", "w") as f:
        json.dump(saved, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
