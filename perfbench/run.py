#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload annotate --seed 1 --seconds 10 --trace 0

builds the perfbench binary from source (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload and prints its metrics, one per line with
its unit, then the result as one JSON object on the last line: the
end-to-end metrics BENCHMARK.json lists, or with --trace 1 its per-layer
metrics. Exits nonzero when the build fails, a listed metric is missing,
or any answer is wrong.

    --workload all        runs every workload in turn
    --steady N            reruns the workload on N seeds and prints each
                          end-to-end metric's median and spread against
                          its bound
    --selftest            runs the benchmark's own unit tests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select_metrics(result, listed):
    """Keeps exactly the `listed` metric specs of a perfbench result;
    raises KeyError naming any that is missing."""
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        raise KeyError("perfbench printed no " + ", ".join(missing))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in listed},
    }


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (parsed result, exit code)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return None, 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode or 1
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        sys.stderr.write("perfbench: no result line from %s\n" % workload)
        return None, proc.returncode or 1


def run_workload(binary, spec, workload, seed, seconds, trace):
    result, code = run_once(binary, workload, seed, seconds, trace)
    if result is None:
        return 1
    try:
        line = select_metrics(result, spec["per_layer" if trace else "end_to_end"])
    except KeyError as error:
        sys.stderr.write("perfbench: %s: %s\n" % (workload, error.args[0]))
        return 1
    print(json.dumps(line))
    return code


def steady(binary, spec, workload, seeds, seconds):
    """Reruns `workload` on each seed and prints every end-to-end metric's
    median and spread; exits nonzero if any spread (setup_s aside) is
    outside its bound or any run failed."""
    values = {m["name"]: [] for m in spec["end_to_end"]}
    status = 0
    for seed in seeds:
        result, code = run_once(binary, workload, seed, seconds, False, echo=False)
        if result is None or code != 0:
            sys.stderr.write("perfbench: %s seed %d failed\n" % (workload, seed))
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("# %s seed %d: %s" % (workload, seed, json.dumps(
            {n: round(v[-1], 6) for n, v in values.items()})))
    for m in spec["end_to_end"]:
        s = spread(values[m["name"]])
        ok = m["name"] == "setup_s" or s <= m["bound"]
        status |= 0 if ok else 1
        print("%-16s %-14s median %14.6f %-5s spread %.4f  bound %.2f  %s%s" % (
            workload, m["name"], statistics.median(values[m["name"]]), m["unit"], s,
            m["bound"], "ok" if ok else "OVER BOUND",
            "" if s <= m["bound"] / 3 else "  (above a third of the bound)"))
    return status


class HelperTest(unittest.TestCase):
    def test_spread_uses_exclusive_quartiles(self):
        # statistics.quantiles' default (exclusive) method on 1..10 gives
        # q1 = 2.75 and q3 = 8.25; the median is 5.5.
        self.assertAlmostEqual(spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(spread([2.0] * 10), 0.0)

    def test_select_metrics_keeps_listed_names(self):
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "a": {"value": 1.5, "unit": "s"}, "b": {"value": 2, "unit": "ms"}}}
        line = select_metrics(result, [{"name": "a"}])
        self.assertEqual(line["metrics"], {"a": {"value": 1.5, "unit": "s"}})
        self.assertEqual(line["attempted"], 3)
        with self.assertRaises(KeyError):
            select_metrics(result, [{"name": "c"}])


def selftest():
    status = subprocess.run([build("perfbench_selftest")]).returncode
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(HelperTest)
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return status or (0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error("--workload must be one of %s or all" % ", ".join(names))
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = build("perfbench")
    status = 0
    for workload in workloads:
        if args.steady:
            seeds = range(args.seed, args.seed + args.steady)
            status |= steady(binary, spec, workload, seeds, seconds)
        else:
            status |= run_workload(binary, spec, workload, args.seed, seconds,
                                   args.trace == 1)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
