#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload at its tiny size through run.py, from the repository
root:

    python3 e2ebench/selftest.py

and checks that
  - an untraced run prints every end-to-end metric of BENCHMARK.json, by
    name and unit, and passes its correctness checks;
  - the simulated fingerprint repeats for a fixed seed and changes with it;
  - a traced run prints every per-layer metric of BENCHMARK.json, with a
    non-zero value for at least one metric of each layer the workload
    runs, and writes a Chrome trace and a flat metric list that parse.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers each workload runs: each must show a non-zero per-layer metric.
LAYERS = {
    "simrt_cg": ["des", "fabric", "msg", "simrt", "coll", "obs", "host"],
    "serve_po2c": ["des", "fabric", "serve", "obs", "host"],
    "pdes_cg": ["des", "pdes", "obs", "host"],
    "rm_easy": ["des", "rm", "workload", "obs", "host"],
}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.2", "--trace",
           str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
    check(done.returncode == 0 and lines, f"{workload}: run.py exit code")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        tagged[tag] = rest
    return json.loads(lines[-1]) if lines else {}, tagged


def check_metrics(workload, result, catalogue):
    metrics = result.get("metrics", {})
    check(result.get("correct") is True, f"{workload}: correct")
    check(result.get("failed") == 0, f"{workload}: failed == 0")
    check(result.get("attempted", 0) >= 1, f"{workload}: attempted >= 1")
    check(set(metrics) == {m["name"] for m in catalogue},
          f"{workload}: metric names {sorted(metrics)}")
    for m in catalogue:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"],
              f"{workload}: {m['name']} unit {got.get('unit')}")
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(LAYERS), f"workloads {names}")
    for workload in names:
        print(f"-- {workload}", flush=True)
        first, tags1 = run(workload, 1, 0)
        metrics = check_metrics(workload, first, bench["end_to_end"])
        check(all(v["value"] > 0 for v in metrics.values()),
              f"{workload}: every end-to-end metric is non-zero")
        _, tags1b = run(workload, 1, 0)
        _, tags2 = run(workload, 2, 0)
        fp = [json.loads(t["fingerprint"])["hash"] for t in
              (tags1, tags1b, tags2)]
        check(fp[0] == fp[1], f"{workload}: fingerprint repeats {fp[:2]}")
        check(fp[0] != fp[2], f"{workload}: fingerprint follows seed {fp}")

        traced, tags = run(workload, 1, 1)
        layer = check_metrics(workload, traced, bench["per_layer"])
        for prefix in LAYERS[workload]:
            check(any(v["value"] != 0 for k, v in layer.items()
                      if k.split(".")[0] == prefix),
                  f"{workload}: layer {prefix} reports a non-zero metric")
        check(json.loads(tags["fingerprint"])["hash"] == fp[0],
              f"{workload}: traced fingerprint equals untraced")
        trace_file, metrics_file = tags["trace"].split()
        with open(trace_file) as f:
            spans = json.load(f)
        check(len(spans.get("traceEvents", spans)) > 0,
              f"{workload}: Chrome trace has events")
        with open(metrics_file) as f:
            flat = json.load(f)
        check({m["name"] for m in flat["metrics"]} == set(layer),
              f"{workload}: flat metric list matches the result line")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
