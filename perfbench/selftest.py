#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload (those in BENCHMARK.json and serve-warm, which the
benchmark can run but does not list) it runs a short untraced and a
short traced run and asserts that each succeeds and emits exactly the
named metrics with their units. Then it runs each workload once with
--inject-fault, which feeds the checker one deliberately wrong answer,
and asserts that the answer is counted as failed and the run exits
non-zero. Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what, output=""):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)
            print(output[-3000:])

    workloads = [w["name"] for w in spec["workloads"]]
    if "serve-warm" not in workloads:
        workloads.append("serve-warm")
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run(workload, trace)
            what = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"],
                  what + ": exits 0 with correct answers", output)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result has exactly the contract keys", output)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == want, what + f": emits the {len(want)} {key} metrics with their units",
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  what + ": every value is a number", output)

        code, result, output = run(workload, 0, "--inject-fault")
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a deliberately wrong answer is counted as failed", output)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
