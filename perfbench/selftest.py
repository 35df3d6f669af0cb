#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at a tiny fleet size.

    python3 perfbench/selftest.py

For every workload it asserts that
  1. two fresh untraced processes end with the same knowledge digest;
  2. the traced run's digest equals the untraced run's (fidelity);
  3. `run.py` prints every metric BENCHMARK.json names, with its unit,
     and reports its outputs correct.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--pods", "8", "--duration", "60"]


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg, file=sys.stderr)
        sys.exit(1)


def last_json(args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args + TINY,
        stdout=subprocess.PIPE, text=True, timeout=300)
    check(proc.returncode == 0, "run.py %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    run.build()
    for workload in run.WORKLOADS:
        a = run.pipeline("e2e", workload, 7, TINY)
        b = run.pipeline("e2e", workload, 7, TINY)
        check(a["digest"] == b["digest"], "%s: fresh processes disagree" % workload)
        t = run.pipeline("traced", workload, 7, TINY)
        check(t["digest"] == a["digest"], "%s: traced run diverges from Platform.run" % workload)
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = last_json(["--workload", workload, "--seed", "7", "--seconds", "0",
                             "--trace", str(trace)])
            check(out["correct"], "%s --trace %d: outputs not correct" % (workload, trace))
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d: unexpected keys %s" % (workload, trace, sorted(out)))
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            check(got == want, "%s --trace %d: missing or wrong %s, unexpected %s" % (
                workload, trace,
                sorted(n for n in want if got.get(n) != want[n]),
                sorted(n for n in got if n not in want)))
        print("selftest %s ok" % workload)


if __name__ == "__main__":
    main()
