#!/usr/bin/env python3
"""Gate hostbench results against BENCHMARK.json and a committed baseline.

    scripts/hostbench_gate.py SERIAL.txt [WARM.txt]
    scripts/hostbench_gate.py --record SERIAL.txt > .github/hostbench-baseline.json

Each argument is the standard output of one hostbench run, from
`python3 hostbench/run.py --workload W` or from a built driver. Every
run must be correct with no failed spec. SERIAL.txt must be a
sweep-serial run whose cpu_s is within BENCHMARK.json's cpu_s bound of
the baseline's. WARM.txt, a warm-reuse run from the same host, must
take at most a tenth of SERIAL.txt's wall_s: reusing every row has to
be at least ten times faster than simulating it, on any host.

--record prints SERIAL.txt's provenance and result as a new baseline.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, ".github", "hostbench-baseline.json")


def load(path, workload):
    """The provenance and result lines of one run's output; exits
    unless they are a correct `workload` run with no failed spec."""
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"hostbench_gate: {path}: no result line")
    prov = [json.loads(line.split(" ", 1)[1]) for line in lines
            if line.startswith("provenance ")]
    run = {"provenance": prov[0] if prov else {},
           "result": json.loads(lines[-1])}
    r, got = run["result"], run["provenance"].get("workload")
    if got != workload:
        sys.exit(f"hostbench_gate: {path}: workload {got}, want {workload}")
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit(f"hostbench_gate: {path}: correct {r['correct']}, "
                 f"failed {r['failed']} of {r['attempted']}")
    return run


def metrics(run):
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def main(argv):
    if argv[:1] == ["--record"] and len(argv) == 2:
        print(json.dumps(load(argv[1], "sweep-serial"), indent=2))
        return 0
    if len(argv) not in (1, 2):
        sys.exit(__doc__)

    serial = metrics(load(argv[0], "sweep-serial"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"]
                 for m in json.load(f)["end_to_end"]}["cpu_s"]
    with open(BASELINE) as f:
        base = json.load(f)["result"]["metrics"]["cpu_s"]["value"]
    limit = base * (1 + bound)
    print(f"hostbench_gate: sweep-serial cpu_s {serial['cpu_s']:.3f} s, "
          f"limit {limit:.3f} s (baseline {base:.3f} s + {bound:.0%})")
    if serial["cpu_s"] > limit:
        sys.exit("hostbench_gate: FAILED: sweep-serial cpu_s over its bound")

    if len(argv) == 2:
        warm = metrics(load(argv[1], "warm-reuse"))
        print(f"hostbench_gate: warm-reuse wall_s {warm['wall_s']:.4f} s, "
              f"limit {serial['wall_s'] / 10:.4f} s")
        if warm["wall_s"] * 10 > serial["wall_s"]:
            sys.exit("hostbench_gate: FAILED: warm-reuse is not 10x "
                     "faster than sweep-serial")
    print("hostbench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
