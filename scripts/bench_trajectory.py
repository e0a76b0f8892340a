#!/usr/bin/env python3
"""Record or check the benchmark trajectory.

A trajectory file (`BENCH_pr<N>.json` at the repository root) holds
perfbench's final JSON line for every workload at seeds 101 and 777, each
run with `--trace 1`, so the per-layer metrics are in it.

    python3 scripts/bench_trajectory.py record BENCH_pr<N>.json
    python3 scripts/bench_trajectory.py check

`record` runs the six and writes the file. `check` reruns them and diffs
only the exact metrics -- those perfbench's table labels "modeled, exact",
"count, exact" or "computed, exact" -- against the newest committed
`BENCH_*.json` (highest `<N>`). Host-clock metrics are never compared. A
change that moves an exact metric on purpose commits its own file.
"""

import glob
import json
import re
import subprocess
import sys

WORKLOADS = ["solve-dense", "serve-tiny", "serve-mixed"]
SEEDS = [101, 777]
COMMAND = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]
ARGS = ["--seconds", "1", "--trace", "1"]
# One table row: name, value, unit, clock label.
ROW = re.compile(r"^(\S+)\s+\S+\s+\S+\s+(host|modeled, exact|count, exact|computed, exact)$")


def run(workload, seed, command=COMMAND, args=ARGS, cwd=None):
    """perfbench's final JSON line for one run, and its exact metric names.

    `command` is the argv prefix that starts perfbench (`cargo run ... --`
    or a built binary), run in `cwd`. Aborts on a run that is not `correct`
    or has failed operations.
    """
    argv = command + ["--workload", workload, "--seed", str(seed)] + args
    out = subprocess.run(argv, cwd=cwd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    exact = {m.group(1) for m in map(ROW.match, lines) if m and m.group(2).endswith("exact")}
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {command[0]} reported incorrect output "
                 "or failed operations")
    return result, exact


def newest():
    """Path of the committed trajectory file with the highest PR number."""
    files = glob.glob("BENCH_pr*.json")
    if not files:
        sys.exit("no BENCH_pr*.json committed")
    return max(files, key=lambda f: int(re.search(r"BENCH_pr(\d+)\.json$", f).group(1)))


def record(path):
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            result, _ = run(workload, seed)
            runs.append({"workload": workload, "seed": seed, "result": result})
    command = " ".join(COMMAND + ["--workload", "W", "--seed", "S"] + ARGS)
    # One run per line, as perfbench printed it.
    with open(path, "w") as f:
        f.write('{"command": %s,\n "runs": [\n  ' % json.dumps(command))
        f.write(",\n  ".join(json.dumps(r) for r in runs))
        f.write("\n ]}\n")
    print(f"wrote {path}: {len(runs)} runs")


def check():
    path = newest()
    with open(path) as f:
        stored = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in json.load(f)["runs"]}
    diffs = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            result, exact = run(workload, seed)
            old = stored.get((workload, seed))
            if old is None:
                print(f"{workload} seed {seed}: not in {path}")
                diffs += 1
                continue
            new = result["metrics"]
            for name in sorted(exact | (set(old) - set(new))):
                if name not in old or name not in new:
                    print(f"{workload} seed {seed} {name}: present in only one of {path} and this run")
                    diffs += 1
                elif old[name]["value"] != new[name]["value"]:
                    print(f"{workload} seed {seed} {name}: {old[name]['value']!r} in {path}, "
                          f"{new[name]['value']!r} now")
                    diffs += 1
            print(f"{workload} seed {seed}: {len(exact)} exact metrics compared")
    if diffs:
        sys.exit(f"{diffs} exact metrics differ from {path}")
    print(f"every exact metric matches {path}")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        record(sys.argv[2])
    elif len(sys.argv) == 2 and sys.argv[1] == "check":
        check()
    else:
        sys.exit(__doc__)
