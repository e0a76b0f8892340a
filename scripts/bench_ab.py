#!/usr/bin/env python3
"""Paired host-clock A/B of perfbench: a parent revision against the working tree.

    python3 scripts/bench_ab.py [--parent REV]

Builds perfbench (`--release --offline`, one `CARGO_TARGET_DIR` each) in a
temporary directory, removed on exit: from a `git archive` export of
`--parent` (default `HEAD`) and from the working tree. Per workload it runs
the two binaries 10 times each at seed 1, for `BENCHMARK.json`'s
`run_seconds` with `--trace 0`, alternating which side runs first, and
aborts on any run that is not `correct` or has failed operations. For each
end-to-end metric of `BENCHMARK.json` it prints the medians with q1-q3, the
change/parent ratio, the pairs the change won (ties count for neither) and
a verdict:

- "better" where every change run beats every parent run;
- else "worse" where the change median is worse by more than the metric's
  bound, or "ok";
- and, unless "better", "unresolved" beside it where the parent's IQR over
  its median exceeds the bound, as the spread is too wide to tell.

Exits 1 if any metric is "worse" or "unresolved".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import bench_trajectory

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
PAIRS = 10


def build(src, target):
    """Build perfbench from the tree at `src` into `target`; its binary."""
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                    os.path.join(src, "perfbench", "Cargo.toml")],
                   check=True, env=dict(os.environ, CARGO_TARGET_DIR=target))
    return os.path.join(target, "release", "fastpso-perfbench")


def row(metric, parent, change):
    """One markdown row comparing paired runs of `metric`, and whether it fails the A/B."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    if not parent and not change:
        return f"| {name} | {bound} | not reported | | | | |", False
    if len(parent) != len(change):
        return f"| {name} | {bound} | reported by one side only | | | | |", True
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        verdict, bad = "better", False
    else:
        worse = cm > pm * (1 + bound) if lower else cm < pm * (1 - bound)
        spread = (p3 - p1) / abs(pm) if pm else 0.0
        verdict = "worse" if worse else "ok"
        if spread > bound:
            verdict += f", unresolved (parent IQR {spread:.2f} > {bound})"
        bad = worse or spread > bound
    ratio = f"{cm / pm:.4f}" if pm else "n/a"
    return (f"| {name} | {bound} | {pm:.6g} [{p1:.6g}–{p3:.6g}] | {cm:.6g} [{c1:.6g}–{c3:.6g}] "
            f"| {ratio} | {won}/{len(parent)} | {verdict} |"), bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD")
    parent_rev = ap.parse_args().parent
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args = ["--seconds", str(bench["run_seconds"]), "--trace", "0"]

    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_ab.") as work:
        parent_src = os.path.join(work, "parent-src")
        os.makedirs(parent_src)
        archive = subprocess.run(["git", "-C", ROOT, "archive", parent_rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_src], input=archive, check=True)
        sides = [("parent", build(parent_src, os.path.join(work, "parent-target")), parent_src),
                 ("change", build(ROOT, os.path.join(work, "change-target")), ROOT)]
        for workload in (w["name"] for w in bench["workloads"]):
            values = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side, binary, cwd in sides if i % 2 == 0 else sides[::-1]:
                    result, _ = bench_trajectory.run(workload, SEED, [binary], args, cwd)
                    values[side].append({k: m["value"] for k, m in result["metrics"].items()})
                print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
            print(f"\n{workload}: {PAIRS} pairs, --seed {SEED} {' '.join(args)}, "
                  f"parent {parent_rev}\n")
            print("| metric | bound | parent median [q1–q3] | change median [q1–q3] "
                  "| change/parent | change won | verdict |")
            print("|---|---:|---|---|---:|---:|---|")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                line, bad = row(metric, [v[name] for v in values["parent"] if name in v],
                                [v[name] for v in values["change"] if name in v])
                print(line)
                failed |= bad
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
