#!/usr/bin/env python3
"""Alternating-pair comparison of two checkouts' benchmark binaries.

Runs one workload of `benchmark/` at one seed and `--seconds`, as
`BENCHMARK.json`'s command does, in a parent and a change checkout, one
pair at a time, flipping which side runs first every pair so that drift
of the machine's load falls on both sides alike. Then, for every
end-to-end metric, prints each side's median and quartiles, how many
pairs the change won, and whether the gain is resolved: won in at least
nine of ten pairs, and medians further apart than the parent's
inter-quartile range (`identical` when every run of both sides read the
same value, as the modelled metrics should).

    python3 tools/abpair.py --parent <dir> --change <dir> \\
        --workload mono-sat-16k-n7 --seed 11 --seconds 10 --pairs 10

Each checkout's benchmark is built first, in its own
`benchmark/target/` (a no-op when it is up to date). Metric directions come
from the change checkout's `BENCHMARK.json`. Exits 1 if any run fails
its correctness gate.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def build(checkout):
    manifest = Path(checkout) / "benchmark" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        check=True,
    )


def run_once(checkout, args):
    binary = Path(checkout) / "benchmark" / "target" / "release" / "fortika-benchmark"
    out = subprocess.run(
        [
            str(binary),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout measured as the baseline")
    ap.add_argument("--change", required=True, help="checkout measured as the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    contract = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    for checkout in (args.parent, args.change):
        build(checkout)

    runs = {"parent": [], "change": []}
    failed = False
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(getattr(args, side), args)
            runs[side].append(result)
            if not result["correct"] or result["failed"]:
                failed = True
        host = {s: runs[s][-1]["metrics"]["host_us_per_delivered_msg"]["value"] for s in runs}
        print(
            f"pair {pair + 1}/{args.pairs} ({order[0]} first): host_us_per_delivered_msg "
            f"parent {host['parent']:.4f} change {host['change']:.4f}",
            file=sys.stderr,
        )

    need = -(-9 * args.pairs // 10)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s, {args.pairs} alternating pairs")
    print(f"{'metric':28} {'parent median (q1-q3)':>32} {'change median (q1-q3)':>32} {'won':>6}  resolved")
    for name, direction in better.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        if direction == "lower":
            won = sum(c < p for p, c in zip(parent, change))
        else:
            won = sum(c > p for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        if parent == change and len(set(parent)) == 1:
            verdict = "identical"
        elif won >= need and abs(cmed - pmed) > pq3 - pq1:
            verdict = "yes"
        else:
            verdict = "no"
        print(
            f"{name:28} {pmed:>14.4f} ({pq1:.4f}-{pq3:.4f}) {cmed:>14.4f} ({cq1:.4f}-{cq3:.4f}) "
            f"{won:>3}/{args.pairs}  {verdict}"
        )
    for side in runs:
        attempted = sum(r["attempted"] for r in runs[side])
        failures = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: {failures} of {attempted} operations failed, correct: {correct}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
