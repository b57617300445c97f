#!/usr/bin/env python3
"""A/A tool: run the same binary twice over, N runs a side, and say
whether the benchmark agrees with itself.

    aa.py BINARY N

For each workload it makes N alternating pairs of runs (A then B, B then
A, ...) of `run_seconds` from BENCHMARK.json, every run with another seed,
exactly as the driver does: run i of either side uses seed i. Per
end-to-end metric and workload it prints, as a markdown document on
standard output, both medians, the quartiles, the spread (distance between
the first and third quartile as a share of the median,
`statistics.quantiles(values, n=4)`), the shift between the two medians in
the worse direction, and the bound from BENCHMARK.json. A row whose spread
is over half its bound is marked `noisy`: the bound is less than twice the
spread, so a shift of that size on that workload is unresolved, not a
regression. It exits non-zero when a spread or a shift exceeds its bound
(`OVER`), or when a run was incorrect.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, pairs = sys.argv[1], int(sys.argv[2])
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]

    rows, failures = [], []
    for workload in (w["name"] for w in manifest["workloads"]):
        sides = {"A": [], "B": []}
        for i in range(pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                sides[side].append(run(binary, workload, i + 1, seconds))
                print(f"  {workload} pair {i + 1}/{pairs} side {side} done", file=sys.stderr)
        for metric in manifest["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a = [r[name] for r in sides["A"]]
            b = [r[name] for r in sides["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            (q1a, q3a, sa), (q1b, q3b, sb) = spread(a), spread(b)
            # How much worse the second median is than the first.
            shift = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            verdict = "ok" if max(sa, sb) <= bound / 2 else "noisy"
            if shift > bound or max(sa, sb) > bound:
                verdict = "OVER"
                failures.append(f"{workload}/{name}")
            rows.append((workload, name, metric["unit"], med_a, q1a, q3a, sa, med_b, q1b, q3b, sb, shift, bound, verdict))

    print(f"# A/A: {pairs} alternating pairs per workload, {seconds} s runs, seeds 1..{pairs}\n\n"
          "Both sides are the same binary. Spread is (Q3 − Q1) / median over one side's runs; "
          "\"B worse by\" is the shift of B's median against A's in the worse direction; "
          "`noisy` marks a spread over half the bound. "
          "The bounds in `BENCHMARK.json` come from this table.\n\n"
          "| workload | metric | unit | median A | Q1–Q3 A | spread A | median B | Q1–Q3 B | spread B "
          "| B worse by | bound | |\n|---|---|---|---|---|---|---|---|---|---|---|---|")
    for w, n, u, ma, q1a, q3a, sa, mb, q1b, q3b, sb, sh, bd, verdict in rows:
        print(f"| {w} | {n} | {u} | {ma:.5g} | {q1a:.5g}–{q3a:.5g} | {sa:.1%} | {mb:.5g} | {q1b:.5g}–{q3b:.5g} | {sb:.1%} "
              f"| {sh:+.1%} | {bd:.0%} | {verdict} |")
    if failures:
        sys.exit("over bound: " + ", ".join(failures))


if __name__ == "__main__":
    main()
