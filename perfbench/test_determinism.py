#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat for a seed, and the seed
reaches the inputs.

    python3 perfbench/test_determinism.py

For each workload, two traced runs of one untraced and one traced round
(--seconds 0 --trace 1) must print identical count metrics (compiles,
recompiles, native installs, exits and code bytes, comparator pairs, cache
hits, ...), and two untraced one-round runs must print the same
false_positive_pct, attempted and failed counts. With --seconds 0 a run
makes its minimum number of rounds: one untraced, two traced. compile_storm under a
second seed must print another input digest. Exits non-zero on any
difference.
"""

import json
import re
import sys

import run as bench

# per-layer metrics with these units are counts or ratios of counts
COUNT_UNITS = {"count", "ratio", "bytes"}


def result(out):
    return json.loads(out.strip().splitlines()[-1])


def digest(out):
    return re.search(r"input digest ([0-9a-f]+)", out).group(1)


def exact(res, traced):
    if traced:
        vals = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS}
    else:
        vals = {"false_positive_pct": res["metrics"]["false_positive_pct"]["value"]}
    vals["attempted"] = res["attempted"]
    vals["failed"] = res["failed"]
    return vals


def main():
    bench.build()
    problems = []
    digests = {}
    for w in bench.WORKLOADS:
        for traced in (True, False):
            args = ["--workload", w, "--seed", "1", "--seconds", "0",
                    "--trace", "1" if traced else "0"]
            a, b = bench.run(args), bench.run(args)
            ra, rb = result(a), result(b)
            digests[w] = digest(a)
            if digest(a) != digest(b):
                problems.append(f"{w}: same seed, different input digests")
            for r in (ra, rb):
                if not r["correct"] or r["failed"]:
                    problems.append(f"{w}: {r['failed']} of {r['attempted']} checks failed")
            ea, eb = exact(ra, traced), exact(rb, traced)
            diff = sorted(k for k in ea if ea[k] != eb.get(k))
            label = "traced" if traced else "untraced"
            print(f"{w} {label}: {len(ea)} exact values, {len(diff)} differ")
            problems += [f"{w} {label}: {k} {ea[k]} != {eb.get(k)}" for k in diff]
    other = digest(bench.run(["--workload", "compile_storm", "--seed", "2", "--seconds", "0",
                              "--trace", "0"]))
    if other == digests["compile_storm"]:
        problems.append("compile_storm: seeds 1 and 2 gave the same input digest")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
