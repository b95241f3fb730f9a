#!/usr/bin/env python3
"""Compares two sets of simbench runs, workload by workload.

    python3 simbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as run.py appends them to
.bench_build/simbench-results/runs.jsonl (copy that file aside after
the base commit's runs). Only untraced (--trace 0) records are used.

Host times are comparable only on one host and one build
configuration, so the comparison is refused (exit 2) when any record's
fingerprint -- CPU model, hardware threads, compiler, build type, LTO,
assertions -- differs from the others. Otherwise each end-to-end
metric of BENCHMARK.json is reported per workload as the two medians,
their ratio and the base's quartile spread, with a verdict:

  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  BASE's own quartile spread exceeds the bound;
  ok          otherwise.

The simulated metrics (sim_*) must also be identical seed for seed
on the seeds both files share; a difference means the model changed.
Exit status is 1 when any metric is worse or any model output changed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [r for r in rows if r["trace"] == 0 and r["correct"]]


def fingerprints(rows):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in rows}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base, new, spec):
    """Returns (lines, refused, worse)."""
    fps = fingerprints(base) | fingerprints(new)
    if len(fps) > 1:
        return (["refused: runs come from different fingerprints:"]
                + sorted(fps), True, False)
    lines, worse = [], False
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in new})
    for w in workloads:
        b = [r for r in base if r["workload"] == w]
        n = [r for r in new if r["workload"] == w]
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name] for r in b]
            nv = [r["metrics"][name] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = nm / bm if bm else float("inf")
            change = ratio - 1 if m["better"] == "lower" else 1 - ratio
            sp = spread(bv)
            if name.startswith("sim_"):
                bs = {r["seed"]: r["metrics"][name] for r in b}
                ns = {r["seed"]: r["metrics"][name] for r in n}
                same = [s for s in bs if s in ns]
                changed = any(bs[s] != ns[s] for s in same)
                if not same:
                    verdict = "no-shared-seed"
                else:
                    verdict = "model-changed" if changed else "identical"
                worse = worse or changed
            elif change > m["bound"]:
                verdict, worse = "worse", True
            elif sp > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append("%-18s %-15s base %-12.6g new %-12.6g "
                         "ratio %.4f spread %.4f (n=%d/%d) %s"
                         % (w, name, bm, nm, ratio, sp, len(bv), len(nv),
                            verdict))
    return lines, False, worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines, refused, worse = compare(load(argv[1]), load(argv[2]), spec)
    print("\n".join(lines))
    if refused:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
