"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--compare FILE]

Runs the command from BENCHMARK.json once per seed of the N-M range and
workload of BENCHMARK.json, round-robin over the workloads for each seed so
that a slow phase of the host lands on all of them.  For each workload and metric it prints the median of the run
values, the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, the metric's
bound and the pass mark bound / 3.  The table is also written as JSON to
perfbench/runs/spread-<first seed>-<last seed>.json.  With --compare FILE it
also prints each median's change against an earlier table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    """The seeds of an N-M range, both ends included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--compare", help="an earlier spread table to compare medians with")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list]] = {w: {} for w in names}
    ok = True
    for seed in args.seeds:
        for w in names:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                ok = False
                print(f"seed {seed} {w}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
                continue
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in res["metrics"].items()
            ), flush=True)

    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)
    table = {}
    print(f"\n{'workload':16} {'metric':14} {'median':>10} {'iqr/med':>8} {'bound':>6} {'bound/3':>8}  n")
    for w in names:
        table[w] = {}
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            table[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
            mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            line = f"{w:16} {name:14} {med:10.4g} {spread:8.3f} {bound:>6} {mark:>12}  {len(vals)}"
            prev = earlier.get(w, {}).get(name)
            if prev:
                change = med / prev["median"] - 1
                line += f"  vs earlier {change:+.3f}"
                if change > bound:
                    line += " WORSE THAN BOUND"
            print(line)
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    out = os.path.join(HERE, "runs", f"spread-{args.seeds[0]}-{args.seeds[-1]}.json")
    with open(out, "w") as fh:
        json.dump(table, fh, indent=1)
    print(f"table written to {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
