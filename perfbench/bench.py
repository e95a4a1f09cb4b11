"""Benchmark of the titscomplex CLI.

Usage (from the repository root):

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a list of `titscomplex` CLI jobs.  Every job runs in a fresh
child process (perfbench/child.py), one child at a time: a batch run with one
closed-loop client.  Rounds of children repeat until S seconds have passed.
Every output is checked against expectations derived independently of the
enumeration (closed Grassmannian counts and the rank recursion) and against
the bytes of the job's first output in this run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics.  The last line of stdout is
one JSON object; the full per-child record goes to perfbench/runs/.  Times
are reference-speed seconds: raw x (CALIB_REF / mean calibration snippet
time in the window) ** CAL_EXPONENT -- see README.md for why.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(HERE, "runs")

# Seconds one calibration snippet (child.py) takes on the reference host in
# its fast phase: 2 vCPU Intel Xeon, Python 3.11.7.
CALIB_REF = 0.00125
# In slow host phases the workloads slow down more than the snippet: the
# log-log slope of raw job time on snippet time measured 0.79 to 1.48 over
# the workloads and three library kernels (README.md).  At 1.2, about the
# mean slope, homology-t4-f3 (slope 1.44) kept a ten-run wall_s spread of
# 0.075; 1.3 brings it to about 0.045 without widening the other workloads.
CAL_EXPONENT = 1.3
# set-up samples per untraced run, at least
MIN_SETUPS = 20
# no child may run past this many seconds after the run started
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "build-t3-z9": {
        "rings": ["Z/9"],
        "jobs": [
            {
                "argv": ["homology", "--ring", "Z/9", "--n", "3", "--format", "json"],
                "expect": {"f_vector": [234, 1404], "betti": [0, 1171]},
            }
        ],
    },
    "homology-t4-f3": {
        "rings": ["F3"],
        "jobs": [
            {
                "argv": ["homology", "--ring", "F3", "--n", "4", "--format", "json"],
                "expect": {"f_vector": [210, 1560, 2080], "betti": [0, 0, 729]},
            }
        ],
    },
    "apartments-t3": {
        "rings": ["F7", "Z/2xZ/2"],
        "jobs": [
            {
                # The CLI's default seed.  The sampled stopping rule needs 5k to 21k
                # apartments depending on the seed (README.md), so a seed taken from
                # --seed would spread wall_s fourfold between runs.
                "argv": ["apartments", "--ring", "F7", "--n", "3", "--seed", "0", "--format", "json"],
                "expect": {"span_rank": 343, "mode": "sampled"},
            },
            {
                "argv": ["apartments", "--ring", "Z/2xZ/2", "--n", "3", "--format", "json"],
                "expect": {"span_rank": 344, "mode": "exhaustive"},
            },
        ],
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
# Printed with the end-to-end metrics but not in BENCHMARK.json: the mean
# calibration snippet time during a job window over the mean of the snippets
# bracketing it.  The in-window snippets share the process with the library,
# so a change that moves this ratio has moved the calibration of its own times.
END_TO_END_PRINTED = [("cal.in_window_ratio", "ratio")]

_TIMES = [
    "rings.make_ring_s",
    "linalg.span_if_free_s",
    "linalg.quotient_free_rank_s",
    "grassmann.grassmannian_s",
    "complexes.build_s",
    "homology.chain_complex_s",
    "homology.smith_s.d0",
    "homology.smith_s.d1",
    "homology.smith_s.d2",
    "homology.echelon_add_s",
    "steinberg.apartment_span_s",
    "steinberg.apartment_class_s",
    "cli.self_s",
]
_COUNTS = [
    "linalg.span_if_free_calls",
    "linalg.quotient_free_rank_calls",
    "complexes.member_vectors",
    "homology.echelon_adds",
    "steinberg.apartment_class_calls",
    "steinberg.apartments_used",
]
# Counts fixed by the workload's mathematics, not by how the library computes
# them (the gate checks most through the f-vector and Betti numbers), so no
# correct change can move them.  They are printed, not listed in BENCHMARK.json.
_INVARIANTS = [
    "grassmann.summands",
    "complexes.simplices",
    "complexes.facets",
    "complexes.included_not_cofree",
    "homology.nnz",
    "homology.smith_rank.d0",
    "homology.smith_rank.d1",
    "homology.smith_rank.d2",
    "homology.echelon_gains",
]
_LAYERS = ["rings", "linalg", "grassmann", "complexes", "homology", "steinberg", "cli"]
PER_LAYER = (
    [(name, "s") for name in _TIMES]
    + [(name, "count") for name in _COUNTS]
    + [
        ("homology.echelon_useful_ratio", "ratio"),
        ("steinberg.span_useful_ratio", "ratio"),
    ]
    + [("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio")]
)
# Printed with the per-layer metrics but not in BENCHMARK.json: the pinned
# counts, and each layer's share of the traced wall_s (the shares add up to
# 1, so no direction is better for all of them).
PER_LAYER_PRINTED = [(name, "count") for name in _INVARIANTS] + [
    (f"share.{layer}", "ratio") for layer in _LAYERS
]


# ---------------------------------------------------------------------------
# expectations


def derived_expectations(job: dict) -> dict:
    """The job's answer from closed formulas alone (no enumeration).

    f_d counts flags V_0 < ... < V_d of free-and-cofree summands with ranks
    r_0 < ... < r_d in 1..n-1; each quotient R^n / V_i is free, so the count
    is the product of |Gr_{r_(i+1) - r_i}^{n - r_i}|.  The top Betti number
    and the apartment span rank both equal the rank recursion's value.
    """
    from titscomplex.grassmann import grassmannian_size_formula
    from titscomplex.rings import parse_ring_spec
    from titscomplex.steinberg import steinberg_rank

    argv = job["argv"]
    spec = parse_ring_spec(argv[argv.index("--ring") + 1])
    n = int(argv[argv.index("--n") + 1])
    top = steinberg_rank(spec, n)
    if argv[0] == "apartments":
        return {"span_rank": top, "top_betti": top}
    f = [0] * (n - 1)
    for size in range(1, n):
        for ranks in itertools.combinations(range(1, n), size):
            count, prev = 1, 0
            for r in ranks:
                count *= grassmannian_size_formula(spec, n - prev, r - prev)
                prev = r
            f[size - 1] += count
    return {"f_vector": f, "betti": [0] * (n - 2) + [top]}


def check_output(argv: list[str], text: str, expected: dict[str, dict]) -> list[str]:
    """Problems with one job's output (empty when it is correct).

    `expected` maps the name of each independent source to the answers it
    predicts; every source must agree with the output.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"output is not JSON: {text[:80]!r}"]
    fixed = {"ring": argv[argv.index("--ring") + 1], "n": int(argv[argv.index("--n") + 1])}
    problems = []
    if argv[0] == "homology":
        doc["betti"] = [h.get("betti") for h in doc.get("homology", [])]
    else:
        fixed.update(saturated=True, match=True)
        used, rank = doc.get("apartments_used"), doc.get("span_rank")
        if not (isinstance(used, int) and isinstance(rank, int) and used >= rank):
            problems.append(f"apartments_used {used!r} is below the span rank {rank!r}")
    for source, want in [("the command line", fixed)] + list(expected.items()):
        for key, value in want.items():
            if doc.get(key) != value:
                problems.append(f"{key}: got {doc.get(key)!r}, {source} expects {value!r}")
    return problems


# ---------------------------------------------------------------------------
# children


def _scale(raw: float, cal: dict) -> float:
    """Raw seconds of a window in reference-speed seconds."""
    return raw * (CALIB_REF / cal["mean"]) ** CAL_EXPONENT


class Run:
    """Children of one benchmark run, their records, and the failure count."""

    def __init__(self, workload: dict, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.start = time.perf_counter()
        self.limit = self.start + RUN_LIMIT_S
        self.records: list[dict] = []
        self.first_hash: dict[int, str] = {}
        self.expected = [
            {"the workload table": job["expect"], "the closed formulas": derived_expectations(job)}
            for job in workload["jobs"]
        ]
        self.attempted = 0
        self.failed = 0

    def child(self, job_index: int | None, traced: bool = False) -> dict | None:
        """Run one child; its record when it succeeded, else None."""
        task = {"src": SRC, "rings": self.workload["rings"], "trace": traced}
        job = None
        if job_index is not None:
            job = self.workload["jobs"][job_index]
            task["argv"] = job["argv"]
        self.attempted += 1
        rec = {"job": job_index, "traced": traced, "problems": []}
        self.records.append(rec)
        try:
            # subprocess.run kills the child on timeout and waits for it
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(task)],
                capture_output=True, text=True, cwd=ROOT,
                timeout=max(0.0, self.limit - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            rec["problems"].append("run time limit reached")
        else:
            if proc.returncode != 0:
                rec["problems"].append(f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        if job is not None and not rec["problems"]:
            rec["problems"] += self._check(job_index, job, rec)
        if job is not None and "out" in rec:
            del rec["out"]
        if rec["problems"]:
            self.failed += 1
            return None
        return rec

    def _check(self, job_index, job, rec) -> list[str]:
        if rec.get("error"):
            return [rec["error"]]
        problems = [] if rec.get("rc") == 0 else [f"exit code {rec.get('rc')}"]
        problems += check_output(job["argv"], rec["out"], self.expected[job_index])
        digest = hashlib.sha256(rec["out"].encode()).hexdigest()
        rec["sha256"] = digest
        first = self.first_hash.setdefault(job_index, digest)
        if digest != first:
            problems.append("output bytes differ from this job's first output in the run")
        return problems

    def job_round(self, traced: bool) -> list[dict] | None:
        recs = [self.child(j, traced) for j in range(len(self.workload["jobs"]))]
        return None if None in recs else recs

    def more_time(self, round_started: float) -> bool:
        now = time.perf_counter()
        return now < self.start + self.seconds and now + (now - round_started) < self.limit


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_end_to_end(run: Run) -> dict:
    walls, rss, setups, cal_ratios = [], [], [], []

    def setup_sample(rec):
        setups.append(_scale(rec["setup_raw"], rec["setup_cal"]))

    while True:
        t = time.perf_counter()
        rec = run.child(None)
        if rec:
            setup_sample(rec)
        recs = run.job_round(traced=False)
        if recs:
            walls.append(sum(_scale(r["wall_raw"], r["wall_cal"]) for r in recs))
            rss.append(max(r["maxrss_kib"] for r in recs) / 1024)
            for r in recs:
                setup_sample(r)
                cal = r["wall_cal"]
                if cal["during"] is not None:
                    cal_ratios.append(cal["during"] * 2 / (cal["before"] + cal["after"]))
        if not run.more_time(t):
            break
    while len(setups) < MIN_SETUPS and time.perf_counter() + 5 < run.limit:
        rec = run.child(None)
        if rec:
            setup_sample(rec)
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mib": rss, "cal.in_window_ratio": cal_ratios}


def measure_per_layer(run: Run) -> dict:
    samples: dict[str, list] = {name: [] for name, _ in PER_LAYER + PER_LAYER_PRINTED}
    untraced = []
    while True:
        t = time.perf_counter()
        plain = run.job_round(traced=False)
        recs = run.job_round(traced=True)
        if plain:
            untraced.append(sum(_scale(r["wall_raw"], r["wall_cal"]) for r in plain))
        if recs:
            times: dict[str, float] = {}
            counts: dict[str, int] = {}
            layers: dict[str, float] = {}
            wall = 0.0
            windows = [(r["setup_trace"], r["setup_cal"]) for r in recs]
            windows += [(r["trace"], r["wall_cal"]) for r in recs]
            for tr, cal in windows:
                for k, v in tr["times"].items():
                    times[k] = times.get(k, 0.0) + _scale(v, cal)
                for k, v in tr["counts"].items():
                    counts[k] = counts.get(k, 0) + v
                for k, v in tr["layers"].items():
                    layers[k] = layers.get(k, 0.0) + _scale(v, cal)
                wall += _scale(tr["wall"], cal)
            for name in _TIMES:
                samples[name].append(times.get(name, 0.0))
            for name in _COUNTS + _INVARIANTS:
                samples[name].append(counts.get(name, 0))
            adds = counts.get("homology.echelon_adds", 0)
            used = counts.get("steinberg.apartments_used", 0)
            samples["homology.echelon_useful_ratio"].append(
                counts.get("homology.echelon_gains", 0) / adds if adds else 0.0
            )
            samples["steinberg.span_useful_ratio"].append(
                counts.get("steinberg.span_rank", 0) / used if used else 0.0
            )
            for layer in _LAYERS:
                samples[f"share.{layer}"].append(layers.get(layer, 0.0) / wall)
            samples["trace.wall_s"].append(wall)
        if not run.more_time(t):
            break
    if untraced and samples["trace.wall_s"]:
        samples["trace.overhead_ratio"] = [
            statistics.median(samples["trace.wall_s"]) / statistics.median(untraced)
        ]
    return samples


# ---------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="recorded with the run; every workload's input is fixed (README.md)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = _parse(argv)
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    if not os.path.isdir(os.path.join(SRC, "titscomplex")):
        print(f"no titscomplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    loadavg = os.getloadavg()
    run = Run(workload, args.seconds)
    if args.trace:
        samples = measure_per_layer(run)
        units, printed = PER_LAYER, PER_LAYER_PRINTED
    else:
        samples = measure_end_to_end(run)
        units, printed = END_TO_END, END_TO_END_PRINTED

    metrics, table = {}, []
    for name, unit in units + printed:
        values = samples.get(name)
        if not values:
            continue
        q1, med, q3 = _quartiles(values)
        if (name, unit) in units:
            metrics[name] = {"value": med, "unit": unit}
        table.append(f"{name:34} {med:14.6g} {unit:6} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    correct = run.failed == 0 and len(metrics) == len(units)
    table.append(f"{'fail_ratio':34} {run.failed / run.attempted:14.6g} {'ratio':6} "
                 f"({run.failed} of {run.attempted} child runs failed)")
    for rec in run.records:
        for problem in rec["problems"]:
            table.append(f"FAILED job {rec['job']} (traced {rec['traced']}): {problem}")

    os.makedirs(RUNS_DIR, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [job["argv"] for job in workload["jobs"]],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "calib_ref": CALIB_REF,
        "cal_exponent": CAL_EXPONENT,
        "elapsed_s": time.perf_counter() - run.start,
        "attempted": run.attempted,
        "failed": run.failed,
        "samples": samples,
        "children": run.records,
    }
    path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {run.attempted} child runs, "
          f"record {os.path.relpath(path, ROOT)}")
    print("\n".join(table))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
