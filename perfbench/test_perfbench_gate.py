"""Self-tests of the benchmark: its correctness gate is live and its metric names
match BENCHMARK.json.  They run a tiny workload (T3 over F2, well under a
second per child) through the same code path as the real workloads.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402

TINY = {
    "rings": ["F2"],
    "jobs": [
        {
            "argv": ["homology", "--ring", "F2", "--n", "3", "--format", "json"],
            "expect": {"f_vector": [14, 21], "betti": [0, 8]},
        }
    ],
}


@pytest.fixture(autouse=True)
def _fast(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "MIN_SETUPS", 1)
    monkeypatch.setattr(bench, "RUNS_DIR", str(tmp_path))


def _run(capsys, workload, trace=0):
    argv = ["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    rc = bench.main(argv, workloads={"tiny": workload})
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_correct_answer_passes(capsys):
    rc, res = _run(capsys, TINY)
    assert rc == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == {name for name, _ in bench.END_TO_END}


def test_wrong_expected_answer_fails_the_run(capsys):
    wrong = copy.deepcopy(TINY)
    wrong["jobs"][0]["expect"]["betti"] = [0, 9]
    rc, res = _run(capsys, wrong)
    assert rc == 1
    assert not res["correct"]
    assert res["failed"] >= 1


def test_changed_output_bytes_fail():
    run = bench.Run(TINY, seconds=0)
    job = TINY["jobs"][0]
    out = '{"f_vector": [14, 21], "homology": [{"betti": 0}, {"betti": 8}], "n": 3, "ring": "F2"}\n'
    assert run._check(0, job, {"rc": 0, "out": out}) == []
    problems = run._check(0, job, {"rc": 0, "out": out.replace(", ", ",")})
    assert problems == ["output bytes differ from this job's first output in the run"]


def test_traced_run_reports_every_per_layer_metric(capsys, tmp_path):
    rc, res = _run(capsys, TINY, trace=1)
    assert rc == 0 and res["failed"] == 0
    assert set(res["metrics"]) == {name for name, _ in bench.PER_LAYER}
    with open(tmp_path / "tiny-seed0-trace1.json") as fh:
        samples = json.load(fh)["samples"]
    assert samples["homology.smith_rank.d1"][0] == 13
    assert sum(samples[f"share.{layer}"][0] for layer in bench._LAYERS) == pytest.approx(1)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
