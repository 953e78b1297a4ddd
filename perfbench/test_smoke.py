"""Smoke test of the benchmark itself, on shrunken inputs.

Runs every workload path untraced and traced with a short dataset and a few
steps per episode, parses the output, and checks that every metric
BENCHMARK.json names appears with its unit. From the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("fixed_point", "raw_hankel", "energy_rule", "circle")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _assert_reports(metrics: dict, kind: str, prefix: str = "") -> None:
    names = {n[len(prefix):] for n in metrics if n.startswith(prefix)}
    assert names == {metric["name"] for metric in SPEC[kind]}
    for metric in SPEC[kind]:
        reported = metrics[prefix + metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric_with_its_unit(workload, trace, kind):
    child = _run("--workload", workload, "--smoke", "--seconds", "1", "--trace", str(trace))
    assert child.returncode == 0, child.stderr
    _assert_reports(_result(child.stdout)["metrics"], kind)
    if trace == 0:
        for rate in ("deadline_miss_frac", "fallback_frac"):
            assert f"  {rate} " in child.stdout


def test_all_runs_exactly_the_workloads_benchmark_json_lists():
    child = _run("--smoke", "--seconds", "1", "--trace", "0")
    assert child.returncode == 0, child.stderr
    metrics = _result(child.stdout)["metrics"]
    listed = [w["name"] for w in SPEC["workloads"]]
    assert {name.split(".", 1)[0] for name in metrics} == set(listed)
    for workload in listed:
        _assert_reports(metrics, "end_to_end", workload + ".")


def test_output_files_are_named_by_both_seeds():
    child = _run("--workload", "energy_rule", "--smoke", "--seconds", "1", "--trace", "1",
                 "--dataset-seed", "3", "--plant-seed", "5")
    assert child.returncode == 0, child.stderr
    assert '"dataset_seed": 3' in child.stdout and '"plant_seed": 5' in child.stdout
    record = json.loads((HERE / "out" / "energy_rule-d3-p5-trace1.json").read_text())
    assert record["span_file"] == "perfbench/out/spans-energy_rule-d3-p5.json"
    assert (ROOT / record["span_file"]).is_file()


def test_fails_without_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = _run("--workload", "fixed_point", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout.strip() == ""
