"""Smoke test of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs at reduced size and passes its checks; corrupting an
expected value or breaking an input makes jobs fail without stopping the
run; the seed changes the generated data and nothing that is expected.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_reduced_job_passes_its_checks(name):
    state = workloads.setup(name, seed=1, profile="smoke")
    tr = Tracer(True)
    assert workloads.run_job(state, tr) == []
    assert tr.calls and set(tr.calls) <= set(workloads.SPANS)
    assert not tr.failed


CORRUPT = {
    "report": lambda e: e.update(sha256="0" * 64),
    "certify": lambda e: e.update(gf2_rank=e["gf2_rank"] + 1),
    "codec": lambda e: e["exports"].update({"b.dense": "0" * 64}),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_expected_value_fails_every_job(name):
    state = workloads.setup(name, seed=1, profile="smoke")
    CORRUPT[name](state.expected)
    jobs, _, on = run.closed_loop(state, 0.2, trace=True)
    assert len(jobs) >= 2
    assert all(problems for _, _, problems in jobs)
    assert sum(on.failed.values()) >= sum(1 for traced, _, _ in jobs if traced)


def test_exception_in_a_job_is_counted_and_the_run_goes_on():
    state = workloads.setup("certify", seed=1, profile="smoke")
    state.sizes["code_k"] = 1  # make_code refuses k < 3
    jobs, _, on = run.closed_loop(state, 0.2, trace=True)
    assert len(jobs) >= 2
    assert all("ValueError" in problems[0] for _, _, problems in jobs)
    assert on.failed["codes.make_code"] == sum(1 for traced, _, _ in jobs if traced)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_generated_data_but_not_expected_values(name):
    one = workloads.setup(name, seed=1, profile="smoke")
    two = workloads.setup(name, seed=2, profile="smoke")
    assert one.expected == two.expected
    if name != "report":  # the report job has no generated input
        assert one.inputs != two.inputs
    assert workloads.setup(name, seed=1, profile="smoke").inputs == one.inputs
    assert workloads.run_job(two, Tracer(False)) == []


def test_full_report_digest_matches_the_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "full_report.py")],
        capture_output=True, check=True, env=env, timeout=120,
    ).stdout
    expected = workloads.load_expected("full")["report"]["sha256"]
    assert hashlib.sha256(out).hexdigest() == expected


def test_benchmark_json_lists_the_metrics_the_run_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == (
        run.per_layer_catalogue()
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_contract_line(trace):
    proc = _run_cli(ROOT, "--workload", "report", "--seed", "5", "--seconds", "0",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in proc.stdout  # also printed by name
    if trace == "1":  # layer self times and the uncovered rest make up the job
        values = {name: v["value"] for name, v in last["metrics"].items()}
        covered = sum(values[run.time_metric(s)] for s in workloads.SPANS)
        total = covered + values["trace.uncovered_s"]
        assert total == pytest.approx(values["trace.job_s_mean"], rel=1e-9)
        assert covered > 0.9 * total


def test_cli_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "report", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
