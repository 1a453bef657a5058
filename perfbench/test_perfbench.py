"""Smoke tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench
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


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def test_same_seed_writes_same_solutions():
    digests = set()
    for trace in ("0", "1"):
        proc = _run(ROOT, "--workload", "many-constraints", "--seed", "5", "--seconds", "1",
                    "--trace", trace, "--smoke")
        digests |= {line.split()[-1] for line in proc.stdout.splitlines()
                    if line.strip().startswith("solution_sha256")}
    assert len(digests) == 1


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def checked_mas_job(tmp_path, monkeypatch):
    """A checker that has passed the set-up jobs and the first solve of a tiny
    dense-solve plan, and that solve job."""
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    cli, _, evaluator, model, serialize = run.load_program()
    check = run.Checker(evaluator, model, serialize)
    setup, cycle = workloads.plan("dense-solve", 2, True, tmp_path)
    solve = next(job for job in cycle if job.spec.kind == "mas")
    for job in [*setup, solve]:
        cli.main(list(job.args), standalone_mode=False)
        assert check(job)[0] == [], job.label
    return check, solve


def test_checker_flags_a_report_that_disagrees_with_the_solution(checked_mas_job):
    check, solve = checked_mas_job
    report = json.loads(solve.report.read_text())
    report["satisfied"] -= 1
    solve.report.write_text(json.dumps(report))
    problems, _ = check(solve)
    assert any("re-score gives" in p for p in problems)


def test_checker_flags_a_rerun_that_writes_other_bytes(checked_mas_job):
    check, solve = checked_mas_job
    solve.out.write_bytes(solve.out.read_bytes() + b"\n")
    problems, _ = check(solve)
    assert any("differs from this job's first run" in p for p in problems)


def test_checker_flags_an_invalid_solution(checked_mas_job):
    check, solve = checked_mas_job
    obj = json.loads(solve.out.read_text())
    obj["solution"]["ranking"][0] = obj["solution"]["ranking"][1]
    solve.out.write_text(json.dumps(obj))
    # Check it as a first run: forget its digest and parse its instance again.
    del check.first[solve.out]
    inst, _ = check.serialize.obj_to_instance(json.loads(solve.instance.read_text()))
    check.instances[solve.instance] = inst
    problems, _ = check(solve)
    assert problems == ["ranking is not a permutation of 0..n-1"]
