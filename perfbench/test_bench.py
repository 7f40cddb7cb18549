"""Short-mode runs of every workload; run with `python3 -m pytest perfbench -q`."""
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("icl-train", "long-context", "checks")
SHORT = ("--seconds", "0", "--min-ops", "2")
HELD_OUT_SEED = 90210


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(final JSON line, run record) of one short run; each is run once."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *SHORT],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" / f"{workload}-s{seed}-trace{trace}.json").read_text())
    return result, record


def check_result(result: dict, metrics: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def test_benchmark_json_matches_the_metric_registry():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in s["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == workloads.per_layer_metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_runs_emit_every_metric_and_counts_repeat(workload):
    untraced, untraced_record = run(workload, 0, 0)
    check_result(untraced, spec()["end_to_end"])
    traced, traced_record = run(workload, 0, 1)
    check_result(traced, spec()["per_layer"])
    # exact counts agree between the traced and the untraced run
    assert untraced_record["counts"] == {k: v for k, v in traced_record["counts"].items()
                                         if k in untraced_record["counts"]}
    for name, value in untraced_record["counts"].items():
        assert traced["metrics"][name]["value"] == value


def test_traced_losses_equal_untraced_bit_for_bit():
    _, untraced = run("icl-train", 0, 0)
    _, traced = run("icl-train", 0, 1)
    assert untraced["losses"].keys() == traced["losses"].keys()
    for kind, losses in untraced["losses"].items():
        assert len(losses) >= 3
        assert traced["losses"][kind][:len(losses)] == losses, kind


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean_with_the_same_counts(workload):
    """Another seed, another process: the exact counts repeat run to run."""
    result, record = run(workload, HELD_OUT_SEED, 0)
    check_result(result, spec()["end_to_end"])
    assert record["counts"] == run(workload, 0, 0)[1]["counts"]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "checks",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
