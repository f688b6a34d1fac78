"""The benchmark's own tests: tiny runs of every workload and fault injection.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], n=4, b=2)


def test_workloads_match_benchmark_json():
    # small-blocks stays runnable by name but is not one of the benchmark's
    # workloads: its times drift past the bound with the host's speed.
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in bench.WORKLOADS if name != "small-blocks"
    ]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(name, trace, tmp_path):
    w = tiny(name)
    result = bench.run(w, 5, 0, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # Whole rounds: the prepared operand (and, untraced, the memory pass)
    # plus every repetition of every operation in each round.
    prepared = 1 if trace else 2
    assert result["attempted"] == prepared + bench.MIN_ROUNDS * sum(w.reps.values())
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_traced_counts_match_the_model(tmp_path):
    w = tiny("small-blocks")
    metrics = bench.run(w, 2, 0, True, tmp_path)["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["change_of_basis.flops"] == value["costs.flops"]
    assert value["storage.payload_elems"] == 2**5 * 6  # b^m C(nbar+m-1, m), nbar = 2
    assert [value[f"change_of_basis.temps.level{k}"] for k in range(1, 5)] == [5, 4, 3, 2]
    assert value["dense.gemm_calls.bcss"] > 0
    assert value["indexing.canonicalize_calls.load"] == 2**5


def test_perturbed_block_fails_the_operation_and_is_named(monkeypatch, capsys, tmp_path):
    real = bench.sttsm_bcss
    bad = (0, 0, 1, 1)

    def perturbed(*args, **kwargs):
        c = real(*args, **kwargs)
        c.blocks[bad] = c.blocks[bad] + 1e-6
        return c

    monkeypatch.setattr(bench, "sttsm_bcss", perturbed)
    w = tiny("dense-ingest")
    result = bench.run(w, 1, 0, False, tmp_path)
    err = capsys.readouterr().err
    bcss_ops = 1 + bench.MIN_ROUNDS * (w.reps["bcss"] + w.reps["bcss_noreuse"])
    assert result["failed"] == bcss_ops
    assert result["correct"] is True
    assert err.count(f"worst block {bad}") == bcss_ops


def test_corrupt_file_fails_the_load(monkeypatch, capsys, tmp_path):
    real = bench.load_bcss

    def corrupted(path):
        a = real(path)
        a.blocks[(0, 1, 1, 1)] = -a.blocks[(0, 1, 1, 1)]
        return a

    monkeypatch.setattr(bench, "load_bcss", corrupted)
    w = tiny("dense-ingest")
    result = bench.run(w, 1, 0, False, tmp_path)
    assert result["failed"] == bench.MIN_ROUNDS * w.reps["load"]
    assert "block (0, 1, 1, 1) differs bitwise" in capsys.readouterr().err


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small-blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
