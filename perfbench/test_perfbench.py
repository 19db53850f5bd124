"""Self-test of the benchmark at a small size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted basket becomes a counted failure rather than a traceback, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from bulkio import read_footer  # noqa: E402

SCALE = 1 / 8

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_with_its_unit(workload, trace, tmp_path):
    run = harness.Run(workload, seed=3, seconds=0.2, trace=trace,
                      workdir=str(tmp_path), scale=SCALE)
    result = run.execute()
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0, run.tally.failures
    # direct_sum rejects array columns: a known defect, reported apart
    assert run.defect_calls == run.defect_errors
    assert (run.defect_calls > 0) == workloads.WORKLOADS[workload].has_v
    if trace:
        share = result["metrics"]["dataframe.direct_sum_array_error_share"]["value"]
        assert share == (1.0 if run.defect_calls else 0.0)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".bkio")]


class CorruptedRun(harness.Run):
    """A run whose scanned file has one basket overwritten after set-up."""

    def _setup(self, path):
        inputs = super()._setup(path)
        if path == self.read_file:
            footer = read_footer(path)
            baskets = footer.branches[footer.branch_index(self.wl.read_column)].baskets
            bk = baskets[len(baskets) // 2]
            with open(path, "r+b") as fobj:
                fobj.seek(bk.file_offset)
                fobj.write(b"\xff" * min(64, bk.compressed_size))
        return inputs


@pytest.mark.parametrize("workload", ["scan-scalar", "scan-var-deflate"])
def test_corrupted_basket_is_a_counted_failure(workload, tmp_path):
    run = CorruptedRun(workload, seed=5, seconds=0.2, trace=False,
                       workdir=str(tmp_path), scale=SCALE)
    result = run.execute()
    assert result["failed"] > 0
    failed_paths = {f.split(":")[0] for f in run.tally.failures}
    if workload == "scan-var-deflate":
        # a broken deflate stream raises; rds-bulk reads the intact counts
        assert failed_paths == {"get-entry", "bulk", "reader", "fast-reader",
                                "rdf-standard", "rdf-bulk"}
        assert any("DecompressError" in f for f in run.tally.failures)
    else:
        # codec none: the bytes read fine but the sums come out wrong
        assert failed_paths == set(harness.PATH_NAMES)
        assert result["correct"] is False
    # the writer job writes its own, intact file
    assert "write" not in failed_paths


def test_cli_prints_json_last():
    # full size, but only the minimum number of cycles
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan-scalar",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
