"""Self-test of the benchmark harness.

A reduced-size run of every workload must emit exactly the metrics named
in BENCHMARK.json, each with its unit, and the output checks must count a
deliberately broken projection as a failed op.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = bench.run(workload, seed=3, seconds=0, trace=trace, import_s=0.0,
                       root=tmp_path, size="SMOKE")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert not (tmp_path / ".perfbench_tmp").exists()


def test_non_orthonormal_projection_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["wide_q_lt_n"]
    state = wl.setup(3, wl.SMOKE)
    ref = wl.reference(state)

    clean = workloads.Pass()
    wl.run_pass(state, clean, tmp_path)
    wl.check(state, ref, clean, tmp_path)
    assert clean.failed == 0

    broken = workloads.Pass()
    wl.run_pass(state, broken, tmp_path)
    broken.results["omcca"].projections[0] *= 1.5
    wl.check(state, ref, broken, tmp_path)
    assert broken.failed == 1
    assert any("X^T X - I" in msg for msg in broken.problems["omcca"])
