"""Tests of the benchmark itself, on tiny workload sizes.

Run from the repository root: PYTHONPATH=src python -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import workloads
from workloads import ArtifactRoundtrip, ConvergenceAudit, R2D2Reference

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_R2D2 = {
    "gauss_per_class": 30,
    "stage1_epochs": 5, "stage1_horizon": 5,
    "stage2_epochs": "2,2", "stage2_lrs": "0.01,0.008", "stage2_repredict": "0,1",
    "stage3_epochs": 2, "stage3_horizon": 2,
    "batch_labeled": 5, "batch_unlabeled": 20,
}


def tiny_audit():
    return ConvergenceAudit(steps=50, gauss_per_class=30, stage1_epochs=5, stage1_horizon=5)


def tiny_workloads():
    # A pool this small does not reach criterion 3's converged fraction,
    # so the audit's outputs are not required to pass its checks here.
    return [R2D2Reference(**TINY_R2D2), tiny_audit(), ArtifactRoundtrip(gauss_per_class=50)]


def measure(workload, tmp_path, trace):
    return harness.measure(workload, 1, 0.0, trace, tmp_path / "work", run.SRC)


def test_spec_names_the_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name not in workloads.UNLISTED]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("index", range(3))
def test_every_metric_emitted_with_its_unit(tmp_path, index, trace):
    workload = tiny_workloads()[index]
    result = measure(workload, tmp_path, trace)
    line = run.result_line(SPEC, result, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not isinstance(workload, ConvergenceAudit):
        assert line["correct"], result["problems"]
    json.dumps(line, allow_nan=False)


def test_self_times_sum_to_traced_total(tmp_path):
    from d2ssl import model, trainer

    original = model.forward
    result = measure(R2D2Reference(**TINY_R2D2), tmp_path, trace=True)
    layers = result["layers"]
    self_total = layers["trace.unattributed_self_s"] + sum(
        layers[f"{lay}.self_s"] for lay in ("model", "numerics", "pseudo", "trainer",
                                            "data", "diagnostics", "cli"))
    assert self_total == pytest.approx(layers["trace.run_s"], rel=1e-9)
    # every layer's busy time lies within the run
    assert all(layers[f"{lay}.s"] <= layers["trace.run_s"] for lay in ("model", "trainer"))
    # the wrappers are gone after the traced run
    assert model.forward is original and trainer.forward is original


def test_gradient_rows_match_traced_backward_rows(tmp_path):
    workload = R2D2Reference(**TINY_R2D2)
    result = measure(workload, tmp_path, trace=True)
    assert result["layers"]["model.backward.rows"] == workload.rows


class CorruptedSnapshot(ArtifactRoundtrip):
    """Flips one byte of the last logit of the written snapshot."""

    def run(self, out_dir):
        outputs = super().run(out_dir)
        path = Path(out_dir) / "pseudo.d2pl"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        return outputs


def test_corrupted_artifact_fails_its_check(tmp_path):
    result = measure(CorruptedSnapshot(gauss_per_class=50), tmp_path, trace=False)
    line = run.result_line(SPEC, result, trace=False)
    assert result["attempted"] >= 1
    assert line["failed"] == line["attempted"]
    assert not line["correct"]
    assert any("snapshot read back differs" in p for p in result["problems"])


def test_audit_checks_the_pseudo_logit_sum_drift(tmp_path):
    workload = tiny_audit()
    workload.prepare(1)
    outputs = workload.run(str(tmp_path))
    outputs["sums"] = outputs["sums"] + 1e-6
    assert any("sum drift" in p for p in workload.check(str(tmp_path), outputs))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "r2d2_reference",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
