"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    wl = workloads.KappaSmall(5, tmp_path)
    wl.setup()
    wl.trace_ops = 1  # the first request only: a K4 vertex
    record = run.traced_run(wl)
    result = record["result"]
    assert result["correct"], record["ops"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["curvature.descents"] > 0
    assert metrics["curvature.objective_evals"] >= metrics["curvature.descents"]
    shares = [v for k, v in metrics.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_wrong_expected_constant_counts_as_failed_op(tmp_path, monkeypatch):
    wl = workloads.KappaSmall(5, tmp_path)
    wl.setup()
    wl.pool = [r for r in wl.pool if r.kind == "hypercube"][:1]
    assert not run.run_ops(wl, count=1)[0]["failed"]
    monkeypatch.setattr(workloads, "HYPERCUBE_KAPPA", 2.5)
    assert run.run_ops(wl, count=1)[0]["failed"]


class _Fake(workloads.Workload):
    """Requests 0, 1, 0: the third op repeats the first."""

    name = "fake"

    def __init__(self, tmp_path, artifacts):
        super().__init__(0, tmp_path)
        self.artifacts = iter(artifacts)

    def build_pool(self):
        self.pool = [workloads.Request(0, "a"), workloads.Request(1, "b"),
                     workloads.Request(0, "a")]

    def warm_up(self):
        pass

    def run(self, req):
        if req.kind == "b":
            raise ValueError("boom")
        return req

    def check(self, req, res):
        return []

    def artifact(self, req, res):
        return next(self.artifacts)


def test_raise_and_nonrepeating_artifact_count_as_failures(tmp_path):
    wl = _Fake(tmp_path, [b"x", b"y"])
    wl.setup()
    failed = [r["failed"] for r in run.run_ops(wl, count=3)]
    assert failed == [False, True, True]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "kappa_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
