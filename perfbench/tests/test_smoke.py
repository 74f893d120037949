"""Harness smoke test: shrunken workloads through the real entry point.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload runs in its ``--smoke`` size (a second or two per run), so
this checks the harness, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A directory laid out like a checkout: BENCHMARK.json plus src/."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "src").symlink_to(REPO / "src", target_is_directory=True)
    return root


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(checkout, workload, trace):
    proc = _run(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["env"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len({c["digest"] for c in record["children"] if c["digest"]}) == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_puts_back_every_function_it_wrapped():
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import phoenix.cli  # noqa: F401  (loads every module the CLI imports)
        from phoenix import autodiff, cli, federation, metrics
        from tracer import Tracer

        modules = {n: m for n, m in sys.modules.items()
                   if n == "phoenix" or n.startswith("phoenix.")}
        before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
        build = metrics.MetricsContext.__dict__["build"]
        conv2d, write_checkpoint = autodiff.conv2d, federation.write_checkpoint

        tracer = Tracer("test")
        tracer.install()
        try:
            assert autodiff.conv2d is not conv2d
            assert federation.write_checkpoint is not write_checkpoint
            assert cli.run_federation is federation.run_federation
            assert metrics.MetricsContext.__dict__["build"] is not build
        finally:
            tracer.uninstall()

        after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert metrics.MetricsContext.__dict__["build"] is build
    finally:
        sys.path.remove(str(REPO / "src"))
        sys.path.remove(str(BENCH))
