"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh child process (``child.py``), one at a
time, with BLAS, OpenMP and MKL pinned to one thread each and the program's
default worker count. The thread budget is fixed here rather than inherited
from the shell, because default BLAS threading made a desk round several
times slower under contention, and the second core is left for the
program's own parallelism.

``--trace 0`` runs the workload in full children back to back while the
next one is expected to end within ``--seconds`` (at least one), then
set-up-only children until set-up has been timed three times, and reports
the end-to-end metrics as medians. ``--trace 1`` runs one untraced and one
traced child and reports the per-layer metrics; both must produce the same
digest. The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A record with the environment, work counts, digests and per-child figures
is printed on the line before it and kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0       # every run must end within 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out = root / ".perfbench"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {**os.environ, **CHILD_ENV}

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, trace: int, tag: str) -> dict:
        """Run one child to completion and return its result document."""
        name = f"{self.workload}-seed{self.seed}-{tag}-{os.getpid()}"
        work = self.out / "work" / name
        result_path = self.out / "work" / f"{name}.json"
        log_path = self.out / "work" / f"{name}.log"
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
               "--trace", str(trace), "--work", str(work), "--result", str(result_path)]
        if trace:
            traces = self.out / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{self.workload}-seed{self.seed}.json")]
        if self.smoke:
            cmd.append("--smoke")
        spawned = time.time()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        wall = time.time() - spawned
        result = {"ok": False, "error": "child wrote no result"}
        if result_path.exists():
            result = json.loads(result_path.read_text())
        if code != 0:
            result["ok"] = False
            result["error"] = (f"child exited with {code if code is not None else 'timeout'}: "
                               + log_path.read_text()[-2000:])
        if result.get("round1_wall") is not None:
            result["setup_s"] = result["round1_wall"] - spawned
        result["wall_s"] = wall
        shutil.rmtree(work, ignore_errors=True)
        result_path.unlink(missing_ok=True)
        if result["ok"]:
            log_path.unlink()
        return result


def _median(values):
    return statistics.median(values) if values else None


def measure(runner: Runner, seconds: int) -> tuple[list[dict], list[float]]:
    """Full children within the time budget, then set-up-only children."""
    fulls: list[dict] = []
    start = time.monotonic()
    while True:
        child = runner.spawn("full", 0, f"full{len(fulls)}")
        fulls.append(child)
        elapsed = time.monotonic() - start
        if not child["ok"] or elapsed + child["wall_s"] > seconds:
            break
        if runner.remaining() < 2 * child["wall_s"]:
            break
    setups = [c["setup_s"] for c in fulls if c["ok"]]
    while fulls[0]["ok"] and len(setups) < SETUP_SAMPLES and runner.remaining() > 30:
        child = runner.spawn("setup", 0, f"setup{len(setups)}")
        if not child["ok"]:
            fulls.append(child)
            break
        setups.append(child["setup_s"])
    return fulls, setups


def tally(children: list[dict]) -> tuple[int, int, bool]:
    """Operations attempted and failed; an operation is a client-round or a run.

    A run fails on a non-zero exit, a failed output check, or a digest that
    differs from the first child's: every child of one run uses the same
    seed, so their outputs must be identical.
    """
    reference = next((c["digest"] for c in children if c.get("digest")), None)
    attempted = failed = 0
    for child in children:
        if child.get("digest") is not None and child["digest"] != reference:
            child["ok"] = False
            child["error"] = f"digest {child['digest']} differs from {reference}"
        attempted += child.get("client_rounds", 0) + 1
        failed += child.get("clients_faulted", 0) + (0 if child["ok"] else 1)
    return attempted, failed, all(c["ok"] for c in children)


def baseline_digest(workload: str, seed: int, digest: str | None) -> str:
    """Compare against the digests recorded when the benchmark was defined."""
    table = json.loads((HERE / "reference_digests.json").read_text())
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is None or digest is None:
        return "unrecorded"
    return "same" if recorded == digest else "changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phoenix benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads, for the harness test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "phoenix" / "__init__.py").exists() or not spec_path.exists():
        print(f"error: run from a checkout: {root} needs src/phoenix and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(root, args.workload, args.seed, args.smoke)
    load_start = os.getloadavg()[0]
    if args.trace:
        untraced = runner.spawn("full", 0, "untraced")
        children = [untraced]
        if untraced["ok"]:
            children.append(runner.spawn("full", 1, "traced"))
        setups: list[float] = []
    else:
        children, setups = measure(runner, args.seconds)
    attempted, failed, correct = tally(children)
    ok = [c for c in children if c["ok"]]
    if not ok:
        print(f"error: no child completed: {children[0].get('error')}", file=sys.stderr)
        return 1

    first = ok[0]
    if args.trace:
        values = dict(children[-1].get("per_layer", {}))
        if len(children) == 2 and "run_s" in children[1]:
            values["trace.overhead_pct"] = (
                100.0 * (children[1]["run_s"] - untraced["run_s"]) / untraced["run_s"])
    else:
        values = {
            "run_s": _median([c["run_s"] for c in ok]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in ok]),
            "final_loss": first["final_loss"],
        }
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": {**first["env"], "blas_threads_set": CHILD_ENV,
                "load_1min_start": load_start, "load_1min_end": os.getloadavg()[0]},
        "digest": first.get("digest"),
        "digest_vs_baseline": baseline_digest(args.workload, args.seed, first.get("digest")),
        "summary": first.get("summary"),
        "work": first.get("work"),
        "setup_samples_s": setups,
        "children": [{k: c.get(k) for k in ("ok", "error", "run_s", "run_rusage", "setup_s",
                                             "wall_s", "peak_rss_mb", "digest", "checks")}
                     for c in children],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    results = runner.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1))
    shown = ("trace.run_s", "trace.overhead_pct", "unattributed_s") if args.trace else values
    print(f"{args.workload} seed {args.seed} trace {args.trace}: correct={correct} "
          + " ".join(f"{name}={values[name]:.4g}" for name in shown))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
