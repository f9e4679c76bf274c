"""Self-test of the benchmark; run from the repository root: python3 perfbench/selftest.py

Runs every workload untraced and traced at a tiny budget and a coarse grid
and asserts that:

- the run is correct, with no failed operation;
- every metric that BENCHMARK.json names is printed on its own line with its
  unit, and appears with the same unit in the JSON line and the results file;
- the results file records the run environment, the sample counts and the
  answer fingerprints;
- a probe whose target function is missing is reported absent, not raised;
- without the program's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"python", "numpy", "nproc", "blas", "blas_threads", "load"}
ANSWER_KEYS = {"final_loss", "bands_in_window", "iterations", "stopping_reason"}


def check_run(workload: str, trace: int) -> None:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), *argv],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 2, lines
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in final["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} differ"
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines), name
    saved = json.loads((run.OUT / "results" / f"{workload}-s3-t{trace}-tiny.json").read_text())
    assert {k: m["unit"] for k, m in saved["metrics"].items()} == wanted
    assert ENV_KEYS <= set(saved["environment"]) and ANSWER_KEYS <= set(saved["answer"])
    assert saved["samples"]["operations"] == final["attempted"]
    if WORKLOADS_KIND[workload] == "design":
        assert saved["answer"]["iterations"] == 3 and saved["answer"]["stopping_reason"]
    print(f"ok {workload} trace={trace}: {len(wanted)} metrics")


def check_absent_probe() -> None:
    missing = "ccmabeam.autodiff:NoSuchTape.gradients"
    saved = list(spans.PROBES)
    spans.PROBES[:] = [p for p in saved if p[0] != "autodiff.backward"] + [
        ("autodiff.backward", missing, "tape_len")
    ]
    try:
        sys.path.insert(0, str(run.SRC))
        absent = spans.Tracer().install()
        assert absent == [missing], absent
        assert spans.absent_probes(absent) == ["autodiff.backward"]
        metrics, names = spans.layer_metrics([], absent)
        assert names == ["autodiff.backward"] and metrics["autodiff.backward_s"] == 0
    finally:
        spans.PROBES[:] = saved
    print("ok absent probe")


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok without sources")


WORKLOADS_KIND = {name: spec["kind"] for name, spec in run.WORKLOADS.items()}

if __name__ == "__main__":
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_absent_probe()
    check_without_sources()
    print("selftest passed")
