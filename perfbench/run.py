"""ccmabeam benchmark: design and evaluation workloads run through the real CLI entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload design-ref-l1 --seed 0 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 56 --baseline perfbench/baseline.json

Every operation runs in a fresh interpreter (``perfbench/worker.py``), one
at a time, importing ccmabeam from ``src/``.  The seed generates the
workload's config and inputs; the program receives only those files.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Each run also writes
``perfbench/out/results/<workload>-s<seed>-t<trace>.json`` with the
metrics, the answer fingerprints and the run environment.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"

RUN_LIMIT_S = 170.0  # every run, traced or not, ends well inside 180 s
# Fresh interpreters before each timed operation of an untraced run; setup_s is
# their median.  Spread over the run, they see the same machine-speed phases
# as the operations instead of one phase at the start.
SETUP_PER_OP = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

REF_ARRAY = {"ring_radii_m": [0.0, 0.05, 0.10, 0.15, 0.20], "sample_rate_hz": 16000.0}
REF_MICS = 145
REF_BANDS = [1000.0 + 500.0 * k for k in range(11)]

# Each workload: the operation kind and the run config (without seed/output).
# "tiny" shrinks the same config for the self-test.
WORKLOADS = {
    "design-ref-l1": {
        "kind": "design",
        "config": {
            "array": REF_ARRAY,
            "doa_deg": {"elevation": 45.0, "azimuth": 45.0},
            "frequencies_hz": REF_BANDS,
            "loss": {"variant": "L1"},
            "grid_resolution_deg": 1.0,
            "optimizer": {"budget": 60},
        },
        "tiny": {"optimizer": {"budget": 3}, "grid_resolution_deg": 3.0},
    },
    "design-l3-wide": {
        "kind": "design",
        "config": {
            "array": {"ring_radii_m": [0.0, 0.05, 0.10], "sample_rate_hz": 16000.0},
            "doa_deg": {"elevation": 30.0, "azimuth": 120.0},
            "loss": {"variant": "L3", "alpha": 0.5, "lambda1": 1.0, "lambda2": 1.0, "lambda3": 0.1},
            "grid_resolution_deg": 1.0,
            "optimizer": {"budget": 60},
        },
        "tiny": {"optimizer": {"budget": 3}, "grid_resolution_deg": 3.0},
    },
    "eval-grid": {
        "kind": "eval",
        "config": {
            "array": REF_ARRAY,
            "doa_deg": {"elevation": 45.0, "azimuth": 45.0},
            "frequencies_hz": [1000.0, 2500.0, 4000.0, 5500.0],
            "loss": {"variant": "L1"},
            "grid_resolution_deg": 0.5,
        },
        "tiny": {"grid_resolution_deg": 3.0},
    },
}

WINDOW_DEG = (30.0, 45.0)
DESIGN_ARTIFACTS = ("params.json", "metrics.csv", "run_record.csv", "manifest.json")
REPEATED = {"design": ("metrics.csv", "params.json", "run_record.csv"), "eval": ("metrics.csv", "compare.csv")}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def workload_config(name: str, seed: int, tiny: bool) -> dict:
    spec = WORKLOADS[name]
    config = copy.deepcopy(spec["config"])
    if tiny:
        config.update(copy.deepcopy(spec["tiny"]))
    if spec["kind"] == "design":
        config["optimizer"]["seed"] = seed
    return config


class Worker:
    """Spawns worker.py jobs one at a time and reaps each with its own resource usage."""

    def __init__(self, workdir: Path, run_deadline: float):
        self.workdir = workdir
        self.run_deadline = run_deadline
        self.count = 0

    def run(self, job: dict) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{job['kind']}"
        job = dict(job, src=str(SRC), report=str(self.workdir / f"{tag}.report.json"))
        job_path = self.workdir / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        stdout_path = self.workdir / f"{tag}.stdout.txt"
        stderr_path = self.workdir / f"{tag}.stderr.txt"
        timeout = max(1.0, self.run_deadline - time.perf_counter())
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(job_path)], cwd=ROOT, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait
        report_path = Path(job["report"])
        return {
            "exit": proc.returncode,
            "process_s": elapsed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "report": json.loads(report_path.read_text()) if report_path.exists() else None,
            "stdout": stdout_path.read_text(),
            "stderr": stderr_path.read_text()[-2000:],
        }


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def bands_in_window(metrics_csv: Path) -> int:
    lo, hi = WINDOW_DEG
    return sum(
        lo <= float(r["theta_deg"]) <= hi and lo <= float(r["phi_deg"]) <= hi
        for r in _rows(metrics_csv)
    )


def op_problems(kind: str, config: dict, out: Path, first: Path | None, result: dict) -> list[str]:
    """Correctness checks on one operation's exit status and artifacts."""
    if result["exit"] != 0 or result["report"] is None:
        return [f"exit status {result['exit']}: {result['stderr'].strip()[-300:]}"]
    # without frequencies_hz the program designs its default 15 bands, 0.5-7.5 kHz
    freqs = config.get("frequencies_hz") or [500.0 * k for k in range(1, 16)]
    expected = [f"beampattern_{f:g}.csv" for f in freqs] + ["metrics.csv"]
    expected += list(DESIGN_ARTIFACTS) if kind == "design" else ["compare.csv"]
    problems = [f"missing artifact {name}" for name in expected if not (out / name).is_file()]
    if first is not None and not problems:
        for name in REPEATED[kind]:
            if (out / name).read_bytes() != (first / name).read_bytes():
                problems.append(f"{name} differs from the first operation with the same seed")
    return problems


def design_check(worker: Worker, config_path: Path, out: Path, workdir: Path) -> tuple[list[str], dict]:
    """Round trip through ``eval --params`` and the recomputed best loss."""
    check_out = workdir / "check"
    result = worker.run(
        {"kind": "check", "config": str(config_path), "params": str(out / "params.json"), "out": str(check_out)}
    )
    if result["exit"] != 0 or result["report"] is None:
        return [f"check job failed: {result['stderr'].strip()[-300:]}"], {}
    problems = []
    if (check_out / "metrics.csv").read_bytes() != (out / "metrics.csv").read_bytes():
        problems.append("eval --params metrics.csv differs from the design's metrics.csv")
    final_loss = result["report"]["final_loss"]
    best_recorded = min(float(r["loss"]) for r in _rows(out / "run_record.csv"))
    if abs(final_loss - best_recorded) > 1e-8 * max(1.0, abs(best_recorded)):
        problems.append(f"best loss {final_loss!r} != run_record minimum {best_recorded!r}")
    return problems, {"final_loss": final_loss}


def eval_problems(out: Path, mics: int) -> list[str]:
    """compare.csv agrees with eval's metrics.csv, and DAS meets its WNG identity."""
    problems = []
    metrics = _rows(out / "metrics.csv")
    compare = _rows(out / "compare.csv")
    for m, c in zip(metrics, compare, strict=True):
        for col in ("df_db", "wng_db", "theta_deg", "phi_deg"):
            if m[col] != c[f"designed_{col}"]:
                problems.append(f"compare.csv designed_{col} at {m['frequency_hz']} Hz differs from metrics.csv")
        if abs(float(c["das_wng_db"]) - 10.0 * math.log10(mics)) > 1e-5:
            problems.append(f"DAS white-noise gain at {c['frequency_hz']} Hz is not 10 log10(M)")
    return problems


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # the OpenBLAS bundled with the numpy wheel; a system BLAS reports None
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "load": "closed loop, one client: one operation at a time from one process",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    spec = WORKLOADS[name]
    kind = spec["kind"]
    run_start = time.perf_counter()
    workdir = OUT / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    worker = Worker(workdir, run_start + RUN_LIMIT_S)
    config = workload_config(name, seed, tiny)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    problems: dict[int, list[str]] = {}

    params_path = workdir / "params.json"
    if kind == "eval":
        made = worker.run({"kind": "params", "config": str(config_path), "seed": seed, "params": str(params_path)})
        if made["exit"] != 0:
            raise SystemExit(f"could not generate eval-grid params: {made['stderr']}")

    # timed loop: set-up probes (untraced runs) and one whole operation per
    # round, until the next round would overrun --seconds
    setup_times, ops, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() + statistics.median(rounds) <= deadline:
        round_start = time.perf_counter()
        for _ in range(0 if trace else SETUP_PER_OP):  # fresh interpreter, import, load_config, build_geometry
            probe = worker.run({"kind": "setup", "config": str(config_path)})
            if probe["exit"] != 0:
                raise SystemExit(f"set-up probe failed: {probe['stderr']}")
            setup_times.append(probe["process_s"])
        traced = trace and len(ops) % 2 == 1
        out = workdir / f"op{len(ops):02d}"
        result = worker.run(
            {"kind": kind, "config": str(config_path), "params": str(params_path), "out": str(out), "trace": traced}
        )
        result["traced"] = traced
        first = workdir / "op00" if ops else None
        problems[len(ops)] = op_problems(kind, config, out, first, result)
        ops.append(result)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() > run_start + RUN_LIMIT_S - 40.0:
            break

    first_out = workdir / "op00"
    answer = {"bands_in_window": None, "final_loss": None, "iterations": None, "stopping_reason": None}
    if not problems[0]:
        answer["bands_in_window"] = bands_in_window(first_out / "metrics.csv")
        if kind == "design":
            check_problems, found = design_check(worker, config_path, first_out, workdir)
            problems[0] += check_problems
            answer.update(found)
            answer["iterations"] = len(_rows(first_out / "run_record.csv"))
            match = re.search(r"after (\d+) iterations \((\w+)\)", ops[0]["stdout"])
            answer["stopping_reason"] = match.group(2) if match else "unknown"
        else:
            problems[0] += eval_problems(first_out, REF_MICS)

    failed = sum(1 for p in problems.values() if p)
    if trace:
        metrics, absent = traced_metrics(ops, first_out, answer, failed / len(ops))
    else:
        metrics = {
            "wall_s": median([o["report"]["wall_s"] for o in ops if o["report"]]),
            "cpu_s": median([o["report"]["cpu_s"] for o in ops if o["report"]]),
            "setup_s": median(setup_times),
            "peak_rss_mb": median([o["peak_rss_mb"] for o in ops if o["report"]]),
        }
        absent = []
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "tiny": tiny,
        "kind": kind,
        "samples": {
            "operations": len(ops),
            "traced": sum(o["traced"] for o in ops),
            "setup": len(setup_times),
            "wall_s": [o["report"]["wall_s"] if o["report"] else None for o in ops],
            "setup_s": setup_times,
        },
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "problems": {str(i): p for i, p in problems.items() if p},
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "absent_probes": absent,
        "answer": answer,
        "environment": environment(),
        "elapsed_s": time.perf_counter() - run_start,
    }
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def traced_metrics(ops, first_out, answer, failed_share):
    from spans import directory_mb, layer_metrics

    traced = [o for o in ops if o["traced"] and o["report"]]
    per_op = [layer_metrics(o["report"]["spans"], o["report"]["absent"]) for o in traced]
    absent = sorted({name for _, names in per_op for name in names})
    keys = layer_metrics([], [])[0]
    metrics = {k: median([m[k] for m, _ in per_op]) for k in keys}
    metrics["wavefield.csv_mb"] = directory_mb(first_out, lambda n: n.startswith("beampattern_"))
    metrics["cli.artifact_mb"] = directory_mb(first_out)
    # each traced operation against the untraced one just before it, which
    # cancels machine-speed drift slower than one pair of operations
    pairs = [(ops[i - 1], ops[i]) for i in range(1, len(ops)) if ops[i]["traced"]]
    metrics["trace.overhead_s"] = median(
        [t["report"]["wall_s"] - p["report"]["wall_s"] for p, t in pairs if p["report"] and t["report"]]
    )
    metrics["final_loss"] = answer["final_loss"] or 0.0
    metrics["bands_in_window"] = answer["bands_in_window"] or 0
    metrics["failed_ops"] = failed_share
    return metrics, absent


def show(result: dict) -> None:
    """Human-readable lines: one per metric with its unit, then the answer and environment."""
    s = result["samples"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{s['operations']} operations ({s['traced']} traced), {s['setup']} set-up probes, "
        f"medians; no tail percentile (fewer than ten samples beyond any)"
    )
    absent_layers = {probe.split(".")[0] for probe in result["absent_probes"]}
    for name, metric in result["metrics"].items():
        layer = name.split(".")[0]
        note = ""
        if layer in absent_layers:
            note = "  (absent: a probe of this layer found no function to wrap)"
        elif result["kind"] != "design" and layer in ("optimizer", "autodiff", "loss", "final_loss"):
            note = "  (n/a: no optimizer on this workload)"
        print(f"{name}: {metric['value']!r} {metric['unit']}{note}")
    for key, value in result["answer"].items():
        print(f"answer.{key}: {value}")
    for key, value in result["environment"].items():
        print(f"env.{key}: {value}")
    for op, problems in result["problems"].items():
        for problem in problems:
            print(f"FAILED op{op}: {problem}")


def save(result: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-s{result['seed']}-t{result['trace']}{'-tiny' if result['tiny'] else ''}.json"
    (results / name).write_text(json.dumps(result, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny budget and coarse grid (self-test)")
    parser.add_argument("--baseline", default=None, help="with --workload all: write the metrics here")
    args = parser.parse_args(argv)
    if not (SRC / "ccmabeam" / "__init__.py").is_file():
        print(f"error: no ccmabeam sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for name in names:
        for trace in traces:
            result = run_workload(name, args.seed, args.seconds, trace, args.tiny)
            save(result)
            show(result)
            results.append(result)
    if args.baseline:
        baseline = {"seed": args.seed, "seconds": args.seconds, "environment": results[0]["environment"]}
        for r in results:
            entry = baseline.setdefault(r["workload"], {"answer": r["answer"]})
            entry.update({k: m["value"] for k, m in r["metrics"].items()})
        Path(args.baseline).write_text(json.dumps(baseline, indent=2) + "\n")
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}/"
        metrics.update({prefix + k: m for k, m in r["metrics"].items()})
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
