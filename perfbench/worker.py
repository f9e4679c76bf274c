"""Run one benchmark job in a fresh interpreter and write its report as JSON.

Usage: python3 perfbench/worker.py JOB.json

The job names the kind of work, the ccmabeam source directory to import
from, the generated inputs and the report path.  Kinds:

- ``setup``: import ccmabeam, load the config and build the geometry, then exit
  (the parent times the whole process).
- ``params``: write random design parameters for the seed (eval workloads).
- ``design``: one timed ``cmd_design``.
- ``eval``: one timed ``cmd_eval --params`` followed by ``cmd_compare --baseline das``.
- ``check``: ``cmd_eval --params`` on a design's params.json, and the loss of
  those parameters recomputed through the design pipeline.

With ``"trace": true`` the layer probes of ``spans.py`` are installed
before the operation and its spans go into the report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _make_params(job: dict) -> dict:
    import numpy as np

    from ccmabeam.cli import load_config
    from ccmabeam.geometry import build_geometry
    from ccmabeam.weighting import DesignParams

    cfg = load_config(job["config"])
    rings = build_geometry(cfg.array).ring_count
    rng = np.random.default_rng(job["seed"])
    u = [rng.uniform(-1.0, 1.0, rings) for _ in cfg.frequencies]
    v = [rng.uniform(-1.0, 1.0, rings) for _ in cfg.frequencies]
    DesignParams.from_unconstrained(cfg.frequencies, u, v).save(job["params"])
    return {}


def _check(job: dict) -> dict:
    import numpy as np

    from ccmabeam.cli import cmd_eval, load_config
    from ccmabeam.geometry import build_geometry
    from ccmabeam.optimizer import DesignPipeline
    from ccmabeam.weighting import DesignParams

    cfg = load_config(job["config"])
    cmd_eval(cfg, job["out"], params_path=job["params"])
    params = DesignParams.load(job["params"])
    pipeline = DesignPipeline(
        build_geometry(cfg.array), cfg.doa, cfg.frequencies, cfg.loss, cfg.grid_resolution
    )
    x = np.concatenate(
        [
            np.concatenate([u, v])
            for u, v in zip(params.unconstrained_weights, params.unconstrained_widths)
        ]
    )
    value, _ = pipeline.build_loss([float(xi) for xi in x])
    return {"final_loss": float(value)}


def _operation(job: dict) -> dict:
    tracer = absent = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        absent = tracer.install()
    from ccmabeam import cli

    cfg = cli.load_config(job["config"])
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if job["kind"] == "design":
        cli.cmd_design(cfg, job["out"])
    else:
        cli.cmd_eval(cfg, job["out"], params_path=job["params"])
        cli.cmd_compare(cfg, job["out"], job["params"], "das")
    report = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
    if tracer is not None:
        report["spans"] = tracer.spans
        report["absent"] = absent
    return report


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    kind = job["kind"]
    if kind == "setup":
        from ccmabeam.cli import load_config
        from ccmabeam.geometry import build_geometry

        build_geometry(load_config(job["config"]).array)
        return
    if kind == "params":
        report = _make_params(job)
    elif kind == "check":
        report = _check(job)
    else:
        report = _operation(job)
    Path(job["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
