"""In-memory span tracing of ccmabeam's layers, installed from outside the package.

Each probe wraps one function at the name its caller resolves it by
(``ccmabeam.cli.beampattern_grid``, ``ccmabeam.optimizer.Tape.gradients``,
...).  A call through a wrapped name records a span: its probe name, start
and end (``time.perf_counter``), the index of the enclosing span, and an
optional annotation taken from the call (a fit flag, the loss branches, a
tape length, a cell count).  Spans stay in memory until the operation ends.

A target that no longer exists is reported as absent and skipped, so a
refactor that deletes a layer shows as an absent probe, not a crash.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (probe name, target "module:attribute[.attribute]", annotation)
PROBES = [
    ("optimizer.optimize", "ccmabeam.cli:optimize", None),
    ("optimizer.precompute", "ccmabeam.optimizer:DesignPipeline.__init__", None),
    ("optimizer.forward", "ccmabeam.optimizer:DesignPipeline.build_loss", None),
    ("optimizer.step", "ccmabeam.optimizer:rprop_step", None),
    ("autodiff.backward", "ccmabeam.optimizer:Tape.gradients", "tape_len"),
    ("weighting.constrain", "ccmabeam.optimizer:constrain_band", None),
    ("weighting.constrain", "ccmabeam.weighting:constrain_band", None),
    ("weighting.assemble", "ccmabeam.cli:assemble_filter", None),
    ("weighting.assemble", "ccmabeam.metrics:assemble_filter", None),
    ("metrics.parabola", "ccmabeam.optimizer:beamwidth_parabola", "fit_flag"),
    ("metrics.parabola", "ccmabeam.metrics:beamwidth_parabola", "fit_flag"),
    ("metrics.evaluate", "ccmabeam.cli:evaluate_params", None),
    ("metrics.evaluate", "ccmabeam.optimizer:evaluate_params", None),
    ("loss.total", "ccmabeam.optimizer:total_loss", "branches"),
    ("wavefield.grid", "ccmabeam.cli:beampattern_grid", "cells"),
    ("wavefield.steering", "ccmabeam.wavefield:steering_matrix", None),
    ("wavefield.steering", "ccmabeam.optimizer:steering_matrix", None),
    ("wavefield.steering", "ccmabeam.optimizer:steering_vector", None),
    ("wavefield.steering", "ccmabeam.metrics:steering_matrix", None),
    ("wavefield.steering", "ccmabeam.metrics:steering_vector", None),
    ("wavefield.steering", "ccmabeam.weighting:steering_vector", None),
    ("wavefield.steering", "ccmabeam.baselines:steering_vector", None),
    ("wavefield.csv", "ccmabeam.cli:export_beampattern_csv", None),
    ("geometry.build", "ccmabeam.cli:build_geometry", None),
    ("baselines.evaluate", "ccmabeam.cli:evaluate_baseline", None),
    ("cli.artifacts", "ccmabeam.weighting:DesignParams.save", None),
    ("cli.artifacts", "ccmabeam.metrics:MetricCurves.to_csv", None),
    ("cli.artifacts", "ccmabeam.optimizer:RunRecord.to_csv", None),
    ("cli.artifacts", "ccmabeam.cli:_write_manifest", None),
]


def _annotate(kind, args, result):
    if kind == "fit_flag":  # beamwidth_parabola returns (width, concave_fit)
        return bool(result[1])
    if kind == "branches":  # total_loss returns (value, BandLossTerms)
        return list(result[1].branches)
    if kind == "cells":
        return int(result.size)
    return None


class Tracer:
    """Span store for one operation; spans are lists [name, start, end, parent, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note_kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            if note_kind == "tape_len":  # read before the sweep; the tape does not grow
                span[4] = len(args[0])
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note_kind not in (None, "tape_len"):
                span[4] = _annotate(note_kind, args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every probe target; returns the targets that could not be found."""
        absent = []
        for name, target, note_kind in PROBES:
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                absent.append(target)
                continue
            setattr(owner, attr, self.wrap(name, fn, note_kind))
        return absent


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, absent_targets) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced operation, and the probe names found absent.

    A layer that never ran reads 0 (no time spent, no calls); the names in
    the second return value tell an absent probe apart from an idle one.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def mean_ms(name, durations=None):
        idx = by_name.get(name, ())
        if not idx:
            return 0.0
        values = durations if durations is not None else [spans[i][2] - spans[i][1] for i in idx]
        return 1e3 * sum(values) / len(idx)

    def share(name, predicate):
        notes = [spans[i][4] for i in by_name.get(name, ())]
        return sum(map(predicate, notes)) / len(notes) if notes else 0.0

    iterations = calls("optimizer.forward")
    # the iteration loop: optimize minus its pipeline set-up and final evaluation
    optimize_ids = set(by_name.get("optimizer.optimize", ()))
    loop_s = total("optimizer.optimize") - sum(
        end - start
        for name, start, end, parent, _ in spans
        if parent in optimize_ids and name in ("optimizer.precompute", "metrics.evaluate")
    )
    tape_lens = sorted(spans[i][4] for i in by_name.get("autodiff.backward", ()))
    branches = [b for i in by_name.get("loss.total", ()) for b in spans[i][4]]

    metrics = {
        "optimizer.precompute_s": total("optimizer.precompute"),
        "optimizer.forward_ms": mean_ms("optimizer.forward"),
        "optimizer.forward_self_ms": mean_ms(
            "optimizer.forward", [own[i] for i in by_name.get("optimizer.forward", ())]
        ),
        "optimizer.step_ms": mean_ms("optimizer.step"),
        "optimizer.iter_ms": 1e3 * loop_s / iterations if iterations else 0.0,
        "optimizer.optimize_s": total("optimizer.optimize"),
        "optimizer.iterations": iterations,
        "autodiff.backward_ms": mean_ms("autodiff.backward"),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.tape_nodes": tape_lens[len(tape_lens) // 2] if tape_lens else 0,
        "weighting.constrain_s": total("weighting.constrain"),
        "weighting.constrain_calls": calls("weighting.constrain"),
        "weighting.assemble_s": total("weighting.assemble"),
        "weighting.assemble_calls": calls("weighting.assemble"),
        "metrics.parabola_s": total("metrics.parabola"),
        "metrics.parabola_calls": calls("metrics.parabola"),
        "metrics.sentinel_share": share("metrics.parabola", lambda ok: not ok),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "loss.total_s": total("loss.total"),
        "loss.total_calls": calls("loss.total"),
        "loss.perf_branch_share": (
            sum(b == "perf" for b in branches) / len(branches) if branches else 0.0
        ),
        "wavefield.grid_s": total("wavefield.grid"),
        "wavefield.grid_calls": calls("wavefield.grid"),
        "wavefield.steering_s": total("wavefield.steering"),
        "wavefield.steering_calls": calls("wavefield.steering"),
        "wavefield.csv_s": total("wavefield.csv"),
        "wavefield.cells": sum(spans[i][4] for i in by_name.get("wavefield.grid", ())),
        "geometry.build_s": total("geometry.build"),
        "baselines.evaluate_s": total("baselines.evaluate"),
        "cli.artifacts_s": total("cli.artifacts"),
    }
    return metrics, absent_probes(absent_targets)


def absent_probes(absent_targets) -> list[str]:
    """Probe names none of whose targets could be wrapped."""
    found = {name for name, target, _ in PROBES if target not in absent_targets}
    return sorted({name for name, _, _ in PROBES} - found)


def directory_mb(path, predicate=lambda name: True) -> float:
    return sum(
        entry.stat().st_size for entry in os.scandir(path) if predicate(entry.name)
    ) / 1e6
