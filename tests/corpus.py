"""Same-seed artifact corpus: write it with one checkout's code, compare two.

    python tests/corpus.py run DIR     # write the corpus into DIR (must not exist)
    python tests/corpus.py diff A B    # compare two corpora, artifact by artifact

``run`` imports ``ccmabeam`` from the path, so ``PYTHONPATH=<checkout>/src``
picks the code under test, and calls ``ccmabeam.cli.main`` in-process for
every entry of ``CORPUS``.  ``diff`` reports every artifact as identical or
counts its differing cells (comma-, space- or bracket-separated tokens) in
three kinds: signed-zero flips (``-0.000000`` against ``0.000000``), changes
of one unit in the last printed digit, and other changes; every file,
``manifest.json`` included, is compared as written.  Exit status: 0 when
every artifact is identical, 1 when the only differences are signed-zero
flips and last-digit changes, 2 on any other change or a file that only one
corpus holds, or a corpus directory that is missing or empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

SEEDS = (0, 1, 2)
REF_ARRAY = {"ring_radii_m": [0.0, 0.05, 0.10, 0.15, 0.20], "sample_rate_hz": 16000.0}
LOOK = {"elevation": 45.0, "azimuth": 45.0}
L3 = {"variant": "L3", "alpha": 0.5, "lambda1": 1.0, "lambda2": 1.0, "lambda3": 0.1}


def _reference(loss: dict) -> dict:
    """The reference design: 145 mics, 11 bands from 1 to 6 kHz, seed 0, budget 2000."""
    return {"array": REF_ARRAY, "doa_deg": LOOK,
            "frequencies_hz": [1000.0 + 500.0 * k for k in range(11)], "loss": loss,
            "grid_resolution_deg": 1.0, "optimizer": {"budget": 2000, "seed": 0}}


def _l3_wide(seed: int) -> dict:
    """The benchmark's design-l3-wide workload (default 15 bands) at budget 2000."""
    return {"array": {"ring_radii_m": [0.0, 0.05, 0.10], "sample_rate_hz": 16000.0},
            "doa_deg": {"elevation": 30.0, "azimuth": 120.0}, "loss": L3,
            "grid_resolution_deg": 1.0, "optimizer": {"budget": 2000, "seed": seed}}


CONFIGS = {
    "ref-L1": _reference({"variant": "L1"}),
    "ref-L2": _reference({"variant": "L2"}),
    "ref-L3": _reference(L3),
    **{f"l3-wide-seed{s}": _l3_wide(s) for s in SEEDS},
    # the benchmark's eval-grid workload
    "eval-grid": {"array": REF_ARRAY, "doa_deg": LOOK,
                  "frequencies_hz": [1000.0, 2500.0, 4000.0, 5500.0], "loss": {"variant": "L1"},
                  "grid_resolution_deg": 0.5},
    # CI's toy sweep
    "sweep-toy": {"array": {"ring_radii_m": [0.0, 0.05], "sample_rate_hz": 16000.0},
                  "doa_deg": LOOK, "frequencies_hz": [2000.0, 3000.0],
                  "loss": {"variant": "L3", "lambda3": 0.01}, "grid_resolution_deg": 2.0,
                  "optimizer": {"budget": 20, "seed": 0}, "sweep": {"alpha": [0.0, 0.5]}},
}

# (artifact directory, config, command and its options); the random eval-grid
# parameters of seed s are inputs/params-seed{s}.json
CORPUS = [
    *((f"design-{name}", name, ["design"]) for name in ("ref-L1", "ref-L2", "ref-L3")),
    *((f"design-l3-wide-seed{s}", f"l3-wide-seed{s}", ["design"]) for s in SEEDS),
    *((f"eval-grid-seed{s}", "eval-grid", ["eval", "--params", f"params-seed{s}.json"])
      for s in SEEDS),
    *((f"compare-grid-seed{s}", "eval-grid", ["compare", "--params", f"params-seed{s}.json"])
      for s in SEEDS),
    ("eval-grid-das", "eval-grid", ["eval", "--baseline", "das"]),
    ("sweep-toy", "sweep-toy", ["sweep"]),
]


def _random_params(config: Path, seed: int, path: Path) -> None:
    """Random design parameters, drawn as the benchmark's eval-grid workload draws them."""
    # imported here, as in run(): diff needs no ccmabeam on the path
    import numpy as np

    from ccmabeam.cli import load_config
    from ccmabeam.geometry import build_geometry
    from ccmabeam.weighting import DesignParams

    cfg = load_config(config)
    rings = build_geometry(cfg.array).ring_count
    rng = np.random.default_rng(seed)
    u = [rng.uniform(-1.0, 1.0, rings) for _ in cfg.frequencies]
    v = [rng.uniform(-1.0, 1.0, rings) for _ in cfg.frequencies]
    DesignParams.from_unconstrained(cfg.frequencies, u, v).save(path)


def run(root: Path) -> None:
    from ccmabeam.cli import main

    inputs = root / "inputs"
    inputs.mkdir(parents=True)  # a second run into one directory is refused
    for name, config in CONFIGS.items():
        (inputs / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
    for s in SEEDS:
        _random_params(inputs / "eval-grid.json", s, inputs / f"params-seed{s}.json")
    for out, config, (command, *options) in CORPUS:
        options = [str(inputs / o) if o.endswith(".json") else o for o in options]
        argv = [command, "--config", str(inputs / f"{config}.json"), "--out", str(root / out)]
        with contextlib.redirect_stdout(io.StringIO()):  # its lines name the output paths
            status = main([*argv, *options])
        if status != 0:
            raise SystemExit(f"corpus entry {out}: exit status {status}")
        print(f"wrote {out}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["gradcheck"])
    (root / "gradcheck.txt").write_text(stdout.getvalue())
    if status != 0:
        raise SystemExit(f"gradcheck: exit status {status}")
    print("wrote gradcheck.txt")


NUMBER = re.compile(r"(-?)(\d+)(?:\.(\d*))?((?:[eE][-+]?\d+)?)")
KINDS = ("signed-zero flips", "last-digit changes", "other changes")


def cell_kind(a: str, b: str) -> int:
    """Index into KINDS of the change from cell ``a`` to a different cell ``b``."""
    ma, mb = NUMBER.fullmatch(a), NUMBER.fullmatch(b)
    if ma is None or mb is None:
        return 2
    if ma.groups()[1:] == mb.groups()[1:] and float(a) == 0.0:
        return 0
    # the same layout (digits after the point, exponent) and one unit apart
    if len(ma[3] or "") == len(mb[3] or "") and ma[4] == mb[4]:
        units = [int(m[1] + m[2] + (m[3] or "")) for m in (ma, mb)]
        if abs(units[0] - units[1]) == 1:
            return 1
    return 2


def _cells(line: str, csv: bool) -> list[str]:
    return line.split(",") if csv else re.findall(r"[^\s,\[\]{}:]+", line)


def compare_files(a: Path, b: Path) -> list[int]:
    """Differing cells of two versions of one artifact, counted per KINDS."""
    counts = [0, 0, 0]
    text_a, text_b = a.read_text(), b.read_text()
    if text_a == text_b:
        return counts
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    csv = a.suffix == ".csv"
    for line_a, line_b in zip(lines_a, lines_b):
        cells_a, cells_b = _cells(line_a, csv), _cells(line_b, csv)
        if len(cells_a) != len(cells_b):
            counts[2] += max(len(cells_a), len(cells_b))
            continue
        for cell_a, cell_b in zip(cells_a, cells_b):
            if cell_a != cell_b:
                counts[cell_kind(cell_a, cell_b)] += 1
    longer = lines_a[len(lines_b):] or lines_b[len(lines_a):]
    counts[2] += sum(len(_cells(line, csv)) for line in longer)
    if counts == [0, 0, 0]:  # the same cells, spelled apart (line endings)
        counts[2] = 1
    return counts


def diff(root_a: Path, root_b: Path) -> int:
    # rglob yields nothing under a missing or empty root, which would read as a match
    for root in (root_a, root_b):
        if not root.is_dir():
            print(f"corpus diff: {root} is missing", file=sys.stderr)
            return 2
        if not any(p.is_file() for p in root.rglob("*")):
            print(f"corpus diff: {root} holds no artifact", file=sys.stderr)
            return 2
    files = {p.relative_to(r) for r in (root_a, root_b) for p in r.rglob("*") if p.is_file()}
    identical = benign = other = missing = 0
    totals = [0, 0, 0]
    for rel in sorted(files, key=str):
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            missing += 1
            print(f"{rel}: missing from {root_b if a.is_file() else root_a}")
            continue
        counts = compare_files(a, b)
        totals = [t + c for t, c in zip(totals, counts)]
        if counts == [0, 0, 0]:
            identical += 1
            print(f"{rel}: identical")
            continue
        print(f"{rel}: " + ", ".join(f"{c} {kind}" for c, kind in zip(counts, KINDS)))
        if counts[2]:
            other += 1
        else:
            benign += 1
    print(
        f"corpus diff: {len(files)} artifacts, {identical} identical, {benign} with only "
        f"signed-zero flips or last-digit changes, {other} with other changes, {missing} "
        f"missing; cells: " + ", ".join(f"{t} {kind}" for t, kind in zip(totals, KINDS))
    )
    return 2 if other or missing else 1 if benign else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "run":
        run(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
