"""tests/corpus.py diff: how it sorts the changes between two corpora."""

import json
import shutil

import pytest

import corpus


def make_corpus(root):
    (root / "design").mkdir(parents=True)
    (root / "design" / "beampattern_1000.csv").write_text(
        "elevation_deg,0.000,1.000\n45.000,0.000000,-3.141593\n46.000,-0.250000,12.5\n"
    )
    (root / "design" / "metrics.csv").write_text("frequency_hz,df_db\n1000,9.1\n")
    manifest = {"array": {"ring_radii_m": [0.0, 0.05]}, "output_dir": str(root / "design")}
    (root / "design" / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (root / "gradcheck.txt").write_text("gradcheck OK: worst relative error 1.039e-08\n")


def edit(path, old, new):
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


@pytest.fixture
def corpora(tmp_path):
    """Two copies of one small corpus, written into different directories."""
    a, b = tmp_path / "a", tmp_path / "b"
    make_corpus(a)
    make_corpus(b)
    return a, b


def reports(capsys):
    *lines, summary = capsys.readouterr().out.splitlines()
    return dict(line.split(": ", 1) for line in lines), summary


def test_identical_corpora_exit_zero(corpora, capsys):
    assert corpus.diff(*corpora) == 0
    lines, summary = reports(capsys)
    assert lines["design/manifest.json"] == "identical (without output_dir)"
    assert set(lines.values()) <= {"identical", "identical (without output_dir)"}
    assert summary.startswith("corpus diff: 4 artifacts, 4 identical,")


def test_each_kind_of_change(corpora, capsys):
    a, b = corpora
    edit(b / "design" / "beampattern_1000.csv", "45.000,0.000000,", "45.000,-0.000000,")
    edit(b / "gradcheck.txt", "1.039e-08", "1.040e-08")
    assert corpus.diff(a, b) == 1  # flips and last digits only
    edit(b / "design" / "metrics.csv", "9.1", "9.3")
    (b / "design" / "manifest.json").unlink()
    capsys.readouterr()
    assert corpus.diff(a, b) == 2
    lines, summary = reports(capsys)
    assert lines["design/beampattern_1000.csv"] == (
        "1 signed-zero flips, 0 last-digit changes, 0 other changes"
    )
    assert lines["gradcheck.txt"] == "0 signed-zero flips, 1 last-digit changes, 0 other changes"
    assert lines["design/metrics.csv"] == (
        "0 signed-zero flips, 0 last-digit changes, 1 other changes"
    )
    assert lines["design/manifest.json"] == f"missing from {b}"
    assert summary == (
        "corpus diff: 4 artifacts, 0 identical, 2 with only signed-zero flips or last-digit "
        "changes, 1 with other changes, 1 missing; cells: 1 signed-zero flips, "
        "1 last-digit changes, 1 other changes"
    )


def test_manifest_compared_without_output_dir_only(corpora, capsys):
    a, b = corpora
    edit(b / "design" / "manifest.json", "0.05", "0.06")
    assert corpus.diff(a, b) == 1
    lines, _ = reports(capsys)
    assert lines["design/manifest.json"].startswith("0 signed-zero flips, 1 last-digit changes")


def test_a_file_only_the_second_corpus_holds(corpora, capsys):
    a, b = corpora
    shutil.copy(b / "gradcheck.txt", b / "extra.txt")
    assert corpus.diff(a, b) == 2
    lines, _ = reports(capsys)
    assert lines["extra.txt"] == f"missing from {a}"


@pytest.mark.parametrize(
    "old, new, kind",
    [
        ("0.000000", "-0.000000", 0),
        ("-0e+00", "0e+00", 0),
        ("-0.000001", "0.000000", 1),
        ("0.999999", "1.000000", 1),
        ("12.5", "12.6", 1),
        ("1.5", "1.50", 2),  # a longer spelling is not one digit
        ("1e-08", "1e-07", 2),
        ("-3.141593", "3.141593", 2),
        ("nan", "0.000000", 2),
        ("theta_deg", "phi_deg", 2),
    ],
)
def test_cell_kinds(old, new, kind):
    assert corpus.cell_kind(old, new) == kind


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("state", ["missing", "empty", "only-directories"])
def test_a_missing_or_empty_corpus_fails(corpora, capsys, which, state):
    root = corpora[which]
    shutil.rmtree(root)
    if state != "missing":
        root.mkdir()
    if state == "only-directories":
        (root / "design").mkdir()
    assert corpus.diff(*corpora) == 2
    captured = capsys.readouterr()
    reason = "is missing" if state == "missing" else "holds no artifact"
    assert captured.err == f"corpus diff: {root} {reason}\n"
    assert captured.out == ""
