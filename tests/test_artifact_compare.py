"""The artifact comparator of tests/artifact_compare.py."""

import json
import math
import os
import shutil

import pytest

import artifact_compare
import support
from covrecon import cli


def _reconstruct(tmp_path):
    out = str(tmp_path / "old")
    path = support.write_yaml(tmp_path / "cfg.yaml", support.basic_yaml(
        out, n=6, M=40, L=2, d=2))
    assert cli.main(["reconstruct", "--config", path]) == 0
    return out


def test_compare_reports_the_largest_move_per_field(tmp_path, capsys):
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    rows = artifact_compare.compare(old, new)
    assert {r[0] for r in rows} == {"report.json", "spectrum.csv",
                                    "spectrum_exact.csv"}
    assert all(r[3] == 0 and r[4] == 0.0 for r in rows)
    # one field moved, a vector column folded into v_*, and another version
    # in the headers, which are skipped
    report = os.path.join(new, "report.json")
    with open(report) as fh:
        doc = json.load(fh)
    e3 = doc["errors"]["e3"]
    doc["errors"]["e3"] = e3 * (1.0 + 1e-12)
    doc["version"] = "0.0.0"
    with open(report, "w") as fh:
        json.dump(doc, fh)
    spectrum = os.path.join(new, "spectrum.csv")
    with open(spectrum) as fh:
        lines = fh.read().splitlines()
    lines[0] = "# covrecon 0.0.0"
    cells = lines[3].split(",")
    vector = [abs(float(c)) for c in cells[2:]]
    cells[-1] = cells[-1][1:] if cells[-1].startswith("-") \
        else "-" + cells[-1]  # node (1, 1), where no vector vanishes
    flip = 2.0 * vector[-1] / max(vector)  # against the vector's largest
    lines[3] = ",".join(cells)
    with open(spectrum, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    moved = {(r[0], r[1]): r[2:] for r in artifact_compare.compare(old, new)
             if r[3]}
    assert set(moved) == {("report.json", "errors.e3"),
                          ("spectrum.csv", "v_*")}
    count, changed, worst = moved[("report.json", "errors.e3")]
    assert (count, changed) == (1, 1)
    assert worst == pytest.approx(1e-12, rel=1e-3)
    assert moved[("spectrum.csv", "v_*")][1:] == (1, flip)
    capsys.readouterr()
    assert artifact_compare.main([old, new, "--moved"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[2:] == ["| report.json | errors.e3 | 1 | 1 | 1e-12 |",
                           "| spectrum.csv | v_* | 98 | 1 | %.2g |" % flip]


def _set_component(spectrum, column, text):
    """Write text as eigenvector component v_column of the first row."""
    with open(spectrum) as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")
    cells[1 + column] = text
    lines[3] = ",".join(cells)
    with open(spectrum, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return [abs(float(c)) for c in cells[2:]]


def test_vector_components_move_against_their_vector(tmp_path):
    # a null-space component that changes sign at roundoff moves by its size
    # against the vector's largest component, not by 2
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    for name in ("spectrum.csv", "spectrum_exact.csv"):
        _set_component(os.path.join(old, name), 1, "1e-17")
        vector = _set_component(os.path.join(new, name), 1, "-1e-17")
        moved = {r[0]: r[2:] for r in artifact_compare.compare(old, new)
                 if r[3]}
        assert moved[name] == (98, 1, 2e-17 / max(vector)), moved
        assert artifact_compare.relative_move(1e-17, -1e-17) == 2.0
        shutil.copy(os.path.join(old, name), os.path.join(new, name))


def test_max_rel_names_every_field_beyond_it(tmp_path, capsys):
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    assert artifact_compare.main([old, new, "--max-rel", "0"]) == 0
    report = os.path.join(new, "report.json")
    with open(report) as fh:
        doc = json.load(fh)
    doc["errors"]["e3"] *= 1.0 + 1e-10
    doc["errors"]["e1"] *= -1.0  # a sign flip moves by 2
    doc["errors"]["e2"] *= 1.0 + 1e-14
    with open(report, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert artifact_compare.main([old, new, "--max-rel", "1e-12"]) == 1
    named = capsys.readouterr().err.splitlines()
    assert named == ["moved beyond 1e-12: report.json errors.e1 (2)",
                     "moved beyond 1e-12: report.json errors.e3 (1e-10)"]
    assert artifact_compare.main([old, new, "--max-rel", "2"]) == 0


def test_relative_move():
    move = artifact_compare.relative_move
    assert move(2.0, 2.0) == move("a", "a") == move(None, None) == 0.0
    assert move(1.0, -1.0) == 2.0 and move("1.5", 1.0) == 0.5 / 1.5
    assert move(math.nan, math.nan) == 0.0
    assert move(math.nan, 1.0) == move("a", "b") == move(True, False) \
        == math.inf


def test_compare_refuses_a_missing_file(tmp_path):
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    os.remove(os.path.join(new, "spectrum.csv"))
    with pytest.raises(ValueError, match="missing"):
        artifact_compare.compare(old, new)
