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
    rows, unmatched = artifact_compare.compare(old, new)
    assert unmatched == []
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
    rows, unmatched = artifact_compare.compare(old, new)
    assert unmatched == []
    moved = {(r[0], r[1]): r[2:] for r in rows if r[3]}
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
        rows, unmatched = artifact_compare.compare(old, new)
        assert unmatched == []
        moved = {r[0]: r[2:] for r in rows if r[3]}
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


def test_files_on_one_side_are_named_and_fail(tmp_path, capsys):
    # a file only under NEW_DIR is no longer skipped, and one only under
    # OLD_DIR no longer ends in a traceback: each is named, and main exits 1;
    # so is a field that one of two namesakes lacks
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    os.remove(os.path.join(new, "spectrum.csv"))
    shutil.copy(os.path.join(old, "report.json"),
                os.path.join(new, "extra.json"))
    os.makedirs(os.path.join(new, "deeper"))
    shutil.copy(os.path.join(old, "report.json"),
                os.path.join(new, "deeper", "report.json"))
    named = ["spectrum.csv is missing under %s" % new,
             "deeper/report.json is missing under %s" % old,
             "extra.json is missing under %s" % old]
    with pytest.raises(ValueError) as err:
        artifact_compare.compare(old, new)
    assert str(err.value).splitlines() == named
    capsys.readouterr()
    for argv in ([old, new], [old, new, "--moved", "--max-rel", "0"]):
        assert artifact_compare.main(argv) == 1
        printed = capsys.readouterr()
        assert printed.err.splitlines() == named and printed.out == ""
    # a file only under NEW_DIR alone fails too
    shutil.copy(os.path.join(old, "spectrum.csv"),
                os.path.join(new, "spectrum.csv"))
    os.remove(os.path.join(new, "extra.json"))
    shutil.rmtree(os.path.join(new, "deeper"))
    os.remove(os.path.join(old, "report.json"))
    assert artifact_compare.main([old, new, "--max-rel", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "report.json is missing under %s" % old]
    os.remove(os.path.join(new, "report.json"))
    spectrum = os.path.join(new, "spectrum.csv")
    with open(spectrum) as fh:
        text = fh.read()
    with open(spectrum, "w") as fh:
        fh.write(text.replace("l,lambda,", "l,mu,", 1))
    assert artifact_compare.main([old, new]) == 1
    printed = capsys.readouterr()
    assert printed.err.splitlines() == [
        "spectrum.csv: lambda is missing under %s" % new,
        "spectrum.csv: mu is missing under %s" % old]
    tabled = [line.split(" | ")[:2] for line in printed.out.splitlines()[2:]]
    assert tabled == [["| spectrum.csv", "l"], ["| spectrum.csv", "v_*"],
                      ["| spectrum_exact.csv", "l"],
                      ["| spectrum_exact.csv", "lambda"],
                      ["| spectrum_exact.csv", "v_*"]], \
        "the shared fields are still tabled"


def test_a_field_on_one_side_is_named_and_the_rest_compared(tmp_path,
                                                            capsys):
    # a report that gains a key still compares on the keys both hold, so a
    # shared field that moved shows next to the added one
    old = _reconstruct(tmp_path)
    new = str(tmp_path / "new")
    shutil.copytree(old, new)
    report = os.path.join(new, "report.json")
    with open(report) as fh:
        doc = json.load(fh)
    doc["diagnostics"]["added"] = [True, False]
    doc["diagnostics"]["eigenvalue_dev"].append(0.0)
    doc["errors"]["e3"] *= 1.0 + 1e-12
    with open(report, "w") as fh:
        json.dump(doc, fh)
    rows, unmatched = artifact_compare.compare(old, new)
    named = ["report.json: diagnostics.added[] is missing under %s" % old,
             "report.json: diagnostics.eigenvalue_dev[] holds 2 values "
             "under %s and 3 under %s" % (old, new)]
    assert unmatched == named
    fields = {r[1]: r[2:] for r in rows if r[0] == "report.json"}
    assert "diagnostics.added[]" not in fields
    assert "diagnostics.eigenvalue_dev[]" not in fields
    assert fields["diagnostics.weyl_bound"] == (1, 0, 0.0)
    assert fields["errors.e3"][:2] == (1, 1)
    capsys.readouterr()
    assert artifact_compare.main([old, new, "--moved"]) == 1
    printed = capsys.readouterr()
    assert printed.err.splitlines() == named
    assert printed.out.splitlines()[2:] == [
        "| report.json | errors.e3 | 1 | 1 | 1e-12 |"]
