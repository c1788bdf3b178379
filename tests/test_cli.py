"""Command-line interface, configuration loading, and artifact formats."""

import ast
import glob
import inspect
import json
import math
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

import reference
import support
import covrecon
from covrecon import artifacts, cli, estimators, mercer
from covrecon import config as config_mod
from covrecon._version import __version__
from covrecon.errors import ConfigError, NumericError


def run_cli(*argv):
    return cli.main(list(argv))


def write_cfg(tmp_path, name="cfg.yaml", **kwargs):
    out = kwargs.pop("out_dir", str(tmp_path / "out"))
    text = support.basic_yaml(out, **kwargs)
    return support.write_yaml(tmp_path / name, text), out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults_resolve_and_roundtrip():
    cfg = config_mod.StudyConfig()
    assert cfg.s == 0.5 - 1e-3, "s must default to 1/2 - delta"
    assert cfg.mode == "NodalInterpolation"
    raw = dict(field=dict(kind="brownian", d=1, delta=1e-3),
               sampling=dict(mode="nodal"),
               estimator=dict(kind="MLE", alpha=1.0),
               study=dict(ns=[16], Ms=[100], Ls=[3], n_rep=2),
               quadrature=dict(q=2), seed=0, output="out")
    assert config_mod.from_dict(raw).to_dict() == cfg.to_dict(), \
        "an explicit YAML document spelling the defaults must resolve equal"
    # the quadrature section is accepted and ignored: projection sampling
    # is exact, so no Gauss order is left to set
    del raw["quadrature"]
    assert config_mod.from_dict(raw).to_dict() == cfg.to_dict()
    assert "q" not in cfg.to_dict()
    # studies ship the config to worker processes
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone.to_dict() == cfg.to_dict()


def test_config_validation_names_the_field():
    bad = [
        (dict(field_kind="ou"), "field.kind"),
        (dict(d=3), "field.d"),
        (dict(delta=0.7), "field.delta"),
        (dict(s=0.9), "field.s"),
        (dict(mode="spectral"), "sampling.mode"),
        (dict(mode="projection"), "sampling.kl_trunc"),
        (dict(estimator="Banded"), "estimator.kind"),
        (dict(estimator="Tapered", alpha=-1.0), "estimator.alpha"),
        # plan and estimate read alpha whatever the estimator
        (dict(estimator="MLE", alpha=-0.5), "estimator.alpha"),
        (dict(estimator="MLE", alpha=0.0), "estimator.alpha"),
        (dict(estimator="Exact", alpha=-1.0), "estimator.alpha"),
        (dict(estimator="MLE", alpha=math.nan), "estimator.alpha"),
        (dict(ns=[]), "study.ns"),
        (dict(ns=[1]), "study.ns"),
        (dict(Ms=[0]), "study.Ms"),
        (dict(Ls=[2, 200]), "study.Ls"),
        # the rank bound is the smallest mesh's Q_h (3 at n=2), not the
        # largest's
        (dict(ns=[2, 8], Ls=[2, 4]), "study.Ls"),
        (dict(n_rep=0), "study.n_rep"),
        (dict(calibration=dict(C9=1.0)), "calibration.C9"),
        (dict(calibration=dict(rho1=0.0)), "calibration.rho1"),
        (dict(seed=-1), "seed"),
        (dict(out_dir=""), "output"),
        # YAML booleans are not integers, and alpha must be finite
        (dict(d=True), "field.d"),
        (dict(Ls=[True]), "study.Ls"),
        (dict(n_rep=True), "study.n_rep"),
        (dict(seed=True), "seed"),
        (dict(mode="projection", kl_trunc=True), "sampling.kl_trunc"),
        (dict(estimator="Tapered", alpha=math.inf), "estimator.alpha"),
    ]
    for overrides, needle in bad:
        with pytest.raises(ConfigError) as err:
            support.make_config(**overrides)
        assert needle in str(err.value), \
            "rejecting %r must name %s, said: %s" % (overrides, needle,
                                                     err.value)
    # values that do not convert to a float are refused while loading
    for raw, needle in ((dict(field=dict(delta=None)), "field.delta"),
                        (dict(field=dict(s="half")), "field.s"),
                        (dict(estimator=dict(alpha=[1])), "estimator.alpha"),
                        (dict(estimator=dict(alpha=True)), "estimator.alpha")):
        with pytest.raises(ConfigError, match=needle):
            config_mod.from_dict(raw)


def test_readme_config_schema_loads():
    # the documented schema must stay loadable by the config loader
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("### Config schema", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    assert "quadrature" in raw, "the README documents the ignored section"
    cfg = config_mod.from_dict(raw)
    assert cfg.d == raw["field"]["d"] and cfg.ns == raw["study"]["ns"]
    assert cfg.calibration == raw["calibration"]


def test_from_dict_structure_errors():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_mod.from_dict(dict(grid=dict(n=4)))
    with pytest.raises(ConfigError, match="mapping"):
        config_mod.from_dict([1, 2])
    with pytest.raises(ConfigError, match="field: must be a mapping"):
        config_mod.from_dict(dict(field=[1]))
    # empty document and explicitly null sections fall back to defaults
    assert config_mod.from_dict(None).d == 1
    assert config_mod.from_dict(dict(field=None, study=None)).ns == [16]


def test_config_refuses_unknown_settings_in_a_section(tmp_path, capsys):
    # a misspelled key used to load as the default of the key it meant
    for raw, needle in ((dict(estimator=dict(kind="Tapered", alpa=3.0)),
                         "estimator.alpa: unknown setting"),
                        (dict(study=dict(ns=[8], nrep=5)),
                         "study.nrep: unknown setting"),
                        (dict(field=dict(dim=2)), "field.dim"),
                        (dict(sampling=dict(kl_trunk=9)),
                         "sampling.kl_trunk")):
        with pytest.raises(ConfigError, match=needle):
            config_mod.from_dict(raw)
    # the ignored quadrature section takes any key
    assert config_mod.from_dict(dict(quadrature=dict(order=3))).d == 1
    text = support.basic_yaml(str(tmp_path / "o"),
                              estimator="Tapered").replace("alpha:", "alpa:")
    typo = support.write_yaml(tmp_path / "typo.yaml", text)
    assert run_cli("study", "--config", typo) == 2
    assert "estimator.alpa: unknown setting" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "o" / "study_summary.csv"))


def test_config_refuses_repeated_grid_values(tmp_path, capsys):
    # a repeated n used to give two summary rows for one (L, h, M) and a
    # rate fitted to one of the two meshes
    for name in ("ns", "Ms", "Ls"):
        with pytest.raises(ConfigError, match="study.%s: entries must be "
                                              "distinct" % (name,)):
            support.make_config(**{name: [4, 2, 4]})
    path, out = write_cfg(tmp_path, n=8)
    text = support.read_file_bytes(path).decode().replace("ns: [8]",
                                                          "ns: [8, 8]")
    support.write_yaml(path, text)
    assert run_cli("study", "--config", path) == 2
    assert "study.ns" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "study_summary.csv"))


def test_benchmark_workload_configs_load():
    # every benchmark workload's config loads, so that a tightening of the
    # config fails here before it fails a benchmark run.  A fresh interpreter
    # imports perfbench/run.py: its reference module would shadow this
    # directory's reference.py
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir)
    script = ("import sys\n"
              "sys.path[:0] = [%r, %r]\n"
              "import run\n"
              "from covrecon import config\n"
              "for name, workload in sorted(run.WORKLOADS.items()):\n"
              "    config.from_dict(workload.config)\n"
              "    print(name)\n"
              % (os.path.join(root, "src"), os.path.join(root, "perfbench")))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "study-fine-projection" in proc.stdout.split(), proc.stdout


def test_config_table_round_trips_every_setting():
    # a YAML document that sets every row of the settings table loads each
    # into its parameter and comes back out of to_dict, whose keys are
    # exactly the constructor's parameters: no private attribute reaches
    # the config that every artifact embeds
    raw = yaml.safe_load(
        "field: {kind: brownian, d: 2, delta: 0.01, s: 0.3}\n"
        "sampling: {mode: projection, kl_trunc: 7}\n"
        "estimator: {kind: Tapered, alpha: 2}\n"
        "study: {ns: [4, 8], Ms: [30], Ls: [1, 3], n_rep: 3}\n"
        "calibration: {C1: 2.0}\nseed: 5\noutput: elsewhere\n")
    resolved = config_mod.from_dict(raw).to_dict()
    for sec, key, attr in config_mod._SETTINGS:
        value = (raw[sec] if sec else raw)[key]
        want = config_mod._MODES[value] if attr == "mode" else value
        assert resolved[attr] == want, (sec, key, attr)
    assert isinstance(resolved["alpha"], float)
    assert resolved["calibration"]["C1"] == 2.0
    params = inspect.signature(config_mod.StudyConfig).parameters
    assert list(resolved) == list(params), \
        "to_dict must hold the constructor's arguments and nothing else"
    assert config_mod.StudyConfig(**resolved).to_dict() == resolved


def test_load_config_applies_cli_overrides(tmp_path):
    path, _ = write_cfg(tmp_path, seed=3)
    cfg = config_mod.load_config(path, seed=11, out_dir=str(tmp_path / "o2"))
    assert cfg.seed == 11 and cfg.out_dir.endswith("o2")
    assert config_mod.load_config(path).seed == 3


def test_load_config_read_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot be read"):
        config_mod.load_config(str(tmp_path / "absent.yaml"))
    bad = support.write_yaml(tmp_path / "bad.yaml", "field: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        config_mod.load_config(bad)
    scalar = support.write_yaml(tmp_path / "scalar.yaml", "just a string\n")
    with pytest.raises(ConfigError, match="mapping"):
        config_mod.load_config(scalar)


# ---------------------------------------------------------------------------
# artifact formats
# ---------------------------------------------------------------------------

def test_fmt_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -1e-300, math.pi, 0.0):
        assert float(artifacts.fmt(x)) == x, \
            "%r must survive the %%.17g text form" % (x,)
    assert artifacts.fmt(True) == "true" and artifacts.fmt(False) == "false"
    assert artifacts.fmt(np.int64(7)) == "7"
    assert artifacts.fmt("kind") == "kind"


def test_canonical_json_is_sorted_and_null_maps_nonfinite():
    doc = artifacts.canonical_json(dict(b=float("nan"), a=np.arange(2),
                                        c=float("inf")))
    assert doc == '{"a":[0,1],"b":null,"c":null}'


def test_write_read_json_embeds_version(tmp_path):
    path = str(tmp_path / "r.json")
    artifacts.write_json(path, dict(x=1.5, bad=float("-inf")),
                         support.make_config())
    doc = artifacts.read_json(path)
    assert doc["version"] == __version__ and doc["x"] == 1.5
    assert doc["bad"] is None, "non-finite floats must serialize as null"
    assert doc["config"]["ns"] == [8]


def test_csv_round_trip_and_header_requirement(tmp_path):
    path = str(tmp_path / "t.csv")
    artifacts.write_csv(path, ["a", "b"], [[1, 2.5], ["x,y", float("nan")]],
                        support.make_config())
    cols, rows = artifacts.read_csv(path)
    assert cols == ["a", "b"]
    assert rows == [["1", "2.5"], ["x;y", "nan"]], \
        "commas inside cells must be replaced to keep the format parseable"
    empty = str(tmp_path / "empty.csv")
    with open(empty, "w") as fh:
        fh.write("# only comments\n")
    with pytest.raises(ConfigError, match="no header"):
        artifacts.read_csv(empty)


def test_covariance_text_round_trip_and_errors(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 4))
    mat = (mat + mat.T) / 2.0
    cov = estimators.TaperedCovariance(mat, tau=2, alpha=1.5,
                                       estimator_kind="Tapered", M=9)
    path = str(tmp_path / "c.txt")
    artifacts.write_covariance(path, cov, support.make_config())
    back = artifacts.read_covariance(path)
    assert np.array_equal(back.matrix, mat), \
        "%.17g rows must reproduce the matrix bit for bit"
    assert back.tau == 2 and back.alpha == 1.5
    assert back.estimator_kind == "Tapered" and back.M == 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    orig = list(lines)
    lines[2] = "4 Tapered 2"  # drop the alpha column
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="header"):
        artifacts.read_covariance(path)
    with open(path, "w") as fh:
        fh.write("\n".join(orig[:-1]) + "\n")
    with pytest.raises(ConfigError, match="expected 4 rows"):
        artifacts.read_covariance(path)


def test_study_cell_persistence_round_trip(tmp_path):
    cell_dir = str(tmp_path)
    good = mercer.CellResult(3, 2, 8, 50, ok=True, mean_total=0.25,
                             mean_e1=0.1, mean_e2=0.05, mean_e3=0.1,
                             stderr=0.01, n_rep=4, gap_fail_fraction=0.0,
                             p0=float("nan"), tau=0, lambda1_dev=1e-3)
    cfg, notes = support.make_config(), []
    artifacts.save_cell(cell_dir, good, cfg)
    back = artifacts.load_cell(cell_dir, 3, cfg, notes)
    assert back.index == 3 and back.M == 50 and back.mean_total == 0.25
    assert math.isnan(back.p0), "null JSON floats must come back as nan"
    assert artifacts.load_cell(cell_dir, 4, cfg, notes) is None
    with open(artifacts.cell_path(cell_dir, 3), "w") as fh:
        fh.write("{ truncated")
    assert artifacts.load_cell(cell_dir, 3, cfg, notes) is None, \
        "a corrupt cell must be recomputed, not crash the resume"


def test_load_cell_notes_rejections_but_ignores_out_dir(tmp_path):
    # the version and seed rejections are covered through the CLI in
    # test_cli_study_resume_rejects_cells_of_other_runs
    cell_dir = str(tmp_path)
    good = mercer.CellResult(0, 2, 8, 50, ok=True, mean_total=0.25,
                             mean_e1=0.1, mean_e2=0.05, mean_e3=0.1,
                             stderr=0.01, n_rep=4, gap_fail_fraction=0.0,
                             p0=0.5, tau=0, lambda1_dev=1e-3)
    artifacts.save_cell(cell_dir, good, support.make_config(seed=1))
    notes = []
    moved = support.make_config(seed=1, out_dir="elsewhere")
    assert artifacts.load_cell(cell_dir, 0, moved, notes).mean_total == 0.25, \
        "a cell differing only in out_dir is reused"
    assert artifacts.load_cell(cell_dir, 1, moved, notes) is None
    assert notes == [], "a missing cell is no rejection"
    path = artifacts.cell_path(cell_dir, 0)
    with open(path, "w") as fh:
        fh.write("{ truncated")
    assert artifacts.load_cell(cell_dir, 0, moved, notes) is None
    assert len(notes) == 1 and "corrupt" in notes[0] and path in notes[0]
    assert "\n" not in notes[0], "one line per rejected cell"


def test_sidecar_records_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = str(tmp_path / "x.meta.json")
    artifacts.write_sidecar(path, support.make_config(), n=4)
    meta = artifacts.read_json(path)
    assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                    "OMP_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}
    assert meta["n"] == 4 and meta["version"] == __version__


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_cli_sample_writes_batch(tmp_path, capsys):
    path, out = write_cfg(tmp_path, n=4, M=10)
    assert run_cli("sample", "--config", path) == 0
    batch = artifacts.read_batch_csv(os.path.join(out, "batch.csv"))
    assert batch.shape == (10, 5), "10 samples on n=4 give 10 x 5 dofs"
    assert np.all(batch[:, 0] == 0.0), "the pinned boundary node stays zero"
    meta = artifacts.read_json(os.path.join(out, "batch.meta.json"))
    assert "created" in meta and meta["M"] == 10 and meta["Q_h"] == 5
    assert meta["mode"] == "NodalInterpolation"
    assert "batch.csv" in capsys.readouterr().out


def test_cli_sample_seed_and_out_overrides(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=10, seed=0)
    other = str(tmp_path / "elsewhere")
    assert run_cli("sample", "--config", path) == 0
    assert run_cli("sample", "--config", path, "--seed", "5",
                   "--out", other) == 0
    a = artifacts.read_batch_csv(os.path.join(out, "batch.csv"))
    b = artifacts.read_batch_csv(os.path.join(other, "batch.csv"))
    assert a.shape == b.shape and not np.array_equal(a, b), \
        "a different seed must change the draw"
    meta = artifacts.read_json(os.path.join(other, "batch.meta.json"))
    assert meta["seed"] == 5 and meta["config"]["seed"] == 5


def test_cli_estimate_covariance_round_trip(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=30)
    assert run_cli("estimate", "--config", path) == 0
    cov = artifacts.read_covariance(os.path.join(out, "covariance.txt"))
    assert cov.estimator_kind == "MLE" and cov.tau == 0
    assert cov.alpha is None and cov.matrix.shape == (5, 5)
    assert support.max_offdiag_asym(cov.matrix) == 0.0
    report = artifacts.read_json(os.path.join(out, "estimate_report.json"))
    assert report["estimator"] == "MLE" and report["M"] == 30
    assert report["Q_h"] == 5 and report["rho_tilde"] > 0
    assert set(report["decay_check"]) == {"alpha", "C1_est", "lambda_max",
                                          "passes"}
    assert report["subgaussian"]["c_inf_hat"] > 0


def test_cli_estimate_exact_writes_the_exact_covariance(tmp_path):
    # coverage: the Exact estimate draws nothing and is the nodal covariance
    path, out = write_cfg(tmp_path, n=4, M=30, estimator="Exact")
    assert run_cli("estimate", "--config", path) == 0
    cov_path = os.path.join(out, "covariance.txt")
    cov = artifacts.read_covariance(cov_path)
    assert np.array_equal(cov.matrix, mercer.ExactSide(1, 4, 1).sigma)
    with open(cov_path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith("#")]
    assert lines[0] == "5 Exact 0 -"
    report = artifacts.read_json(os.path.join(out, "estimate_report.json"))
    assert report["estimator"] == "Exact" and report["M"] == 0
    assert "subgaussian" not in report, "no batch, no subgaussian block"


def test_cli_estimate_tapered_band(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=100, estimator="Tapered")
    assert run_cli("estimate", "--config", path) == 0
    cov = artifacts.read_covariance(os.path.join(out, "covariance.txt"))
    assert cov.estimator_kind == "Tapered" and cov.alpha == 1.0
    assert cov.tau == 4, \
        "tau(M=100)=6 exceeds Q_h=5 and must clamp to the even value 4"
    assert reference.bandwidth(cov.matrix) <= cov.tau - 1


def test_cli_reconstruct_exact_mode(tmp_path, capsys):
    path, out = write_cfg(tmp_path, n=4, M=10, L=3, estimator="Exact")
    assert run_cli("reconstruct", "--config", path) == 0
    report = artifacts.read_json(os.path.join(out, "report.json"))
    errors = report["errors"]
    assert errors["e3"] == 0.0, \
        "the exact discrete covariance has no sampling error"
    assert errors["total"] <= errors["e1"] + errors["e2"] + 1e-8
    diag = report["diagnostics"]
    assert diag["weyl_bound"] <= 1e-12 and diag["p0"] == 0.0
    assert report["estimator"] == "Exact" and report["M"] == 0
    for name in ("spectrum.csv", "spectrum_exact.csv"):
        cols, rows = artifacts.read_csv(os.path.join(out, name))
        assert cols[:2] == ["l", "lambda"] and len(rows) == 3
    assert "total=" in capsys.readouterr().out


def test_cli_reconstruct_exact_mode_2d(tmp_path):
    # the Exact estimate is the exact side itself, so the Kronecker exact
    # spectrum is compared with itself and no roundoff residue is left
    path, out = write_cfg(tmp_path, n=6, M=10, L=3, estimator="Exact", d=2)
    assert run_cli("reconstruct", "--config", path) == 0
    report = artifacts.read_json(os.path.join(out, "report.json"))
    assert report["errors"]["e3"] == 0.0
    assert report["diagnostics"]["weyl_bound"] == 0.0
    assert max(report["diagnostics"]["eigenvalue_dev"]) == 0.0
    # the closed-form exact spectrum holds the 2n+1 node-0 modes at exactly 0
    assert report["diagnostics"]["min_eigenvalue"] == 0.0
    assert report["diagnostics"]["n_negative_eigenvalues"] == 0
    assert report["errors"]["near_degenerate_split"], \
        "modes 2 and 3 of the sheet tie exactly"
    _, rows = artifacts.read_csv(os.path.join(out, "spectrum.csv"))
    _, exact_rows = artifacts.read_csv(os.path.join(out, "spectrum_exact.csv"))
    assert rows == exact_rows


def test_cli_reconstruct_counts_only_real_negative_eigenvalues(tmp_path):
    # the 2D MLE estimate is 0 on the 2n+1 axis nodes, so 2n+1 of its
    # eigenvalues are roundoff around 0 (9 of them below 0 here); only
    # eigenvalues below -Q eps lambda_1 count as negative
    path, out = write_cfg(tmp_path, n=8, M=200, L=3, seed=0, d=2)
    assert run_cli("reconstruct", "--config", path) == 0
    diag = artifacts.read_json(os.path.join(out, "report.json"))["diagnostics"]
    assert diag["n_negative_eigenvalues"] == 0
    assert -1e-15 < diag["min_eigenvalue"] < 0.0, \
        "min_eigenvalue stays the raw smallest eigenvalue"
    assert diag["negatives_below_weyl"]


def test_cli_reconstruct_reproducible_bytes(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=20, L=2, seed=9)
    assert run_cli("reconstruct", "--config", path) == 0
    first = {os.path.relpath(p, out): support.read_file_bytes(p)
             for p in support.primary_artifacts(out)}
    assert first, "the run must leave primary artifacts behind"
    shutil.rmtree(out)
    assert run_cli("reconstruct", "--config", path) == 0
    second = {os.path.relpath(p, out): support.read_file_bytes(p)
              for p in support.primary_artifacts(out)}
    assert first == second, "same-seed reruns must be byte-identical"
    assert run_cli("reconstruct", "--config", path, "--seed", "10") == 0
    changed = artifacts.read_json(os.path.join(out, "report.json"))
    assert changed["errors"]["e3"] != json.loads(
        first["report.json"])["errors"]["e3"], \
        "a new seed must move the sampling error"


def test_cli_rank_exceeding_dofs_is_a_config_error(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, n=4, L=7)
    assert run_cli("reconstruct", "--config", path) == 2
    err = capsys.readouterr().err
    assert "L=7" in err and "Q_h=5" in err, \
        "the refusal must name both the rank and the dof count: %s" % (err,)


def test_cli_yaml_and_section_errors(tmp_path, capsys):
    bad = support.write_yaml(tmp_path / "bad.yaml", "study: [unclosed\n")
    assert run_cli("sample", "--config", bad) == 2
    assert "not valid YAML" in capsys.readouterr().err
    unknown = support.write_yaml(tmp_path / "u.yaml",
                                 "grid:\n  n: 4\noutput: %s\n"
                                 % (tmp_path / "o",))
    assert run_cli("sample", "--config", unknown) == 2
    assert "unknown config section" in capsys.readouterr().err
    text = support.basic_yaml(str(tmp_path / "o")).replace("alpha: 1.0",
                                                           "alpha: [1]")
    listed = support.write_yaml(tmp_path / "a.yaml", text)
    assert run_cli("estimate", "--config", listed) == 2
    assert "estimator.alpha" in capsys.readouterr().err
    for value, key in (("true", "C1"), (".inf", "rho1")):
        text = support.basic_yaml(str(tmp_path / "o"),
                                  extra="calibration:\n  %s: %s\n"
                                  % (key, value))
        cal = support.write_yaml(tmp_path / "c.yaml", text)
        assert run_cli("reconstruct", "--config", cal) == 2
        assert "calibration.%s" % (key,) in capsys.readouterr().err


def test_cli_nonpositive_alpha_is_a_config_error_for_every_estimator(
        tmp_path, capsys):
    # plan's thresholds and estimate's decay check and rate read alpha
    # whatever the estimator: a bad one is refused before any artifact
    for kind, alpha in (("MLE", "-0.5"), ("MLE", "-1"), ("Exact", "0")):
        out = str(tmp_path / kind / alpha)
        text = support.basic_yaml(out, n=8, M=50, estimator=kind)
        path = support.write_yaml(tmp_path / "a.yaml", text.replace(
            "alpha: 1.0", "alpha: %s" % (alpha,)))
        for argv in (["plan", "--epsilon", "0.4"], ["estimate"]):
            assert run_cli(*(argv + ["--config", path])) == 2
            err = capsys.readouterr().err
            assert "estimator.alpha" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "covariance.txt"))


def test_cli_single_sample_estimate_is_a_config_error(tmp_path, capsys):
    # M=1 passes config validation (a study list entry) but the MLE needs
    # two samples; the ValueError maps to the config exit code
    path, _ = write_cfg(tmp_path, n=4, M=1)
    assert run_cli("estimate", "--config", path) == 2
    assert "2 samples" in capsys.readouterr().err


def test_cli_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    path, _ = write_cfg(tmp_path, n=4)

    def boom(stiffness, mass, k=None):
        raise NumericError("synthetic eigensolver failure")

    monkeypatch.setattr(cli.spectral, "eigensolve", boom)
    assert run_cli("reconstruct", "--config", path) == 3
    assert "numeric error: synthetic" in capsys.readouterr().err


def test_cli_study_is_exact_free(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, estimator="Exact")
    assert run_cli("study", "--config", path) == 2
    assert "MLE or Tapered" in capsys.readouterr().err


def test_cli_study_rejects_a_worker_count_below_one(tmp_path, capsys):
    path, _ = write_cfg(tmp_path)
    for workers in ("0", "-3"):
        assert run_cli("study", "--config", path, "--workers", workers) == 2
        assert "workers must be >= 1" in capsys.readouterr().err


def test_cli_study_resume_and_workers(tmp_path):
    out = str(tmp_path / "study_out")
    text = (
        "field:\n  kind: brownian\n  d: 1\n"
        "sampling:\n  mode: nodal\n"
        "estimator:\n  kind: MLE\n"
        "study:\n  ns: [4]\n  Ms: [10, 20]\n  Ls: [2]\n  n_rep: 2\n"
        "quadrature:\n  q: 2\nseed: 1\noutput: %s\n" % (out,))
    path = support.write_yaml(tmp_path / "study.yaml", text)

    assert run_cli("study", "--config", path) == 0
    snapshot = {os.path.relpath(p, out): support.read_file_bytes(p)
                for p in support.primary_artifacts(out)}
    assert "study_summary.csv" in snapshot and "study_rates.csv" in snapshot
    assert os.path.join("cells", "cell_00000.json") in snapshot
    cols, rows = artifacts.read_csv(os.path.join(out, "study_summary.csv"))
    assert cols == ["L", "h", "M", "mean_total", "mean_e3", "stderr", "n_rep"]
    assert [r[2] for r in rows] == ["10", "20"]

    def rerun(*extra):
        shutil.rmtree(out)
        assert run_cli("study", "--config", path, *extra) == 0
        return {os.path.relpath(p, out): support.read_file_bytes(p)
                for p in support.primary_artifacts(out)}

    assert rerun() == snapshot, "same-seed study reruns are byte-identical"
    assert rerun("--workers", "2") == snapshot, \
        "a process pool must not change any artifact byte"

    # resume keeps the completed cell and recomputes only the missing one
    os.remove(os.path.join(out, "cells", "cell_00001.json"))
    keep = os.path.join(out, "cells", "cell_00000.json")
    before = support.read_file_bytes(keep)
    assert run_cli("study", "--config", path, "--resume") == 0
    resumed = {os.path.relpath(p, out): support.read_file_bytes(p)
               for p in support.primary_artifacts(out)}
    assert resumed == snapshot and support.read_file_bytes(keep) == before


def test_cli_study_resume_rejects_cells_of_other_runs(tmp_path, capsys):
    path, out = write_cfg(tmp_path, n=4, M=10, seed=1)
    assert run_cli("study", "--config", path) == 0

    def artifacts_of_run():
        return {os.path.relpath(p, out): support.read_file_bytes(p)
                for p in support.primary_artifacts(out)}

    def meta():
        return artifacts.read_json(os.path.join(out, "study.meta.json"))

    seed1 = artifacts_of_run()
    assert meta()["cells_resumed"] == 0 and meta()["cells_rejected"] == 0
    # an identical rerun reuses the cell
    capsys.readouterr()
    assert run_cli("study", "--config", path, "--resume") == 0
    assert artifacts_of_run() == seed1
    assert meta()["cells_resumed"] == 1 and meta()["cells_rejected"] == 0
    assert "ignoring cell" not in capsys.readouterr().err
    # a different seed must not reuse the seed-1 cell
    assert run_cli("study", "--config", path, "--seed", "2", "--resume") == 0
    err = capsys.readouterr().err
    assert "ignoring cell" in err and "different config" in err
    assert meta()["cells_resumed"] == 0 and meta()["cells_rejected"] == 1
    seed2 = artifacts_of_run()
    assert seed2 != seed1
    shutil.rmtree(out)
    assert run_cli("study", "--config", path, "--seed", "2") == 0
    assert artifacts_of_run() == seed2, \
        "a resume over rejected cells equals a fresh run"
    # nor a cell written by another version
    cell = artifacts.cell_path(os.path.join(out, "cells"), 0)
    doc = artifacts.read_json(cell)
    doc["version"] = "0.1.0"
    with open(cell, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run_cli("study", "--config", path, "--seed", "2", "--resume") == 0
    assert "covrecon 0.1.0" in capsys.readouterr().err
    assert meta()["cells_resumed"] == 0 and meta()["cells_rejected"] == 1
    assert artifacts_of_run() == seed2


def test_cli_study_diagnostics_table(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=10)
    assert run_cli("study", "--config", path) == 0
    cols, rows = artifacts.read_csv(os.path.join(out,
                                                 "study_diagnostics.csv"))
    assert cols == ["index", "L", "h", "M", "ok", "error", "mean_e1",
                    "mean_e2", "gap_fail_fraction", "p0", "tau",
                    "lambda1_dev"]
    assert len(rows) == 1 and rows[0][4] == "true" and rows[0][5] == ""
    meta = artifacts.read_json(os.path.join(out, "study.meta.json"))
    assert meta["cells"] == 1 and meta["failed"] == 0


def _study_yaml(out, ns, Ms, Ls, seed, estimator="MLE", n_rep=2):
    return ("field:\n  kind: brownian\n  d: 1\n"
            "sampling:\n  mode: nodal\n"
            "estimator:\n  kind: %s\n  alpha: 1.0\n"
            "study:\n  ns: %s\n  Ms: %s\n  Ls: %s\n  n_rep: %d\n"
            "quadrature:\n  q: 2\nseed: %d\noutput: %s\n"
            % (estimator, ns, Ms, Ls, n_rep, seed, out))


def test_study_cell_is_the_mean_of_reconstruct_runs(tmp_path):
    # study and reconstruct run one replication: a 2-replication cell is the
    # mean of the two reconstructs at its (n, M, L) and its mesh's
    # replication seeds, exactly, also for an M and an L below the largest
    # of the grid, which read a prefix of the mesh's draw and the leading
    # part of its spectrum
    out = str(tmp_path / "out")
    grid = support.write_yaml(tmp_path / "grid.yaml", _study_yaml(
        out, [4, 8], [100, 200], [2, 3], seed=5, estimator="Tapered"))
    single = support.write_yaml(tmp_path / "single.yaml", _study_yaml(
        out, [8], [100], [2], seed=5, estimator="Tapered"))
    assert run_cli("study", "--config", grid) == 0
    cells = mercer.study_cells(config_mod.load_config(grid))
    index = cells.index((2, 2, 8, 100))
    cell = artifacts.load_cell(os.path.join(out, "cells"), index,
                               config_mod.load_config(grid), [])
    assert cell.ok and cell.n_rep == 2 and cell.tau == 6
    errors = []
    for rep in (0, 1):
        assert run_cli("reconstruct", "--config", single, "--seed",
                       str(mercer.rep_seed(5, 1, rep))) == 0
        report = artifacts.read_json(os.path.join(out, "report.json"))
        errors.append(report["errors"])
    assert cell.mean_total == float(np.mean([e["total"] for e in errors]))
    assert cell.mean_e3 == float(np.mean([e["e3"] for e in errors]))


def test_cli_study_grid_is_byte_identical_across_workers_and_resume(
        tmp_path, monkeypatch, capsys):
    # 2 meshes x 2 Ms x 2 Ls, 3 replications.  The error split of L=3 on
    # n=2 (Q_h=3) fails, and with it those two cells alone: the L=2 cells
    # that share their estimate, and the n=4 cells, are untouched
    out = str(tmp_path / "out")
    path = support.write_yaml(tmp_path / "study.yaml", _study_yaml(
        out, [2, 4], [10, 20], [2, 3], seed=3, n_rep=3))
    split = mercer.error_decomposition

    def failing_split(exact, est_spec, L):
        if L == 3 and exact.space.dof_count == 3:
            raise NumericError("split of L=3 on Q_h=3")
        return split(exact, est_spec, L)

    monkeypatch.setattr(mercer, "error_decomposition", failing_split)

    def run(*extra):
        assert run_cli("study", "--config", path, *extra) == 0
        return {os.path.relpath(p, out): support.read_file_bytes(p)
                for p in support.primary_artifacts(out)}

    def meta():
        return artifacts.read_json(os.path.join(out, "study.meta.json"))

    serial = run()
    cols, rows = artifacts.read_csv(os.path.join(out,
                                                 "study_diagnostics.csv"))
    failed = [r for r in rows if r[4] == "false"]
    assert len(rows) == 8 and [(r[1], r[2]) for r in failed] == [
        ("3", "0.5"), ("3", "0.5")], failed
    assert all("L=3 on Q_h=3" in r[5] for r in failed)
    assert "rep_seed(seed, i, r)" in meta()["paired_cells"]
    shutil.rmtree(out)
    assert run("--workers", "2") == serial, \
        "a process pool must not change any artifact byte"
    # resume recomputes a deleted cell, and the failed ones, alone
    cell_dir = os.path.join(out, "cells")
    os.remove(artifacts.cell_path(cell_dir, 2))  # L=2, n=4, M=10
    capsys.readouterr()
    assert run("--resume") == serial
    assert meta()["cells_resumed"] == 5 and meta()["cells_rejected"] == 0
    # a cell of the previous sampling contract is rejected
    doc = artifacts.read_json(artifacts.cell_path(cell_dir, 3))
    doc["version"] = "0.2.5"
    with open(artifacts.cell_path(cell_dir, 3), "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert run("--resume") == serial
    assert "written by covrecon 0.2.5" in capsys.readouterr().err
    assert meta()["cells_resumed"] == 5 and meta()["cells_rejected"] == 1


def test_cli_plan_reports_and_exit_codes(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    assert run_cli("plan", "--config", path, "--epsilon", "0.5") == 0
    stdout = capsys.readouterr().out
    assert "L: 2" in stdout and "regime:" in stdout
    doc = artifacts.read_json(os.path.join(out, "plan.json"))
    assert doc["feasible"] is True and doc["L"] == 2
    assert doc["case_number"] == 3 and len(doc["candidates"]) == 3
    assert doc["h"] <= doc["h_interval"][1]

    assert run_cli("plan", "--config", path, "--epsilon", "0.1") == 0
    assert "L: 5" in capsys.readouterr().out

    assert run_cli("plan", "--config", path, "--epsilon", "0.1",
                   "--regime", "2") == 4
    assert "infeasible" in capsys.readouterr().out
    doc = artifacts.read_json(os.path.join(out, "plan.json"))
    assert doc["feasible"] is False and doc["case_number"] == 2
    assert "exceeds upper bound" in doc["reason"]

    assert run_cli("plan", "--config", path, "--epsilon", "1.5") == 2
    assert "epsilon" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli("plan", "--config", path, "--epsilon", "0.5", "--regime", "5")


def test_cli_overflowed_case_surfaces_as_infeasible(tmp_path, capsys):
    # at eps=0.01 the forced rate-dominated case overflows its threshold
    # search; the command reports infeasibility instead of crashing
    path, out = write_cfg(tmp_path)
    assert run_cli("plan", "--config", path, "--epsilon", "0.01",
                   "--regime", "3") == 4
    assert "exceeded" in capsys.readouterr().out
    assert run_cli("plan", "--config", path, "--epsilon", "0.01") == 0
    doc = artifacts.read_json(os.path.join(out, "plan.json"))
    assert doc["case_number"] == 1 and doc["L"] == 22


def test_cli_artifact_tree_parses_everywhere(tmp_path):
    path, out = write_cfg(tmp_path, n=4, M=10, estimator="Tapered")
    for command in ("sample", "estimate", "reconstruct", "study"):
        assert run_cli(command, "--config", path) == 0
    assert run_cli("plan", "--config", path, "--epsilon", "0.5") == 0
    primaries = support.primary_artifacts(out)
    assert len(primaries) >= 9
    for full in primaries:
        name = os.path.basename(full)
        if name == "batch.csv":
            assert artifacts.read_batch_csv(full).size > 0
        elif name.endswith(".csv"):
            cols, _ = artifacts.read_csv(full)
            assert cols, "%s must carry a header" % (name,)
        elif name.endswith(".txt"):
            assert artifacts.read_covariance(full).matrix.shape == (5, 5)
        else:
            assert name.endswith(".json"), "unexpected artifact %s" % (name,)
            doc = artifacts.read_json(full)
            assert doc["version"] == __version__
            assert doc["config"]["out_dir"] == out
    sidecars = [os.path.join(r, n) for r, _, ns in os.walk(out)
                for n in ns if n.endswith(".meta.json")]
    assert len(sidecars) >= 4
    for full in sidecars:
        doc = artifacts.read_json(full)
        assert "created" in doc and doc["version"] == __version__


# What the wrapper that installing the package generates for the declared
# ``covrecon = "covrecon.cli:main"`` console script does.
ENTRY_POINT = "import sys; from covrecon.cli import main; sys.exit(main())"


def check_plan_command(command, tmp_path, env=None):
    path, out = write_cfg(tmp_path)
    proc = subprocess.run(command + ["plan", "--config", path,
                                     "--epsilon", "0.5"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "regime:" in proc.stdout, proc.stderr
    assert os.path.exists(os.path.join(out, "plan.json"))


def test_cli_version_and_console_script(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--version")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    with pytest.raises(SystemExit):
        run_cli()  # a subcommand is required
    # Run the entry point in a fresh interpreter the way the installed
    # script would, so the check holds with or without an installed package.
    src = os.path.dirname(os.path.dirname(os.path.abspath(covrecon.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    check_plan_command([sys.executable, "-c", ENTRY_POINT], tmp_path, env)


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["covrecon"] == "covrecon.cli:main"
    assert project["version"] == covrecon.__version__, \
        "pyproject.toml and covrecon.__version__ must name one version"


@pytest.mark.skipif(shutil.which("covrecon") is None,
                    reason="covrecon console script not on PATH "
                           "(package not installed)")
def test_installed_console_script(tmp_path):
    script = shutil.which("covrecon")
    proc = subprocess.run([script, "--version"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    # A script left on PATH by another checkout reports another version.
    assert proc.stdout.strip() == __version__
    check_plan_command([script], tmp_path)


def test_library_has_no_asserts():
    # python -O strips assert statements, so every library invariant must
    # raise explicitly instead
    pkg = os.path.dirname(os.path.abspath(covrecon.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: %s" % (found,)


def test_library_never_names_scipy():
    # scipy is a test oracle only: no library module may name it
    pkg = os.path.dirname(os.path.abspath(covrecon.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path) as fh:
            found += ["%s:%d" % (os.path.basename(path), i)
                      for i, line in enumerate(fh, 1) if "scipy" in line]
    assert not found, "scipy named in the library: %s" % (found,)


# Runs the CLI with a finder in front of sys.meta_path that records and
# refuses every scipy import; exits 3 if one was tried or loaded, else with
# the command's own code.
NO_SCIPY = """
import sys
tried = []
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            tried.append(name)
            raise ImportError("scipy import refused: " + name)
sys.meta_path.insert(0, NoScipy())
from covrecon.cli import main
code = main()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if tried or loaded:
    print("scipy imports tried %r, loaded %r" % (tried, loaded))
    sys.exit(3)
sys.exit(code)
"""


@pytest.mark.parametrize("command, options", [
    ("reconstruct", dict(n=4, M=10, L=2)),
    ("reconstruct", dict(n=4, M=50, L=2, d=2)),
    ("study", dict(n=4, M=10, L=2)),
    ("sample", dict(n=4, M=10, mode="projection")),
    ("estimate", dict(n=4, M=100, estimator="Tapered")),
    ("plan", dict()),
])
def test_cli_commands_never_import_scipy(tmp_path, command, options):
    options = dict(options)
    mode = options.pop("mode", "nodal")
    out = str(tmp_path / "out")
    text = support.basic_yaml(out, **options)
    if mode == "projection":
        text = text.replace("mode: nodal", "mode: projection\n  kl_trunc: 20")
    path = support.write_yaml(tmp_path / "cfg.yaml", text)
    argv = [command, "--config", path]
    if command == "plan":
        argv += ["--epsilon", "0.5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(covrecon.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert os.listdir(out), "%s wrote no artifact" % (command,)
